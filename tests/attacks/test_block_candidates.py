"""Property harness for the PRBCD block candidate engine.

Locks the ``block`` strategy's contracts: |candidates| ≤ block_size at
every step, flipped pairs are never evicted, identical seeds reproduce
identical candidate sequences across dense/sparse backends and
numpy/compiled kernels, the degenerate block (covering every pair) selects
bit-identical flips to ``full`` for every ``ATTACK_REGISTRY`` member,
and the candidate footprint stays O(block_size) regardless of n.
"""

import pickle

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    ATTACK_REGISTRY,
    AttackCampaign,
    BinarizedAttack,
    BlockCandidateSet,
    CandidateSet,
    ContinuousA,
    GradMaxSearch,
    OddBallHeuristic,
    RandomAttack,
    grid_jobs,
)
from repro.attacks.candidates import (
    AdaptiveCandidateSet,
    admission_cap,
    adopt_refresh,
    block_params,
    default_block_size,
)
from repro.oddball.surrogate import (
    DenseSurrogateEngine,
    SparseSurrogateEngine,
    SurrogateEngine,
)

def _same_pairs(a, b):
    return np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)


def _total(n):
    return n * (n - 1) // 2


def _drive_schedule(
    graph, targets, *, block_size, seed, steps=6, schedule_seed=0, oracle=False,
):
    """Run a seeded flip/refresh schedule, asserting the block invariants.

    The gradients come from the sparse engine, or from the dense autograd
    oracle with ``oracle=True``.  Returns the per-step (rows, cols) history
    so callers can compare candidate sequences across engine configurations.
    """
    n = graph.number_of_nodes
    block = BlockCandidateSet.start(n, block_size=block_size, seed=seed)
    if oracle:
        engine = DenseSurrogateEngine(graph.adjacency, targets, block)
    else:
        engine = SparseSurrogateEngine(sparse.csr_matrix(graph.adjacency), targets, block)
    picker = np.random.default_rng(schedule_seed)
    history, flipped = [], []
    for _ in range(steps):
        index = int(picker.integers(len(block)))
        pair = (int(block.rows[index]), int(block.cols[index]))
        engine.apply_flip(*pair)
        flipped.append(pair)
        block = block.refresh([pair], engine)
        engine.set_candidates(block)
        assert len(block) <= block_size
        assert set(flipped) <= block.pair_set()
        assert set(flipped) <= set(block.flipped)
        keys = block.rows * n + block.cols
        assert np.all(np.diff(keys) > 0)  # canonical order, no duplicates
        history.append((block.rows.copy(), block.cols.copy()))
    return history


class TestBlockSampling:
    def test_start_is_seed_deterministic(self):
        a = BlockCandidateSet.start(60, block_size=128, seed=3)
        b = BlockCandidateSet.start(60, block_size=128, seed=3)
        other = BlockCandidateSet.start(60, block_size=128, seed=4)
        assert _same_pairs(a, b)
        assert not _same_pairs(a, other)

    def test_pairs_are_canonical_unique_and_in_range(self):
        block = BlockCandidateSet.start(97, block_size=500, seed=1)
        assert np.all(block.rows < block.cols)
        assert np.all((block.rows >= 0) & (block.cols < 97))
        keys = block.rows * 97 + block.cols
        assert np.unique(keys).size == keys.size
        assert 0 < len(block) <= 500

    def test_block_size_clamps_to_the_triangle(self):
        block = BlockCandidateSet.start(10, block_size=10**6)
        assert len(block) == _total(10)
        assert block.is_degenerate_full
        rows, cols = np.triu_indices(10, k=1)
        assert np.array_equal(block.rows, rows)
        assert np.array_equal(block.cols, cols)

    def test_rejects_degenerate_graphs_and_sizes(self):
        with pytest.raises(ValueError):
            BlockCandidateSet.start(1, block_size=8)
        with pytest.raises(ValueError):
            BlockCandidateSet.start(10, block_size=0)

    def test_build_dispatch_ignores_targets(self, small_ba_graph):
        block = CandidateSet.build(
            "block", small_ba_graph, targets=[0, 1],
            budget=3, block_size=64, block_seed=5,
        )
        assert isinstance(block, BlockCandidateSet)
        assert block.strategy == "block"
        assert block.seed == 5 and len(block) <= 64

    def test_budget_scaled_size_and_admission_policies(self):
        assert default_block_size(10**6) == 32_768
        assert default_block_size(10**6, budget=16) == 4096 * 16
        assert default_block_size(90, budget=100) == _total(90)
        assert admission_cap(None) == 32
        assert admission_cap(2) == 32
        assert admission_cap(100) == 800


class TestBlockParams:
    def test_block_job_params_leave_defaults_out(self):
        assert block_params("block") == {}
        assert block_params("block", 64, 3) == {"block_size": 64, "block_seed": 3}
        assert block_params("block", None, 3) == {"block_seed": 3}
        assert block_params("full") == block_params(None) == {}


class TestBlockRefreshInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_schedule_holds_every_invariant(self, small_ba_graph, seed):
        _drive_schedule(
            small_ba_graph, [0, 1, 2], block_size=128, seed=seed,
            schedule_seed=seed + 10,
        )

    def test_refresh_without_engine_raises(self):
        block = BlockCandidateSet.start(60, block_size=64)
        with pytest.raises(ValueError, match="engine"):
            block.refresh([(0, 1)])

    def test_degenerate_refresh_returns_self(self):
        block = BlockCandidateSet.start(10, block_size=10**6)
        assert block.refresh([(0, 1)]) is block

    def test_refresh_resamples_and_advances_the_draw(self, small_ba_graph):
        targets = [0, 1]
        block = BlockCandidateSet.start(60, block_size=64, seed=9)
        engine = SurrogateEngine.create(
            sparse.csr_matrix(small_ba_graph.adjacency), targets, block,
        )
        refreshed = block.refresh([], engine)
        assert refreshed.draw == block.draw + 1
        assert not _same_pairs(refreshed, block)  # the low-gradient half left
        assert len(refreshed) <= 64

    def test_flipped_pairs_survive_many_refreshes(self, small_ba_graph):
        targets = [0, 1]
        block = BlockCandidateSet.start(60, block_size=64, seed=2)
        engine = SurrogateEngine.create(
            sparse.csr_matrix(small_ba_graph.adjacency), targets, block,
        )
        pair = (int(block.rows[0]), int(block.cols[0]))
        engine.apply_flip(*pair)
        block = block.refresh([pair], engine)
        for _ in range(5):
            block = block.refresh([], engine)
            assert pair in block.pair_set()
            assert block.flipped == frozenset({pair})


class TestLineage:
    def test_survivors_map_and_evicted_get_minus_one(self, small_ba_graph):
        old = BlockCandidateSet.start(60, block_size=64, seed=9)
        engine = SurrogateEngine.create(
            sparse.csr_matrix(small_ba_graph.adjacency), [0, 1], old,
        )
        new = old.refresh([], engine)
        assert new.lineage.parent() is old
        kept = new.lineage.kept
        assert kept.size == len(old)
        assert 0 < kept.sum() < len(old)  # the low-gradient half left
        # carried pairs land where their keys are; evicted ones are gone
        carried = new.lineage.carry(np.arange(len(old)), -1)
        assert np.array_equal(carried[carried >= 0], np.flatnonzero(kept))
        assert np.array_equal(new.keys[carried >= 0], old.keys[kept])
        assert np.array_equal(new.keys, new.rows * 60 + new.cols)
        evicted = set(zip(old.rows[~kept].tolist(), old.cols[~kept].tolist()))
        assert not evicted & new.pair_set()

    @pytest.mark.parametrize("strategy", ["adaptive_gradient", "block"])
    def test_a_pickled_refresh_carries_no_lineage(self, small_ba_graph, strategy):
        """A lineage names a live parent set of this process, so a pickled
        refreshed set drops it; an engine handed the copy reads every pair."""
        adjacency = sparse.csr_matrix(small_ba_graph.adjacency)
        if strategy == "adaptive_gradient":
            old, flips = AdaptiveCandidateSet.start(60, [0]), [(0, 7)]
        else:
            old, flips = BlockCandidateSet.start(60, block_size=64, seed=9), []
        engine = SurrogateEngine.create(adjacency, [0, 1], old)
        new = old.refresh(flips, engine)
        if strategy == "block":
            assert not new.lineage.kept.all()  # the refresh evicted pairs
        copy = pickle.loads(pickle.dumps(new))
        assert type(copy) is type(new) and copy.lineage is None
        for field in ("rows", "cols", "keys"):
            assert np.array_equal(getattr(copy, field), getattr(new, field))
        engine.set_candidates(copy)
        fresh = SurrogateEngine.create(adjacency, [0, 1], new)
        assert np.array_equal(engine.edge_values, fresh.edge_values)

    def test_adopt_refresh_carries_state_and_repoints_the_engine(
        self, small_ba_graph, migrated_by_key
    ):
        old = BlockCandidateSet.start(60, block_size=64, seed=9)
        engine = SurrogateEngine.create(
            sparse.csr_matrix(small_ba_graph.adjacency), [0, 1], old,
        )
        flip = (int(old.rows[3]), int(old.cols[3]))
        engine.apply_flip(*flip)
        new = old.refresh([flip], engine)
        state = np.arange(1.0, len(old) + 1.0)
        migrated = adopt_refresh(engine, new, state, -1.0)
        assert np.array_equal(migrated, migrated_by_key(old, new, state, -1.0))
        assert flip in new.pair_set()
        assert np.array_equal(engine.rows, new.rows)
        assert np.array_equal(engine.cols, new.cols)

    def test_a_flip_outside_the_block_joins_it(self, small_ba_graph, migrated_by_key):
        old = BlockCandidateSet.start(60, block_size=64, seed=9)
        engine = SurrogateEngine.create(
            sparse.csr_matrix(small_ba_graph.adjacency), [0, 1], old,
        )
        flip = next(
            (u, v) for u in range(60) for v in range(u + 1, 60)
            if (u, v) not in old.pair_set()
        )
        new = old.refresh([flip], engine)
        assert flip in new.pair_set() and len(new) <= 64
        state = np.arange(1.0, len(old) + 1.0)
        assert np.array_equal(
            new.lineage.carry(state, -1.0), migrated_by_key(old, new, state, -1.0)
        )
        assert new.lineage.carry(state, -1.0)[new.keys == flip[0] * 60 + flip[1]] == -1.0


class TestBlockSequenceBackendParity:
    """Identical seeds must reproduce identical candidate sequences no
    matter which engine configuration evaluates the gradients."""

    def test_dense_and_sparse_sequences_are_identical(self, small_ba_graph):
        targets = [0, 1, 2]
        dense = _drive_schedule(
            small_ba_graph, targets, block_size=128, seed=5, oracle=True
        )
        fast = _drive_schedule(small_ba_graph, targets, block_size=128, seed=5)
        for (r_a, c_a), (r_b, c_b) in zip(dense, fast):
            assert np.array_equal(r_a, r_b)
            assert np.array_equal(c_a, c_b)

    def test_numpy_and_compiled_sequences_are_identical(
        self, small_ba_graph, use_kernels
    ):
        targets = [0, 1, 2]
        use_kernels("numpy")
        ref = _drive_schedule(small_ba_graph, targets, block_size=128, seed=5)
        use_kernels("compiled")
        fast = _drive_schedule(small_ba_graph, targets, block_size=128, seed=5)
        for (r_a, c_a), (r_b, c_b) in zip(ref, fast):
            assert np.array_equal(r_a, r_b)
            assert np.array_equal(c_a, c_b)

    def test_same_seed_reruns_identically_and_seeds_differ(self, small_ba_graph):
        targets = [0, 1, 2]
        first = _drive_schedule(small_ba_graph, targets, block_size=128, seed=7)
        again = _drive_schedule(small_ba_graph, targets, block_size=128, seed=7)
        other = _drive_schedule(small_ba_graph, targets, block_size=128, seed=8)
        for (r_a, c_a), (r_b, c_b) in zip(first, again):
            assert np.array_equal(r_a, r_b)
            assert np.array_equal(c_a, c_b)
        assert any(
            not np.array_equal(r_a, r_b)
            for (r_a, _), (r_b, _) in zip(first, other)
        )


class TestBlockDegenerateParity:
    """``block`` with block_size ≥ n(n−1)/2 must select bit-identical flips
    to ``full`` for every attack in ``ATTACK_REGISTRY`` — the anchor
    that makes sub-full blocks a pure memory/quality trade.  The test is
    parametrised over the registry, so a new attack without a case in
    ``CASES`` fails, by name."""

    #: Registry name -> (attack class, parameters, runs on an engine).
    #: Engine attacks size their own block (``block_size=10**9``) and run
    #: on the dense oracle or their sparse engine; the baselines take no
    #: block parameters, so they get a degenerate set, on the dense
    #: adjacency or its CSR.
    CASES = {
        "binarizedattack": (BinarizedAttack, {"iterations": 12}, True),
        "gradmaxsearch": (GradMaxSearch, {}, True),
        "continuousa": (ContinuousA, {"max_iter": 12}, True),
        "random": (RandomAttack, {"rng": 13}, False),
        "oddball-heuristic": (OddBallHeuristic, {"rng": 13}, False),
    }

    @pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_registered_attack_matches_full(self, graph_and_targets, name, backend):
        assert name in self.CASES, (
            f"attack {name!r} is in ATTACK_REGISTRY but has no "
            "degenerate-block case in TestBlockDegenerateParity.CASES"
        )
        attack_cls, params, uses_engine = self.CASES[name]
        assert attack_cls is ATTACK_REGISTRY[name]
        graph, targets = graph_and_targets
        targets = targets[:3]
        if uses_engine:
            def run(candidates, **extra):
                engine = (
                    DenseSurrogateEngine(graph, targets)
                    if backend == "dense" else None
                )
                return attack_cls(**extra, **params).attack(
                    graph, targets, 4, candidates=candidates, engine=engine
                )

            full = run("full")
            block = run("block", block_size=10**9)
        else:
            n = graph.number_of_nodes
            degenerate = BlockCandidateSet.start(n, block_size=_total(n))
            assert degenerate.is_full  # so the heuristic skips membership tests
            adjacency = (
                graph.adjacency if backend == "dense"
                else sparse.csr_matrix(graph.adjacency)
            )
            full = attack_cls(**params).attack(
                adjacency, targets, 4, candidates="full"
            )
            block = attack_cls(**params).attack(
                adjacency, targets, 4, candidates=degenerate
            )
        assert block.flips_by_budget == full.flips_by_budget
        assert block.surrogate_by_budget == full.surrogate_by_budget

    def test_campaign_jobs_default_block_is_degenerate_at_small_n(
        self, graph_and_targets
    ):
        """At n=90 the budget-scaled default block covers the whole triangle,
        so ``candidates="block"`` campaign jobs — including the baselines,
        which take no block parameters — must reproduce ``full`` outcomes."""
        graph, targets = graph_and_targets
        specs = [
            ("gradmaxsearch", {}),
            ("binarizedattack", {"iterations": 12}),
            ("random", {"rng": 5}),
            ("oddball-heuristic", {"rng": 5}),
        ]
        full_jobs, block_jobs = (
            [
                grid_jobs(name, [targets[:2]], budgets=[3],
                          candidates=strategy, **params)[0]
                for name, params in specs
            ]
            for strategy in ("full", "block")
        )
        full_run = AttackCampaign(graph).run(full_jobs)
        block_run = AttackCampaign(graph).run(block_jobs)
        for a, b in zip(full_run, block_run):
            assert a.job_id != b.job_id  # the strategy is content-hashed
            assert a.flips_by_budget == b.flips_by_budget
            assert a.surrogate_by_budget == b.surrogate_by_budget


class TestBlockBoundedMemory:
    """The tentpole's memory contract: candidate state is O(block_size),
    independent of n."""

    def test_candidate_arrays_never_exceed_block_size(self, store, monkeypatch):
        recorded = []
        original = SparseSurrogateEngine.set_candidates

        def recording(self, candidates=None):
            original(self, candidates)
            recorded.append(int(self.rows.size))

        monkeypatch.setattr(SparseSurrogateEngine, "set_candidates", recording)
        targets = np.argsort(-store.degrees(), kind="stable")[:2].tolist()
        result = BinarizedAttack(
            iterations=8, block_size=96, block_seed=1
        ).attack(store.detached_csr(), targets, budget=4, candidates="block")
        assert recorded  # the refresh loop actually re-pointed the engine
        assert max(recorded) <= 96
        assert result.metadata["candidate_strategy"] == "block"
        assert result.metadata["decision_variables"] <= 96

    def test_worker_rss_does_not_scale_with_n(self, tmp_path):
        """A 9× pair-count increase must not move worker RSS by more than a
        fixed margin — far below the hundreds of MB full-pair decision
        arrays would add at the larger scale."""
        from repro.attacks import SchedulingCampaignExecutor
        from repro.store import build_store

        peaks = {}
        for scale in (2.0, 6.0):
            store = build_store(
                "blogcatalog", cache_dir=tmp_path, scale=scale, seed=11
            )
            targets = np.argsort(-store.degrees(), kind="stable")[:2]
            jobs = grid_jobs(
                "gradmaxsearch", [[int(t)] for t in targets], budgets=[2],
                candidates="block", block_size=8192,
            )
            executor = SchedulingCampaignExecutor(store, workers=2)
            executor.run(jobs)
            peaks[scale] = max(
                s["max_rss_kb"] for s in executor.last_worker_stats
            )
        assert peaks[2.0] > 0
        assert peaks[6.0] <= peaks[2.0] + 64 * 1024  # kB: flat, not O(n²)
