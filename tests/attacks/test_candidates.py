"""Tests for the CandidateSet abstraction."""

import numpy as np
import pytest
from scipy import sparse

from repro.attacks.candidates import CANDIDATE_STRATEGIES, CandidateSet
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.oddball.surrogate import DenseSurrogateEngine, SparseSurrogateEngine

ENGINES = {"dense": DenseSurrogateEngine, "sparse": SparseSurrogateEngine}

#: An ``admit_cap`` no refresh pool in these tests reaches: every pooled
#: pair is admitted.
UNCAPPED = 10**9


class TestFull:
    def test_matches_triu_order(self):
        candidate_set = CandidateSet.full(6)
        rows, cols = np.triu_indices(6, k=1)
        np.testing.assert_array_equal(candidate_set.rows, rows)
        np.testing.assert_array_equal(candidate_set.cols, cols)
        assert candidate_set.is_full
        assert candidate_set.density == 1.0
        assert len(candidate_set) == 15

    def test_trivial_sizes(self):
        assert len(CandidateSet.full(0)) == 0
        assert len(CandidateSet.full(1)) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CandidateSet.full(-1)


class TestTargetIncident:
    def test_every_pair_touches_a_target(self):
        candidate_set = CandidateSet.target_incident(8, [2, 5])
        for u, v in candidate_set.pairs():
            assert u in (2, 5) or v in (2, 5)

    def test_size_formula(self):
        n, t = 10, 3
        candidate_set = CandidateSet.target_incident(n, [0, 4, 7])
        assert len(candidate_set) == t * (n - 1) - t * (t - 1) // 2

    def test_sorted_canonical_unique(self):
        candidate_set = CandidateSet.target_incident(7, [6, 1])
        pairs = candidate_set.pairs()
        assert pairs == sorted(set(pairs))
        assert all(u < v for u, v in pairs)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CandidateSet.target_incident(5, [])

    def test_out_of_range_targets_rejected(self):
        with pytest.raises(ValueError, match="range"):
            CandidateSet.target_incident(5, [5])


class TestBuild:
    @pytest.mark.parametrize("strategy", CANDIDATE_STRATEGIES)
    def test_dispatch(self, small_er_graph, strategy):
        candidate_set = CandidateSet.build(strategy, small_er_graph, [0, 1])
        assert candidate_set.strategy == strategy
        assert candidate_set.n == small_er_graph.number_of_nodes
        assert len(candidate_set) > 0

    @pytest.mark.parametrize("strategy", CANDIDATE_STRATEGIES)
    def test_accepts_sparse_adjacency(self, small_er_graph, strategy):
        dense_set = CandidateSet.build(strategy, small_er_graph, [3])
        sparse_set = CandidateSet.build(
            strategy, sparse.csr_matrix(small_er_graph.adjacency), [3]
        )
        assert dense_set.pairs() == sparse_set.pairs()

    def test_unknown_strategy(self, small_er_graph):
        with pytest.raises(ValueError, match="unknown candidate strategy"):
            CandidateSet.build("everything", small_er_graph, [0])

    def test_targets_required_except_full(self, small_er_graph):
        assert CandidateSet.build("full", small_er_graph).is_full
        with pytest.raises(ValueError, match="requires a target set"):
            CandidateSet.build("target_incident", small_er_graph)

    def test_strategies_nest(self, small_ba_graph):
        """target_incident ⊆ full; both restrict what the attack may flip."""
        targets = [1, 4]
        full = CandidateSet.build("full", small_ba_graph, targets)
        incident = CandidateSet.build("target_incident", small_ba_graph, targets)
        assert set(incident.pairs()) <= set(full.pairs())
        assert len(incident) < len(full)


class TestFromPairsAndValidation:
    def test_canonicalises_and_deduplicates(self):
        candidate_set = CandidateSet.from_pairs(5, [(3, 1), (1, 3), (0, 4)])
        assert candidate_set.pairs() == [(0, 4), (1, 3)]

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CandidateSet.from_pairs(5, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            CandidateSet.from_pairs(3, [(0, 3)])

    def test_rejects_non_canonical_arrays(self):
        with pytest.raises(ValueError, match="canonical"):
            CandidateSet(n=4, rows=np.array([2]), cols=np.array([1]))

    def test_rejects_unsorted_arrays(self):
        with pytest.raises(ValueError, match="sorted"):
            CandidateSet(n=4, rows=np.array([0, 0]), cols=np.array([2, 1]))

    def test_membership(self):
        candidate_set = CandidateSet.from_pairs(5, [(1, 2)])
        assert (1, 2) in candidate_set
        assert (2, 1) in candidate_set  # canonicalised lookup
        assert (0, 1) not in candidate_set


class TestGradientGrowth:
    """AdaptiveCandidateSet: admissions ranked by the engine's predicted
    |dL/dA|, capped per refresh, superset invariant held."""

    def _engine(self, graph, targets, candidate_set):
        from repro.oddball.surrogate import SurrogateEngine

        return SurrogateEngine.create(graph.adjacency_view, targets, candidate_set)

    def _setup(self):
        from repro.attacks.candidates import AdaptiveCandidateSet
        from repro.graph.generators import barabasi_albert

        graph = barabasi_albert(200, 8, rng=9)
        targets = [0, 1]
        candidate_set = AdaptiveCandidateSet.start(200, targets)
        return graph, targets, candidate_set

    def test_strategy_name_registered(self):
        from repro.attacks.candidates import (
            CANDIDATE_STRATEGIES,
            CandidateSet,
        )
        from repro.graph.generators import erdos_renyi

        assert "adaptive_gradient" in CANDIDATE_STRATEGIES
        graph = erdos_renyi(30, 0.2, rng=0)
        built = CandidateSet.build("adaptive_gradient", graph, [1, 2])
        assert built.strategy == "adaptive_gradient"

    def test_starts_as_exact_target_incident(self):
        _, targets, candidate_set = self._setup()
        base = CandidateSet.target_incident(200, targets)
        assert candidate_set.pairs() == base.pairs()

    def test_refresh_is_superset_of_previous_and_base(self, migrated_by_key):
        graph, targets, candidate_set = self._setup()
        engine = self._engine(graph, targets, candidate_set)
        base_pairs = set(CandidateSet.target_incident(200, targets).pairs())
        current = candidate_set
        for flip in [(5, 30), (30, 77), (77, 101)]:
            engine.apply_flip(*flip)
            grown = current.refresh([flip], engine)
            assert grown is not current
            assert base_pairs <= set(grown.pairs())
            assert set(current.pairs()) <= set(grown.pairs())
            # the recorded lineage (the attack-state contract) keeps every
            # pair of the previous set, and carries state exactly as a
            # migration by key search does
            assert grown.lineage.parent() is current
            assert grown.lineage.kept is None
            state = np.arange(1.0, len(current) + 1.0)
            assert np.array_equal(
                grown.lineage.carry(state, -1.0),
                migrated_by_key(current, grown, state, -1.0),
            )
            assert np.array_equal(grown.keys, grown.rows * 200 + grown.cols)
            current = grown

    def test_admissions_capped_and_gradient_ranked(self):
        from repro.attacks.candidates import AdaptiveCandidateSet

        graph, targets, candidate_set = self._setup()
        engine = self._engine(graph, targets, candidate_set)
        # flip to a hub so the admission pool exceeds the cap
        degrees = engine.degrees()
        hub = int(np.argmax(degrees))
        if hub in (0, 1):
            hub = int(np.argsort(-degrees)[2])
        engine.apply_flip(0, hub)
        grown = candidate_set.refresh([(0, hub)], engine)
        added = set(grown.pairs()) - set(candidate_set.pairs())
        cap = candidate_set.admit_cap
        assert 0 < len(added) <= cap
        # an uncapped refresh over the same pool admits strictly more
        uncapped_grown = AdaptiveCandidateSet.start(
            200, targets, admit_cap=UNCAPPED
        ).refresh([(0, hub)], engine)
        pool = set(uncapped_grown.pairs()) - set(candidate_set.pairs())
        assert added < pool
        # the admitted pairs are exactly the top-|gradient| slice of the pool
        pool_pairs = sorted(pool)
        rows = np.array([u for u, _ in pool_pairs], dtype=np.intp)
        cols = np.array([v for _, v in pool_pairs], dtype=np.intp)
        magnitude = np.abs(engine.pair_gradient(rows, cols))
        keys = rows * candidate_set.n + cols
        order = np.lexsort((keys, -magnitude))
        expected = {
            (int(rows[k]), int(cols[k])) for k in order[:cap]
        }
        assert added == expected

    def test_refresh_without_engine_raises(self):
        _, _, candidate_set = self._setup()
        with pytest.raises(ValueError, match="engine"):
            candidate_set.refresh([(5, 30)])

    def test_pair_gradient_backends_agree(self):
        from repro.graph.generators import erdos_renyi

        graph = erdos_renyi(40, 0.15, rng=2)
        targets = [3, 7]
        rows = np.array([0, 2, 5], dtype=np.intp)
        cols = np.array([9, 11, 30], dtype=np.intp)
        dense = DenseSurrogateEngine(graph.adjacency_view, targets)
        sparse_engine = SparseSurrogateEngine(
            graph.adjacency_view, targets,
            (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)),
        )
        np.testing.assert_allclose(
            dense.pair_gradient(rows, cols),
            sparse_engine.pair_gradient(rows, cols),
            rtol=1e-9, atol=1e-12,
        )


def _reference_adaptive_refresh(candidate_set, flips, engine):
    """The set-of-tuples refresh the sorted-key one replaced, in plain Python.

    Returns the grown set's pair list and ball.  A pool larger than
    ``admit_cap`` is ranked by (−|∂L/∂A|, key) and its first ``admit_cap``
    admitted.
    """
    n = candidate_set.n
    new_nodes = sorted(
        {int(w) for pair in flips for w in pair} - candidate_set.ball
    )
    existing = set(candidate_set.pairs())
    if not new_nodes:
        return sorted(existing), candidate_set.ball
    ball = set(candidate_set.ball)
    additions = set()
    for w in new_nodes:
        partners = set(int(x) for x in engine.neighbors(w)) | ball
        partners.discard(w)
        additions.update((w, x) if w < x else (x, w) for x in partners)
        ball.add(w)
    pool = sorted(additions - existing)
    if len(pool) > candidate_set.admit_cap:
        rows = np.array([u for u, _ in pool], dtype=np.intp)
        cols = np.array([v for _, v in pool], dtype=np.intp)
        magnitude = np.abs(engine.pair_gradient(rows, cols)).tolist()
        ranked = sorted(
            range(len(pool)),
            key=lambda k: (-magnitude[k], pool[k][0] * n + pool[k][1]),
        )
        pool = [pool[k] for k in ranked[: candidate_set.admit_cap]]
    return sorted(existing | set(pool)), frozenset(ball)


class TestAdaptiveRefreshOracle:
    """The sorted-key adaptive refresh admits exactly what the set-of-tuples
    reference admits, on random graphs, with a pool capped by ``admit_cap``
    and an uncapped one, on the sparse engine and on the dense oracle."""

    GRAPHS = {
        "ba": lambda seed: barabasi_albert(150, 6, rng=seed),
        "er": lambda seed: erdos_renyi(120, 0.08, rng=seed),
    }

    def _start(self, graph, targets, backend, admit_cap):
        from repro.attacks.candidates import AdaptiveCandidateSet

        candidate_set = AdaptiveCandidateSet.start(
            graph.number_of_nodes, targets, admit_cap=admit_cap
        )
        engine = ENGINES[backend](
            graph.adjacency_view, targets, (candidate_set.rows, candidate_set.cols)
        )
        return candidate_set, engine

    def _check(self, candidate_set, flips, engine):
        expected_pairs, expected_ball = _reference_adaptive_refresh(
            candidate_set, flips, engine
        )
        grown = candidate_set.refresh(flips, engine)
        assert grown.pairs() == expected_pairs
        assert grown.ball == expected_ball
        assert type(grown.ball) is frozenset
        assert (grown.admit_cap, grown.strategy) == (
            candidate_set.admit_cap, candidate_set.strategy
        )
        return grown

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("kind", ["ba", "er"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_landed_lists_match_reference(self, kind, seed, capped, backend):
        graph = self.GRAPHS[kind](seed)
        n = graph.number_of_nodes
        rng = np.random.default_rng(seed)
        targets = sorted(int(t) for t in rng.choice(n, 2, replace=False))
        current, engine = self._start(
            graph, targets, backend, admit_cap=8 if capped else UNCAPPED
        )
        for _ in range(4):
            a, b, c, d = (int(x) for x in rng.choice(n, 4, replace=False))
            landed_lists = [
                [(a, b), (c, d)],          # two flips, four new endpoints
                [(a, c), (a, d)],          # a repeated endpoint
                [(targets[0], b)],         # one endpoint already in the ball
                [],                        # an iterate that landed nothing
                [(targets[0], targets[1])],  # every endpoint in the ball
            ]
            for landed in landed_lists:
                for u, v in landed:
                    engine.apply_flip(u, v)
                grown = self._check(current, landed, engine)
                if not landed or set(np.ravel(landed)) <= current.ball:
                    assert grown is current
                else:
                    engine.set_candidates(grown)
                current = grown

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    def test_hub_and_leaf_entrants(self, capped, backend):
        graph = self.GRAPHS["ba"](4)
        degrees = graph.adjacency.sum(axis=1)
        order = np.argsort(-degrees, kind="stable")
        hub, leaf = int(order[0]), int(order[-1])
        targets = [t for t in (int(x) for x in order[40:]) if t != leaf][:2]
        candidate_set, engine = self._start(
            graph, targets, backend, admit_cap=16 if capped else UNCAPPED
        )
        # the hub's pool exceeds the cap; the leaf's stays below it
        assert degrees[hub] > 16 + len(targets)
        assert degrees[leaf] + len(targets) + 1 < 16
        engine.apply_flip(targets[0], leaf)
        after_leaf = self._check(candidate_set, [(targets[0], leaf)], engine)
        added = len(after_leaf) - len(candidate_set)
        assert 0 < added < 16
        engine.apply_flip(targets[1], hub)
        after_hub = self._check(after_leaf, [(targets[1], hub)], engine)
        added = len(after_hub) - len(after_leaf)
        assert added == 16 if capped else added > 16

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_pool_at_the_cap_boundary(self, backend):
        from repro.attacks.candidates import AdaptiveCandidateSet

        graph = self.GRAPHS["er"](5)
        targets, flip = [3, 40], (3, 77)
        candidate_set, engine = self._start(graph, targets, backend, UNCAPPED)
        engine.apply_flip(*flip)
        pool = len(candidate_set.refresh([flip], engine)) - len(candidate_set)
        assert pool > 2
        for cap in (pool - 1, pool, pool + 1):
            capped = AdaptiveCandidateSet.start(
                graph.number_of_nodes, targets, admit_cap=cap
            )
            grown = self._check(capped, [flip], engine)
            assert len(grown) - len(capped) == min(cap, pool)


def _reference_block_keys(n, count, seed, draw):
    """``count`` sampled pair keys via ``np.unique`` and ``np.triu_indices``."""
    total = n * (n - 1) // 2
    rng = np.random.default_rng([seed, draw])
    ranks = np.unique(rng.integers(0, total, size=count, dtype=np.int64))
    rows, cols = np.triu_indices(n, k=1)
    return rows[ranks].astype(np.int64) * n + cols[ranks]


def _reference_block_refresh(block, flips, engine):
    """The ``union1d``/``setdiff1d`` block refresh, as (keys, flipped)."""
    n = block.n
    flipped = set(block.flipped)
    for u, v in flips:
        flipped.add((min(u, v), max(u, v)))
    keys = block.rows * n + block.cols
    magnitude = np.abs(engine.pair_gradient(block.rows, block.cols))
    kept = keys[np.lexsort((keys, -magnitude))[: min(block.block_size // 2, keys.size)]]
    if flipped:
        kept = np.union1d(kept, [u * n + v for u, v in flipped])
    else:
        kept = np.sort(kept)
    refill = block.block_size - kept.size
    if refill > 0:
        fresh = _reference_block_keys(n, refill, block.seed, block.draw + 1)
        fresh = np.setdiff1d(fresh, kept, assume_unique=True)
        kept = np.union1d(kept, fresh[:refill])
    return kept, frozenset(flipped)


class TestBlockRefreshOracle:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_five_draws_match_reference(self, seed, backend):
        from repro.attacks.candidates import BlockCandidateSet

        graph = erdos_renyi(90, 0.08, rng=seed)
        n, targets = graph.number_of_nodes, [2, 11]
        block = BlockCandidateSet.start(n, block_size=300, seed=seed)
        np.testing.assert_array_equal(
            block.rows * n + block.cols, _reference_block_keys(n, 300, seed, 0)
        )
        engine = ENGINES[backend](
            graph.adjacency_view, targets, (block.rows, block.cols)
        )
        rng = np.random.default_rng(seed)
        for step in range(5):
            # flips are block members: none, one, then two per refresh
            picks = rng.choice(len(block), step % 3, replace=False)
            flips = [(int(block.rows[k]), int(block.cols[k])) for k in picks]
            for u, v in flips:
                engine.apply_flip(u, v)
            expected_keys, expected_flipped = _reference_block_refresh(
                block, flips, engine
            )
            block = block.refresh(flips, engine)
            np.testing.assert_array_equal(block.rows * n + block.cols, expected_keys)
            assert block.flipped == expected_flipped
            assert block.draw == step + 1
            engine.set_candidates(block)
