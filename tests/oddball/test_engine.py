"""Engine-parity suite: the dense autograd oracle and the sparse-incremental
:class:`~repro.oddball.surrogate.SurrogateEngine` every attack runs on must
agree on losses (bit-for-bit), gradients (to round-off) and every
state-management primitive (apply → rollback returns features to exact
integer state).

The dense oracle is the historical reference, the sparse engine is what
unlocks 10k+-node graphs — and nothing may drift between them.
"""

import inspect

import numpy as np
import pytest
from scipy import sparse

from invariant_guards import forbid_densify

from repro import telemetry
from repro.attacks.candidates import CandidateSet
from repro.graph.features import egonet_features
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.oddball.detector import OddBall
from repro.oddball.surrogate import (
    DenseSurrogateEngine,
    SparseSurrogateEngine,
    SurrogateEngine,
    surrogate_loss_numpy,
)
from repro.telemetry import tracer as tracer_module

ENGINES = {"dense": DenseSurrogateEngine, "sparse": SparseSurrogateEngine}


def _graphs():
    return [
        barabasi_albert(60, 3, rng=11),
        erdos_renyi(50, 0.15, rng=7),
    ]


def _targets(graph, k=3):
    return OddBall().analyze(graph).top_k(k).tolist()


@pytest.fixture(params=range(2), ids=["ba60", "er50"])
def graph_and_targets(request):
    graph = _graphs()[request.param]
    return graph, _targets(graph)


@pytest.fixture(params=["full", "target_incident", "neighbour_pairs"])
def engine_pair(request, graph_and_targets, neighbour_pair_set):
    """(dense engine, sparse engine) over the same graph/targets/candidates."""
    graph, targets = graph_and_targets
    if request.param == "neighbour_pairs":
        candidate_set = neighbour_pair_set(graph, targets)
    else:
        candidate_set = CandidateSet.build(request.param, graph, targets)
    dense = DenseSurrogateEngine(graph, targets, candidate_set)
    sparse_eng = SurrogateEngine.create(graph, targets, candidate_set)
    return dense, sparse_eng


def _public_api(cls):
    """Public member name -> parameter names (``None`` for non-callables)."""
    api = {}
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        try:
            api[name] = list(inspect.signature(member).parameters)
        except (TypeError, ValueError):  # not callable, or no signature
            api[name] = None
    return api


_DENSE_API = _public_api(DenseSurrogateEngine)
_SPARSE_API = _public_api(SparseSurrogateEngine)


@pytest.mark.parametrize("member", sorted(_DENSE_API.keys() | _SPARSE_API.keys()))
def test_engines_expose_one_public_api(member):
    """The dense oracle and the sparse engine are substitutable: the same
    public members, and the same parameter names on every shared method."""
    assert member in _DENSE_API, "on SparseSurrogateEngine only"
    assert member in _SPARSE_API, "on DenseSurrogateEngine only"
    assert _DENSE_API[member] == _SPARSE_API[member], "signatures diverge"


class TestBackendResolution:
    def test_auto_small_dense_graph_is_sparse(self, small_ba_graph):
        assert isinstance(
            SurrogateEngine.create(small_ba_graph, [0]), SparseSurrogateEngine
        )
        assert isinstance(
            SurrogateEngine.create(small_ba_graph.adjacency, [0]),
            SparseSurrogateEngine,
        )

    def test_auto_sparse_input_is_sparse(self, small_ba_graph):
        csr = sparse.csr_matrix(small_ba_graph.adjacency)
        assert isinstance(SurrogateEngine.create(csr, [0]), SparseSurrogateEngine)

    def test_create_takes_no_backend(self, graph_and_targets):
        graph, targets = graph_and_targets
        for backend in ("dense", "sparse", "auto"):
            with pytest.raises(TypeError, match="backend"):
                SurrogateEngine.create(graph, targets, backend=backend)


class TestLossParity:
    def test_current_loss_bit_identical(self, engine_pair):
        dense, sparse_eng = engine_pair
        assert dense.current_loss() == sparse_eng.current_loss()

    def test_current_loss_matches_numpy_reference(self, graph_and_targets):
        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(graph, targets)
        assert engine.current_loss() == surrogate_loss_numpy(graph.adjacency, targets)

    def test_score_flips_bit_identical(self, engine_pair):
        dense, sparse_eng = engine_pair
        flips = [
            (int(dense.rows[k]), int(dense.cols[k]))
            for k in range(0, len(dense.rows), max(1, len(dense.rows) // 5))
        ][:4]
        assert dense.score_flips(flips) == sparse_eng.score_flips(flips)

    def test_score_prefixes_bit_identical(self, engine_pair):
        dense, sparse_eng = engine_pair
        flips = [(int(dense.rows[k]), int(dense.cols[k])) for k in range(3)]
        assert dense.score_prefixes(flips) == sparse_eng.score_prefixes(flips)

    def test_weighted_targets_parity(self, graph_and_targets):
        graph, targets = graph_and_targets
        weights = [2.0, 1.0, 0.5]
        dense = DenseSurrogateEngine(graph, targets, weights=weights)
        sparse_eng = SurrogateEngine.create(graph, targets, weights=weights)
        assert dense.current_loss() == sparse_eng.current_loss()


class TestGradientParity:
    def test_binarized_step_parity(self, engine_pair):
        dense, sparse_eng = engine_pair
        rng = np.random.default_rng(0)
        zdot = rng.uniform(0.0, 1.0, size=len(dense.rows))
        dense_loss, dense_grad, dense_mask = dense.binarized_step(zdot)
        sparse_loss, sparse_grad, sparse_mask = sparse_eng.binarized_step(zdot)
        assert dense_loss == sparse_loss  # feature maintenance is exact
        np.testing.assert_array_equal(dense_mask, sparse_mask)
        np.testing.assert_allclose(sparse_grad, dense_grad, rtol=1e-8, atol=1e-9)

    def test_binarized_step_all_zero_is_clean_graph(self, engine_pair):
        dense, sparse_eng = engine_pair
        zdot = np.zeros(len(dense.rows))
        for engine in (dense, sparse_eng):
            loss, _, mask = engine.binarized_step(zdot)
            assert not mask.any()
            assert loss == engine.current_loss()

    def test_binarized_step_returns_a_fresh_gradient(self, engine_pair, tmp_path):
        """The gradient ``binarized_step`` returns is the caller's to
        modify: no call may hand out an array the engine keeps, so mutating
        one step's gradient must leave a repeat of the same iterate intact,
        on the sparse engine a memo hit."""
        rng = np.random.default_rng(2)
        zdot = rng.uniform(0.0, 1.0, size=len(engine_pair[0].rows))
        telemetry.configure(tmp_path / "trace")
        try:
            for engine in engine_pair:
                gradient = engine.binarized_step(zdot)[1]
                original = gradient.copy()
                gradient += 1.0
                repeat = engine.binarized_step(zdot)[1]
                assert repeat.tobytes() == original.tobytes()
        finally:
            telemetry.shutdown()
            tracer_module._RESOLVED = False
        reused = sum(
            record["count"] for record in telemetry.load_trace_dir(tmp_path / "trace")
            if record["kind"] == "counter"
            and record["name"] == "oddball.binarized_step.reused"
        )
        assert reused == 1  # the sparse engine's repeat; the dense oracle has no memo

    def test_relaxed_step_parity(self, engine_pair):
        dense, sparse_eng = engine_pair
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 1.0, size=len(dense.rows))
        dense_loss, dense_grad = dense.relaxed_step(values)
        sparse_loss, sparse_grad = sparse_eng.relaxed_step(values)
        assert sparse_loss == pytest.approx(dense_loss, rel=1e-9)
        np.testing.assert_allclose(sparse_grad, dense_grad, rtol=1e-7, atol=1e-8)

    def test_candidate_gradient_parity(self, engine_pair):
        dense, sparse_eng = engine_pair
        np.testing.assert_allclose(
            sparse_eng.candidate_gradient(),
            dense.candidate_gradient(),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_candidate_gradient_after_permanent_flips(self, engine_pair):
        dense, sparse_eng = engine_pair
        flips = [(int(dense.rows[k]), int(dense.cols[k])) for k in (0, 2)]
        for engine in (dense, sparse_eng):
            for u, v in flips:
                engine.apply_flip(u, v)
        assert dense.current_loss() == sparse_eng.current_loss()
        np.testing.assert_allclose(
            sparse_eng.candidate_gradient(),
            dense.candidate_gradient(),
            rtol=1e-8,
            atol=1e-10,
        )


class TestRollbackExactness:
    def test_binarized_step_leaves_state_untouched(self, graph_and_targets):
        """apply → score → rollback must return features to exact integers."""
        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(graph, targets)
        n_before, e_before = engine._features.features()
        rng = np.random.default_rng(2)
        for _ in range(5):
            zdot = rng.uniform(0.0, 1.0, size=len(engine.rows))
            engine.binarized_step(zdot)
        n_after, e_after = engine._features.features()
        np.testing.assert_array_equal(n_before, n_after)
        np.testing.assert_array_equal(e_before, e_after)
        n_ref, e_ref = egonet_features(graph.adjacency)
        np.testing.assert_array_equal(n_after, n_ref)
        np.testing.assert_array_equal(e_after, e_ref)

    def test_score_flips_restores_loss(self, engine_pair):
        for engine in engine_pair:
            before = engine.current_loss()
            flips = [(int(engine.rows[k]), int(engine.cols[k])) for k in range(4)]
            engine.score_flips(flips)
            assert engine.current_loss() == before

    def test_push_pop_roundtrip(self, engine_pair):
        for engine in engine_pair:
            u, v = int(engine.rows[0]), int(engine.cols[0])
            was_edge = engine.is_edge(u, v)
            engine.push_flip(u, v)
            assert engine.is_edge(u, v) != was_edge
            engine.pop_flips(1)
            assert engine.is_edge(u, v) == was_edge

    def test_filter_flips_engine_parity(self, engine_pair):
        from repro.attacks.constraints import filter_valid_flips_engine

        dense, sparse_eng = engine_pair
        candidates = [
            (int(dense.rows[k]), int(dense.cols[k])) for k in range(len(dense.rows))
        ][:40]
        assert filter_valid_flips_engine(dense, candidates, limit=6) == (
            filter_valid_flips_engine(sparse_eng, candidates, limit=6)
        )
        # and the filter left both engines untouched
        assert dense.current_loss() == sparse_eng.current_loss()

    def test_filter_flips_engine_matches_dense_reference(self, graph_and_targets):
        from repro.attacks.constraints import filter_valid_flips, filter_valid_flips_engine

        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(graph, targets)
        candidates = [
            (int(engine.rows[k]), int(engine.cols[k]))
            for k in range(0, len(engine.rows), 7)
        ]
        reference = filter_valid_flips(graph.adjacency, candidates, limit=5)
        assert filter_valid_flips_engine(engine, candidates, limit=5) == reference


class TestValidation:
    def test_rejects_bad_floor(self, graph_and_targets):
        graph, targets = graph_and_targets
        with pytest.raises(ValueError, match="floor"):
            SurrogateEngine.create(graph, targets, floor=0.0)

    def test_rejects_out_of_range_candidates(self, graph_and_targets):
        graph, targets = graph_and_targets
        n = graph.number_of_nodes
        rows = np.array([0], dtype=np.intp)
        cols = np.array([n + 3], dtype=np.intp)
        with pytest.raises(ValueError, match="out of range"):
            DenseSurrogateEngine(graph, targets, (rows, cols))

    def test_rejects_bad_targets(self, graph_and_targets):
        graph, _ = graph_and_targets
        with pytest.raises(ValueError, match="target"):
            SurrogateEngine.create(graph, [])

    def test_sparse_input_never_densified(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        with forbid_densify(context="sparse engine construction"):
            engine = SurrogateEngine.create(csr, targets)
            assert isinstance(engine, SparseSurrogateEngine)
            loss = engine.current_loss()
        assert loss == surrogate_loss_numpy(csr, targets)

    def test_sparse_engine_lifecycle_never_densifies(self, engine_pair):
        """The full sparse-engine lifecycle — loss, scoring, gradient steps,
        apply/rollback — runs under the densify tripwire and stays
        bit-identical to the dense reference computed outside the guard."""
        dense, sparse_eng = engine_pair
        flips = [(int(dense.rows[k]), int(dense.cols[k])) for k in range(3)]
        rng = np.random.default_rng(4)
        zdot = rng.uniform(0.0, 1.0, size=len(dense.rows))
        dense_loss, dense_grad, dense_mask = dense.binarized_step(zdot)
        with forbid_densify(context="sparse engine lifecycle"):
            assert sparse_eng.current_loss() == dense.current_loss()
            assert sparse_eng.score_flips(flips) == dense.score_flips(flips)
            sparse_loss, sparse_grad, sparse_mask = sparse_eng.binarized_step(zdot)
            sparse_eng.push_flip(*flips[0])
            sparse_eng.pop_flips(1)
            assert sparse_eng.current_loss() == dense.current_loss()
        assert sparse_loss == dense_loss
        np.testing.assert_array_equal(sparse_mask, dense_mask)
        np.testing.assert_allclose(sparse_grad, dense_grad, rtol=1e-8, atol=1e-9)


def _fractional(engine, seed, support=None):
    """Flip fractions strictly inside (0, 1) on ``support`` random pairs
    (default: every pair), 0 elsewhere."""
    rng = np.random.default_rng(seed)
    size = len(engine.rows)
    picked = rng.choice(size, size=min(support or size, size), replace=False)
    flips = np.zeros(size)
    flips[picked] = rng.uniform(0.1, 0.9, size=picked.size)
    return flips


class TestRelaxedStep:
    """ContinuousA's ``relaxed_step``: the sparse engine's CSR evaluation
    against the autograd oracle, its answers across graph changes, and
    the gradient against the exact loss."""

    @pytest.mark.parametrize("strategy", ["full", "target_incident"])
    def test_matches_dense_oracle(self, graph_and_targets, strategy):
        """On a 200-pair support and with every pair fractional.  The
        all-pair ``full`` input is ill-conditioned: every degree sits near
        n/2, so the log-log fit turns one-ulp feature noise into up to
        ~2e-10 of relative loss, and its 1e-12 agreement holds for this
        draw, not for every draw."""
        graph, targets = graph_and_targets
        candidate_set = CandidateSet.build(strategy, graph, targets)
        dense = DenseSurrogateEngine(graph, targets, candidate_set)
        sparse_eng = SurrogateEngine.create(graph, targets, candidate_set)
        for support in (200, None):
            flips = _fractional(dense, 5, support)
            ref_loss, ref_grad = dense.relaxed_step(flips)
            loss, grad = sparse_eng.relaxed_step(flips)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-7, atol=1e-8)

    def test_zero_fractions_are_the_current_graph(self, engine_pair):
        for engine in engine_pair:
            engine.apply_flip(int(engine.rows[0]), int(engine.cols[0]))
            loss, _ = engine.relaxed_step(np.zeros(len(engine.rows)))
            assert loss == engine.current_loss()

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("strategy", ["full", "target_incident"])
    def test_cache_follows_graph_changes(self, graph_and_targets, backend, strategy):
        """After apply_flip, restore and retarget, relaxed_step answers for
        the current graph and candidates, exactly as a fresh engine does."""
        graph, targets = graph_and_targets
        candidate_set = CandidateSet.build(strategy, graph, targets)
        engine = ENGINES[backend](graph, targets, candidate_set)

        def current_graph():
            adjacency = graph.adjacency.copy()
            for u, v in engine._flip_log():
                adjacency[u, v] = adjacency[v, u] = 1.0 - adjacency[u, v]
            return adjacency

        def assert_fresh(targets, candidates):
            values = _fractional(engine, 6)
            loss, grad = engine.relaxed_step(values)
            fresh = ENGINES[backend](current_graph(), targets, candidates)
            fresh_loss, fresh_grad = fresh.relaxed_step(values)
            assert loss == fresh_loss
            np.testing.assert_array_equal(grad, fresh_grad)

        assert_fresh(targets, candidate_set)  # before any graph change
        token = engine.checkpoint()
        pairs = set(zip(engine.rows.tolist(), engine.cols.tolist()))
        flips = [(int(engine.rows[0]), int(engine.cols[0]))]
        outside = [
            (u, v) for u in range(engine.n) for v in range(u + 1, engine.n)
            if (u, v) not in pairs
        ]
        flips += outside[:2]  # non-candidate flips change the base graph
        for u, v in flips:
            engine.apply_flip(u, v)
        assert_fresh(targets, candidate_set)
        engine.restore(token)
        assert_fresh(targets, candidate_set)
        fewer = targets[:2]
        other = CandidateSet.build(strategy, graph, fewer)
        engine.retarget(fewer, other)
        assert_fresh(fewer, other)

    @pytest.mark.parametrize("strategy", ["full", "target_incident"])
    def test_gradient_matches_exact_loss(self, graph_and_targets, strategy):
        """Central differences of the exact relaxed loss (the autograd
        forward on the materialised fractional graph A + (1 − 2A) ⊙ p),
        away from the clamp floor, where the objective is smooth."""
        graph, targets = graph_and_targets
        floor = 0.5
        candidate_set = CandidateSet.build(strategy, graph, targets)
        engine = SurrogateEngine.create(graph, targets, candidate_set, floor=floor)
        rows, cols = engine.rows, engine.cols
        flips = _fractional(engine, 7, support=100)
        clean = graph.adjacency[rows, cols]

        def fractional_graph(fractions):
            matrix = graph.adjacency.copy()
            matrix[rows, cols] = matrix[cols, rows] = (
                clean + (1.0 - 2.0 * clean) * fractions
            )
            return matrix

        def exact_loss(fractions):
            return surrogate_loss_numpy(fractional_graph(fractions), targets, floor=floor)

        assert fractional_graph(flips).sum(axis=1).min() > floor + 0.1  # E ≥ N: both clear it
        loss, grad = engine.relaxed_step(flips)
        assert loss == pytest.approx(exact_loss(flips), rel=1e-12)
        # The loss is a small difference of large egonet terms, so its
        # round-off swamps differences below eps ≈ 1e-3; at 1e-3 the O(eps²)
        # truncation error is ~1e-7 of the gradient scale.
        eps = 1e-3
        scale = np.abs(grad).max()
        # on the support, and off it, where p = 0 and the gradient is what
        # moves a pair into the support
        rng = np.random.default_rng(8)
        picks = [
            *rng.choice(np.flatnonzero(flips), size=5, replace=False),
            *rng.choice(np.flatnonzero(flips == 0.0), size=5, replace=False),
        ]
        for k in picks:
            step = np.zeros_like(flips)
            step[k] = eps
            numeric = (exact_loss(flips + step) - exact_loss(flips - step)) / (2 * eps)
            assert grad[k] == pytest.approx(numeric, rel=1e-4, abs=1e-5 * scale)
