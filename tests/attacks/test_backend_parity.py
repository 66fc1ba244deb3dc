"""Engine parity: each attack must select the same flip sets whether its
PGD/greedy loop runs on the sparse-incremental engine it builds itself or
on the dense autograd oracle injected through ``attack(..., engine=...)``,
and sparse inputs must stay sparse end-to-end.

Every sparse-side run executes under the :func:`forbid_densify` runtime guard,
so "stays sparse" is enforced by a tripwire, not just asserted after the fact.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.analysis import forbid_densify
from repro.attacks import (
    BinarizedAttack,
    CandidateSet,
    ContinuousA,
    GradMaxSearch,
    OddBallHeuristic,
    RandomAttack,
)
from repro.attacks.gradmax import _first_best
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.oddball.detector import OddBall
from repro.oddball.surrogate import DenseSurrogateEngine


def _graphs():
    return [
        barabasi_albert(60, 3, rng=11),
        erdos_renyi(50, 0.15, rng=7),
    ]


def _targets(graph, k=3):
    return OddBall().analyze(graph).top_k(k).tolist()


def _on_oracle(attack, graph, targets, budget, **kwargs):
    """``attack`` run on the dense autograd oracle instead of its own engine."""
    oracle = DenseSurrogateEngine(graph, targets)
    return attack.attack(graph, targets, budget, engine=oracle, **kwargs)


@pytest.fixture(params=range(2), ids=["ba60", "er50"])
def graph_and_targets(request):
    graph = _graphs()[request.param]
    return graph, _targets(graph)


class TestBinarizedBackendParity:
    @pytest.mark.parametrize("candidates", [None, "full", "target_incident", "two_hop"])
    def test_dense_and_sparse_agree(self, graph_and_targets, candidates):
        graph, targets = graph_and_targets
        dense = _on_oracle(
            BinarizedAttack(iterations=25), graph, targets, 4, candidates=candidates
        )
        with forbid_densify(context="binarized backend parity"):
            fast = BinarizedAttack(iterations=25).attack(
                graph, targets, budget=4, candidates=candidates
            )
        assert dense.metadata["backend"] == "dense"
        assert dense.flips_by_budget == fast.flips_by_budget
        for budget in dense.surrogate_by_budget:
            assert dense.surrogate_by_budget[budget] == pytest.approx(
                fast.surrogate_by_budget[budget], rel=1e-9
            )

    def test_auto_on_small_dense_graph_is_sparse(self, graph_and_targets):
        graph, targets = graph_and_targets
        result = BinarizedAttack(iterations=10).attack(graph, targets, budget=2)
        assert result.metadata["backend"] == "sparse"

    def test_sparse_input_stays_sparse(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        with forbid_densify(context="binarized sparse input"):
            result = BinarizedAttack(iterations=25).attack(
                csr, targets, budget=4, candidates="target_incident"
            )
        assert result.metadata["backend"] == "sparse"
        assert sparse.issparse(result.original)
        assert sparse.issparse(result.poisoned())
        from_dense = BinarizedAttack(iterations=25).attack(
            graph, targets, budget=4, candidates="target_incident"
        )
        assert result.flips_by_budget == from_dense.flips_by_budget

    def test_sparse_backend_respects_floor(self, graph_and_targets):
        from repro.oddball.surrogate import surrogate_loss_numpy

        graph, targets = graph_and_targets
        result = BinarizedAttack(iterations=20, floor=2.0).attack(
            graph, targets, budget=3
        )
        for budget, loss in result.surrogate_by_budget.items():
            reproduced = surrogate_loss_numpy(
                result.poisoned(budget), targets, floor=2.0
            )
            assert loss == pytest.approx(reproduced, rel=1e-12)

    def test_weighted_targets_parity(self, graph_and_targets):
        graph, targets = graph_and_targets
        weights = [2.0, 1.0, 0.5]
        dense = _on_oracle(
            BinarizedAttack(iterations=20), graph, targets, 3, target_weights=weights
        )
        with forbid_densify(context="binarized weighted parity"):
            fast = BinarizedAttack(iterations=20).attack(
                graph, targets, budget=3, target_weights=weights
            )
        assert dense.flips_by_budget == fast.flips_by_budget

    def test_rejects_unknown_backend(self):
        for backend in ("dense", "sparse", "gpu"):
            with pytest.raises(TypeError, match="backend"):
                BinarizedAttack(backend=backend)


class TestContinuousBackendParity:
    def test_dense_and_sparse_agree(self, graph_and_targets):
        graph, targets = graph_and_targets
        dense = _on_oracle(ContinuousA(max_iter=30), graph, targets, 4)
        with forbid_densify(context="continuous backend parity"):
            fast = ContinuousA(max_iter=30).attack(
                graph, targets, budget=4
            )
        assert dense.flips_by_budget == fast.flips_by_budget
        assert dense.metadata["iterations"] == fast.metadata["iterations"]

    def test_sparse_input_stays_sparse(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        with forbid_densify(context="continuous sparse input"):
            result = ContinuousA(max_iter=30).attack(
                csr, targets, budget=4, candidates="target_incident"
            )
        assert result.metadata["backend"] == "sparse"
        assert sparse.issparse(result.original)
        assert sparse.issparse(result.poisoned())

    def test_rejects_unknown_backend(self):
        for backend in ("dense", "sparse", "gpu"):
            with pytest.raises(TypeError, match="backend"):
                ContinuousA(backend=backend)


class TestGradMaxBackendParity:
    @pytest.mark.parametrize("strategy", ["full", "target_incident", "two_hop"])
    def test_engine_backends_agree(self, graph_and_targets, strategy):
        graph, targets = graph_and_targets
        candidate_set = CandidateSet.build(strategy, graph, targets)
        dense = _on_oracle(GradMaxSearch(), graph, targets, 5, candidates=candidate_set)
        with forbid_densify(context="gradmax backend parity"):
            fast = GradMaxSearch().attack(
                graph, targets, budget=5, candidates=candidate_set
            )
        assert dense.metadata["backend"] == "dense"
        assert fast.metadata["backend"] == "sparse"
        assert dense.flips_by_budget == fast.flips_by_budget

    def test_sparse_backend_without_candidates_matches_dense_loop(
        self, graph_and_targets
    ):
        """Without candidates the sparse engine searches every pair and must
        reproduce the full-pair dense oracle's flips and losses."""
        graph, targets = graph_and_targets
        oracle = _on_oracle(GradMaxSearch(), graph, targets, 5)
        with forbid_densify(context="gradmax full-pair parity"):
            fast = GradMaxSearch().attack(graph, targets, budget=5)
        assert oracle.metadata["candidate_strategy"] == "full"
        assert fast.metadata["candidate_strategy"] == "full"
        assert oracle.flips_by_budget == fast.flips_by_budget
        for budget, loss in oracle.surrogate_by_budget.items():
            assert fast.surrogate_by_budget[budget] == pytest.approx(loss, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 17, 23])
    def test_round_off_ties_pick_the_same_pair(self, seed):
        """On these graphs a greedy step meets pairs whose gradients are
        equal in exact arithmetic; the engines' round-off orders them
        differently, and the tie rule must still pick the same flips."""
        graph = erdos_renyi(40, 0.08, rng=seed)
        targets = _targets(graph)
        oracle = _on_oracle(GradMaxSearch(), graph, targets, 8)
        fast = GradMaxSearch().attack(graph, targets, budget=8)
        assert oracle.flips_by_budget == fast.flips_by_budget

    def test_tie_rule_takes_first_of_tied_and_keeps_real_gaps(self):
        magnitude = np.array([0.5, 2.0, np.nextafter(2.0, 3.0), -np.inf])
        assert _first_best(magnitude) == 1
        magnitude[1] = 2.0 * (1.0 - 1e-6)
        assert _first_best(magnitude) == 2
        assert _first_best(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1

    def test_rejects_unknown_backend(self):
        for backend in ("dense", "sparse", "gpu"):
            with pytest.raises(TypeError, match="backend"):
                GradMaxSearch(backend=backend)


class TestBaselineSparseParity:
    """RandomAttack / OddBallHeuristic accept scipy-sparse input without
    densifying, and reproduce the dense path's flips and losses exactly."""

    @pytest.mark.parametrize("target_biased", [False, True])
    def test_random_attack(self, graph_and_targets, target_biased):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        dense = RandomAttack(rng=13, target_biased=target_biased).attack(
            graph.adjacency, targets, budget=5
        )
        with forbid_densify(context="random attack sparse parity"):
            sparse_result = RandomAttack(rng=13, target_biased=target_biased).attack(
                csr, targets, budget=5
            )
        assert sparse.issparse(sparse_result.original)
        assert sparse.issparse(sparse_result.poisoned())
        assert dense.flips_by_budget == sparse_result.flips_by_budget
        for b, loss in dense.surrogate_by_budget.items():
            assert sparse_result.surrogate_by_budget[b] == pytest.approx(
                loss, rel=1e-9
            )

    def test_random_attack_weighted(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        weights = [2.0, 1.0, 0.5]
        dense = RandomAttack(rng=13).attack(
            graph.adjacency, targets, budget=4, target_weights=weights
        )
        with forbid_densify(context="random attack weighted parity"):
            sparse_result = RandomAttack(rng=13).attack(
                csr, targets, budget=4, target_weights=weights
            )
        assert dense.flips_by_budget == sparse_result.flips_by_budget
        for b, loss in dense.surrogate_by_budget.items():
            assert sparse_result.surrogate_by_budget[b] == pytest.approx(
                loss, rel=1e-9
            )

    def test_oddball_heuristic(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        dense = OddBallHeuristic(rng=13).attack(graph.adjacency, targets, budget=5)
        with forbid_densify(context="oddball heuristic sparse parity"):
            sparse_result = OddBallHeuristic(rng=13).attack(csr, targets, budget=5)
        assert sparse.issparse(sparse_result.original)
        assert sparse.issparse(sparse_result.poisoned())
        assert dense.flips_by_budget == sparse_result.flips_by_budget
        for b, loss in dense.surrogate_by_budget.items():
            assert sparse_result.surrogate_by_budget[b] == pytest.approx(
                loss, rel=1e-9
            )
