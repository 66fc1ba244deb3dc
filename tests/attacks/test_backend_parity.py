"""Engine parity: each attack must select the same flip sets whether its
PGD/greedy loop runs on the sparse-incremental engine it builds itself or
on the dense autograd oracle injected through ``attack(..., engine=...)``,
and sparse inputs must stay sparse end-to-end.

``test_every_registered_attack_has_parity`` is parametrised over
``ATTACK_REGISTRY``, so a newly registered attack without a case in
``PARITY_CASES`` fails there, by name.  Every sparse-side run executes
under the :func:`forbid_densify` runtime guard, so "stays sparse" is
enforced by a tripwire, not just asserted after the fact.
"""

import numpy as np
import pytest
from scipy import sparse

from invariant_guards import forbid_densify

from repro.attacks import (
    ATTACK_REGISTRY,
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


def _engine_parity(make, graph, targets, budget):
    """The dense oracle's run against the attack's own sparse engine."""
    dense = _on_oracle(make(), graph, targets, budget)
    with forbid_densify(context="engine backend parity"):
        fast = make().attack(graph, targets, budget)
    assert dense.metadata["backend"] == "dense"
    assert fast.metadata["backend"] == "sparse"
    return dense, fast


def _input_parity(make, graph, targets, budget):
    """A baseline's run on the dense adjacency against one on its CSR."""
    dense = make().attack(graph.adjacency, targets, budget)
    with forbid_densify(context="baseline sparse-input parity"):
        fast = make().attack(sparse.csr_matrix(graph.adjacency), targets, budget)
    assert sparse.issparse(fast.original)
    assert sparse.issparse(fast.poisoned())
    return dense, fast


#: Registry name -> (parity run, attack factory, budget, metadata keys the
#: attack must record, equal on both sides).
PARITY_CASES = {
    "binarizedattack": (
        _engine_parity, lambda: BinarizedAttack(iterations=25), 4, ("iterations",)
    ),
    "gradmaxsearch": (_engine_parity, GradMaxSearch, 5, ("steps_taken",)),
    "continuousa": (
        _engine_parity, lambda: ContinuousA(max_iter=30), 4, ("iterations",)
    ),
    "random": (_input_parity, lambda: RandomAttack(rng=13), 5, ("candidate_count",)),
    "oddball-heuristic": (
        _input_parity, lambda: OddBallHeuristic(rng=13), 5, ("steps_taken",)
    ),
}


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
def test_every_registered_attack_has_parity(graph_and_targets, name):
    assert name in PARITY_CASES, (
        f"attack {name!r} is in ATTACK_REGISTRY but has no backend-parity "
        "case in PARITY_CASES"
    )
    run, make, budget, recorded = PARITY_CASES[name]
    assert type(make()) is ATTACK_REGISTRY[name]
    graph, targets = graph_and_targets
    dense, fast = run(make, graph, targets, budget)
    # Without ``candidates`` every attack searches every pair.
    assert dense.metadata["candidate_strategy"] == "full"
    assert fast.metadata["candidate_strategy"] == "full"
    assert dense.flips_by_budget == fast.flips_by_budget
    for b, loss in dense.surrogate_by_budget.items():
        assert fast.surrogate_by_budget[b] == pytest.approx(loss, rel=1e-9)
    for key in recorded:
        assert dense.metadata[key] == fast.metadata[key], key


class TestBinarizedBackendParity:
    @pytest.mark.parametrize(
        "candidates", ["full", "target_incident", "neighbour_pairs"]
    )
    def test_dense_and_sparse_agree(
        self, graph_and_targets, candidates, neighbour_pair_set
    ):
        graph, targets = graph_and_targets
        if candidates == "neighbour_pairs":
            candidates = neighbour_pair_set(graph, targets)
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
    @pytest.mark.parametrize("strategy", ["full", "target_incident", "neighbour_pairs"])
    def test_engine_backends_agree(self, graph_and_targets, strategy, neighbour_pair_set):
        graph, targets = graph_and_targets
        if strategy == "neighbour_pairs":
            candidate_set = neighbour_pair_set(graph, targets)
        else:
            candidate_set = CandidateSet.build(strategy, graph, targets)
        dense = _on_oracle(GradMaxSearch(), graph, targets, 5, candidates=candidate_set)
        with forbid_densify(context="gradmax backend parity"):
            fast = GradMaxSearch().attack(
                graph, targets, budget=5, candidates=candidate_set
            )
        assert dense.metadata["backend"] == "dense"
        assert fast.metadata["backend"] == "sparse"
        assert dense.flips_by_budget == fast.flips_by_budget

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
    densifying; their plain runs are registry cases above."""

    def test_target_biased_random_attack(self, graph_and_targets):
        graph, targets = graph_and_targets

        def make():
            return RandomAttack(rng=13, target_biased=True)

        dense, fast = _input_parity(make, graph, targets, 5)
        assert dense.flips_by_budget == fast.flips_by_budget
        for b, loss in dense.surrogate_by_budget.items():
            assert fast.surrogate_by_budget[b] == pytest.approx(loss, rel=1e-9)

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
