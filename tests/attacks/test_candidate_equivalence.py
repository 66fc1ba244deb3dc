"""Candidate-set equivalence: the ``full`` strategy reproduces the legacy
full-pair attacks bit-for-bit, and restricted strategies honour their
restriction.  This is the acceptance contract of the candidate engine."""

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    BinarizedAttack,
    CandidateSet,
    ContinuousA,
    GradMaxSearch,
    OddBallHeuristic,
    RandomAttack,
)
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.oddball.detector import OddBall


def _graphs():
    return [
        barabasi_albert(60, 3, rng=11),
        erdos_renyi(50, 0.15, rng=7),
        barabasi_albert(80, 2, rng=3),
    ]


def _targets(graph, k=3):
    return OddBall().analyze(graph).top_k(k).tolist()


@pytest.fixture(params=range(3), ids=["ba60", "er50", "ba80"])
def graph_and_targets(request):
    graph = _graphs()[request.param]
    return graph, _targets(graph)


class TestGradMaxEquivalence:
    def test_full_candidates_match_dense_engine_bitwise(self, graph_and_targets):
        graph, targets = graph_and_targets
        dense = GradMaxSearch().attack(graph, targets, budget=6)
        engine = GradMaxSearch().attack(graph, targets, budget=6, candidates="full")
        assert dense.flips_by_budget == engine.flips_by_budget
        # losses are computed through different code paths (autograd vs the
        # incremental feature mirror) yet must agree bit-for-bit
        assert dense.surrogate_by_budget == engine.surrogate_by_budget

    def test_target_incident_flips_touch_targets(self, graph_and_targets):
        graph, targets = graph_and_targets
        result = GradMaxSearch().attack(
            graph, targets, budget=6, candidates="target_incident"
        )
        assert result.flips()
        assert all(u in targets or v in targets for u, v in result.flips())

    def test_neighbour_pair_flips_stay_in_set(self, graph_and_targets, neighbour_pair_set):
        graph, targets = graph_and_targets
        candidate_set = neighbour_pair_set(graph, targets)
        result = GradMaxSearch().attack(
            graph, targets, budget=6, candidates=candidate_set
        )
        for pair in result.flips():
            assert pair in candidate_set

    def test_sparse_input_matches_dense_input(self, graph_and_targets):
        graph, targets = graph_and_targets
        from_dense = GradMaxSearch().attack(
            graph, targets, budget=5, candidates="target_incident"
        )
        from_sparse = GradMaxSearch().attack(
            sparse.csr_matrix(graph.adjacency),
            targets,
            budget=5,
            candidates="target_incident",
        )
        assert from_dense.flips_by_budget == from_sparse.flips_by_budget
        assert sparse.issparse(from_sparse.poisoned())
        np.testing.assert_array_equal(
            from_sparse.poisoned().toarray(), from_dense.poisoned().toarray()
        )

    def test_weighted_targets_equivalence(self, graph_and_targets):
        graph, targets = graph_and_targets
        weights = [2.0, 1.0, 0.5]
        dense = GradMaxSearch().attack(
            graph, targets, budget=5, target_weights=weights
        )
        engine = GradMaxSearch().attack(
            graph, targets, budget=5, target_weights=weights, candidates="full"
        )
        assert dense.flips_by_budget == engine.flips_by_budget

    def test_restriction_still_attacks(self, graph_and_targets):
        graph, targets = graph_and_targets
        result = GradMaxSearch().attack(
            graph, targets, budget=6, candidates="target_incident"
        )
        assert result.score_decrease(targets) > 0.0


class TestBinarizedEquivalence:
    def test_full_candidates_match_legacy_bitwise(self, graph_and_targets):
        graph, targets = graph_and_targets
        legacy = BinarizedAttack(iterations=25).attack(graph, targets, budget=4)
        full = BinarizedAttack(iterations=25).attack(
            graph, targets, budget=4, candidates="full"
        )
        assert legacy.flips_by_budget == full.flips_by_budget
        assert legacy.surrogate_by_budget == full.surrogate_by_budget

    def test_target_incident_shrinks_decision_variables(self, graph_and_targets):
        graph, targets = graph_and_targets
        n = graph.number_of_nodes
        result = BinarizedAttack(iterations=25).attack(
            graph, targets, budget=4, candidates="target_incident"
        )
        assert result.metadata["decision_variables"] < n * (n - 1) // 2
        assert all(u in targets or v in targets for u, v in result.flips())


class TestBaselineEquivalence:
    def test_random_full_matches_legacy(self, graph_and_targets):
        graph, targets = graph_and_targets
        legacy = RandomAttack(rng=5).attack(graph, targets, budget=5)
        full = RandomAttack(rng=5).attack(graph, targets, budget=5, candidates="full")
        assert legacy.flips_by_budget == full.flips_by_budget

    def test_random_target_biased_is_target_incident(self, graph_and_targets):
        graph, targets = graph_and_targets
        biased = RandomAttack(rng=5, target_biased=True).attack(graph, targets, budget=5)
        incident = RandomAttack(rng=5).attack(
            graph, targets, budget=5, candidates="target_incident"
        )
        assert biased.flips_by_budget == incident.flips_by_budget

    def test_continuous_full_matches_legacy(self, graph_and_targets):
        graph, targets = graph_and_targets
        legacy = ContinuousA(max_iter=30).attack(graph, targets, budget=4)
        full = ContinuousA(max_iter=30).attack(
            graph, targets, budget=4, candidates="full"
        )
        assert legacy.flips_by_budget == full.flips_by_budget

    def test_heuristic_full_matches_legacy(self, graph_and_targets):
        graph, targets = graph_and_targets
        legacy = OddBallHeuristic(rng=2).attack(graph, targets, budget=4)
        full = OddBallHeuristic(rng=2).attack(
            graph, targets, budget=4, candidates="full"
        )
        assert legacy.flips_by_budget == full.flips_by_budget

    def test_heuristic_respects_candidate_restriction(
        self, graph_and_targets, neighbour_pair_set
    ):
        graph, targets = graph_and_targets
        candidate_set = neighbour_pair_set(graph, targets)
        result = OddBallHeuristic(rng=2).attack(
            graph, targets, budget=4, candidates=candidate_set
        )
        for pair in result.flips():
            assert pair in candidate_set


class TestCandidateValidation:
    def test_mismatched_candidate_set_rejected(self, graph_and_targets):
        graph, targets = graph_and_targets
        wrong = CandidateSet.full(graph.number_of_nodes + 1)
        with pytest.raises(ValueError, match="addresses"):
            GradMaxSearch().attack(graph, targets, budget=2, candidates=wrong)

    def test_bogus_candidate_type_rejected(self, graph_and_targets):
        graph, targets = graph_and_targets
        with pytest.raises(TypeError, match="candidates"):
            GradMaxSearch().attack(graph, targets, budget=2, candidates=42)
