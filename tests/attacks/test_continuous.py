"""Tests for ContinuousA."""

import numpy as np
import pytest

from repro.attacks.continuous import ContinuousA
from repro.oddball.detector import OddBall


@pytest.fixture()
def attack_setup(small_ba_graph):
    report = OddBall().analyze(small_ba_graph)
    targets = report.top_k(3).tolist()
    return small_ba_graph, targets


class TestContinuousA:
    def test_budget_respected(self, attack_setup):
        graph, targets = attack_setup
        result = ContinuousA(max_iter=50).attack(graph, targets, budget=5)
        assert len(result.flips()) <= 5

    def test_poisoned_adjacency_valid(self, attack_setup):
        graph, targets = attack_setup
        result = ContinuousA(max_iter=50).attack(graph, targets, budget=5)
        poisoned = result.poisoned().toarray()
        assert np.array_equal(poisoned, poisoned.T)
        assert set(np.unique(poisoned)) <= {0.0, 1.0}
        assert np.diagonal(poisoned).sum() == 0.0

    def test_relaxation_moves_mass(self, attack_setup):
        graph, targets = attack_setup
        result = ContinuousA(max_iter=50).attack(graph, targets, budget=5)
        assert result.metadata["fractional_mass"] > 0.0
        assert result.metadata["iterations"] >= 1

    def test_converges_early_with_loose_tol(self, attack_setup):
        graph, targets = attack_setup
        result = ContinuousA(max_iter=500, tol=1e9).attack(graph, targets, budget=2)
        assert result.metadata["iterations"] <= 3

    def test_flips_ranked_by_relaxed_difference(self, attack_setup):
        """Budget-b flips are a prefix of the full ranked flip list."""
        graph, targets = attack_setup
        result = ContinuousA(max_iter=50).attack(graph, targets, budget=5)
        full = result.flips(5)
        for b in range(len(full)):
            assert result.flips(b) == full[:b]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ContinuousA(max_iter=0)

    def test_no_singletons(self, attack_setup):
        graph, targets = attack_setup
        result = ContinuousA(max_iter=50).attack(graph, targets, budget=10)
        degrees = result.poisoned().toarray().sum(axis=1)
        assert not ((degrees == 0) & (graph.degrees() > 0)).any()


class TestCandidateRestriction:
    """Regression: with a candidate subset, the relaxed matrix must keep
    non-candidate edges frozen at their clean values (an early version
    zero-filled them, optimising a mutilated graph)."""

    def test_first_iteration_sees_the_whole_graph(self, small_ba_graph):
        from repro.attacks.candidates import CandidateSet
        from repro.oddball.surrogate import surrogate_loss_numpy

        adjacency = small_ba_graph.adjacency
        targets = [0, 7]
        tiny = CandidateSet.from_pairs(adjacency.shape[0], [(20, 30), (10, 40)])
        attack = ContinuousA(max_iter=1)
        result = attack.attack(small_ba_graph, targets, budget=1, candidates=tiny)
        # the single forward pass runs before any update, so it evaluates the
        # CLEAN graph; if non-candidate edges were dropped this loss would
        # differ wildly
        assert result.metadata["final_relaxed_loss"] == surrogate_loss_numpy(
            adjacency, targets, floor=attack.floor
        )

    def test_flips_stay_inside_candidates(self, small_ba_graph):
        from repro.attacks.candidates import CandidateSet

        targets = [0, 7]
        candidate_set = CandidateSet.build("target_incident", small_ba_graph, targets)
        result = ContinuousA(max_iter=30).attack(
            small_ba_graph, targets, budget=4, candidates=candidate_set
        )
        for pair in result.flips():
            assert pair in candidate_set

    def test_bookkeeping_uses_attack_floor(self, small_ba_graph):
        from repro.oddball.surrogate import surrogate_loss_numpy

        targets = [0, 7]
        attack = ContinuousA(max_iter=10)
        result = attack.attack(small_ba_graph, targets, budget=3)
        for budget, loss in result.surrogate_by_budget.items():
            assert loss == surrogate_loss_numpy(
                result.poisoned(budget), targets, floor=attack.floor
            )


class TestConvergenceLoop:
    """Regression: the convergence check compared against the initial ∞
    sentinel (``inf <= inf`` is true), so the optimisation silently stopped
    after a single PGD iteration and reported ``final_relaxed_loss = inf``."""

    def test_runs_more_than_one_iteration(self, small_ba_graph):
        targets = [0, 7]
        result = ContinuousA(max_iter=50).attack(small_ba_graph, targets, budget=3)
        assert result.metadata["iterations"] > 1
        assert np.isfinite(result.metadata["final_relaxed_loss"])

    def test_tolerance_still_stops_early(self, small_ba_graph):
        targets = [0, 7]
        loose = ContinuousA(max_iter=200, tol=1e30).attack(
            small_ba_graph, targets, budget=3
        )
        assert loose.metadata["iterations"] == 2  # one real step + the check
