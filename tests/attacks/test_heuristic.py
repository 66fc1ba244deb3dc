"""Tests for the OddBall-specific heuristic baseline."""

import numpy as np
import pytest

from repro.attacks.heuristic import OddBallHeuristic
from repro.attacks.random_attack import RandomAttack
from repro.graph.anomaly import inject_near_clique, inject_near_star
from repro.graph.generators import erdos_renyi
from repro.oddball.detector import OddBall


class TestOddBallHeuristic:
    def test_budget_and_validity(self, small_ba_graph):
        targets = OddBall().analyze(small_ba_graph).top_k(3).tolist()
        result = OddBallHeuristic(rng=0).attack(small_ba_graph, targets, budget=6)
        assert len(result.flips()) <= 6
        poisoned = result.poisoned().toarray()
        assert np.array_equal(poisoned, poisoned.T)
        assert set(np.unique(poisoned)) <= {0.0, 1.0}
        assert np.diagonal(poisoned).sum() == 0.0

    def test_clique_target_gets_deletions(self):
        g = erdos_renyi(80, 0.05, rng=0)
        inject_near_clique(g, 3, clique_size=10, density=0.95, rng=1)
        result = OddBallHeuristic(rng=0).attack(g, [3], budget=5)
        flips = result.flips()
        assert flips, "heuristic found no step"
        adjacency = g.adjacency_view
        deletions = sum(1 for u, v in flips if adjacency[u, v] == 1.0)
        assert deletions == len(flips)  # above the line -> only deletions

    def test_star_target_gets_additions(self):
        from repro.graph.generators import barabasi_albert

        # BA base: the power-law fit has beta1 > 1, so a 30-leaf star sits
        # clearly below the line (E=103 vs expected ~115 on this seed).
        g = barabasi_albert(80, 3, rng=0)
        inject_near_star(g, 5, n_leaves=30, rng=1)
        result = OddBallHeuristic(rng=0).attack(g, [5], budget=5)
        flips = result.flips()
        assert flips
        adjacency = g.adjacency_view
        additions = sum(1 for u, v in flips if adjacency[u, v] == 0.0)
        assert additions == len(flips)  # below the line -> only additions
        # all flips are within the star's egonet (neighbour pairs)
        neighbors = set(g.neighbors(5).tolist())
        for u, v in flips:
            assert u in neighbors and v in neighbors

    def test_decreases_scores_and_beats_random(self, small_ba_graph):
        targets = OddBall().analyze(small_ba_graph).top_k(3).tolist()
        heuristic = OddBallHeuristic(rng=0).attack(small_ba_graph, targets, budget=8)
        random = RandomAttack(rng=0).attack(small_ba_graph, targets, budget=8)
        assert heuristic.score_decrease(targets) > 0.0
        assert heuristic.score_decrease(targets) > random.score_decrease(targets)

    def test_stops_when_no_step_available(self):
        from repro.graph.graph import Graph

        # path graph: targets have < 2 neighbours or no flippable pair
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        result = OddBallHeuristic(rng=0).attack(path, [0], budget=5)
        assert result.metadata["steps_taken"] <= 1

    def test_deterministic(self, small_ba_graph):
        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        a = OddBallHeuristic(rng=4).attack(small_ba_graph, targets, budget=4)
        b = OddBallHeuristic(rng=4).attack(small_ba_graph, targets, budget=4)
        assert a.flips() == b.flips()


class TestWeightedTargets:
    """The κ-weighted objective extension (Section IV-B)."""

    def test_weighted_surrogate_scales(self, small_ba_graph):
        from repro.oddball.surrogate import surrogate_loss_numpy

        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        base = surrogate_loss_numpy(small_ba_graph.adjacency, targets)
        doubled = surrogate_loss_numpy(small_ba_graph.adjacency, targets, [2.0, 2.0])
        assert doubled == pytest.approx(2.0 * base)

    def test_weight_validation(self, small_ba_graph):
        from repro.oddball.surrogate import surrogate_loss_numpy

        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        with pytest.raises(ValueError):
            surrogate_loss_numpy(small_ba_graph.adjacency, targets, [1.0])
        with pytest.raises(ValueError):
            surrogate_loss_numpy(small_ba_graph.adjacency, targets, [1.0, -1.0])

    def test_attack_focuses_on_heavy_target(self, small_ba_graph):
        """An extreme κ on one target skews the poison toward it."""
        from repro.attacks.gradmax import GradMaxSearch

        report = OddBall().analyze(small_ba_graph)
        targets = report.top_k(2).tolist()
        heavy, light = targets[1], targets[0]
        result = GradMaxSearch().attack(
            small_ba_graph, targets, budget=6, target_weights=[0.001, 1000.0]
        )
        before = report.scores
        after = OddBall().scores(result.poisoned())
        heavy_drop = before[heavy] - after[heavy]
        light_drop = before[light] - after[light]
        assert heavy_drop >= light_drop - 1e-6

    def test_weighted_score_decrease_metric(self, small_ba_graph):
        from repro.attacks.gradmax import GradMaxSearch

        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        result = GradMaxSearch().attack(small_ba_graph, targets, budget=4)
        uniform = result.score_decrease(targets)
        weighted = result.score_decrease(targets, weights=[1.0, 1.0])
        assert uniform == pytest.approx(weighted)
        with pytest.raises(ValueError):
            result.score_decrease(targets, weights=[1.0])


class TestCandidateRestriction:
    @pytest.mark.parametrize("candidates", [None, "full"])
    def test_unrestricted_run_never_builds_the_full_pair_set(
        self, small_ba_graph, monkeypatch, candidates
    ):
        """``candidates=None`` and ``"full"`` restrict nothing, so the
        heuristic must not materialise all n(n−1)/2 pairs for either, and
        both pick the same flips."""
        from repro.attacks.candidates import CandidateSet

        def refuse(cls, n):
            raise AssertionError(f"built the full pair set of n={n}")

        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        expected = OddBallHeuristic(rng=1).attack(small_ba_graph, targets, budget=4)
        monkeypatch.setattr(CandidateSet, "full", classmethod(refuse))
        result = OddBallHeuristic(rng=1).attack(
            small_ba_graph, targets, budget=4, candidates=candidates
        )
        assert result.flips()
        assert result.flips_by_budget == expected.flips_by_budget
        assert result.metadata["candidate_strategy"] == "full"

    def test_declines_an_injected_dense_engine(self, small_ba_graph):
        """A dense oracle would recompute every feature per step, so the
        heuristic runs on its own sparse engine and leaves the oracle as
        it found it."""
        from repro.oddball.surrogate import DenseSurrogateEngine

        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        oracle = DenseSurrogateEngine(small_ba_graph, targets)
        loss_before = oracle.current_loss()
        expected = OddBallHeuristic(rng=3).attack(small_ba_graph, targets, budget=4)
        result = OddBallHeuristic(rng=3).attack(
            small_ba_graph, targets, budget=4, engine=oracle
        )
        assert result.flips()
        assert result.flips_by_budget == expected.flips_by_budget
        assert result.surrogate_by_budget == expected.surrogate_by_budget
        assert oracle.current_loss() == loss_before

    def test_target_incident_warns_and_declines(self, small_ba_graph, caplog):
        """The heuristic only flips neighbour pairs, which a single-target
        ``target_incident`` set excludes entirely — it must decline with a
        warning rather than silently pretend to attack."""
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.attacks.heuristic"):
            result = OddBallHeuristic(rng=0).attack(
                small_ba_graph, [0], budget=4, candidates="target_incident"
            )
        assert result.flips() == []
        warnings = [r.getMessage() for r in caplog.records]
        assert any(
            "candidate restriction" in m and "'full'" in m for m in warnings
        )

    def test_neighbour_pair_set_keeps_the_heuristic_effective(
        self, small_ba_graph, neighbour_pair_set
    ):
        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        candidate_set = neighbour_pair_set(small_ba_graph, targets)
        restricted = OddBallHeuristic(rng=0).attack(
            small_ba_graph, targets, budget=4, candidates=candidate_set
        )
        assert restricted.flips()
        assert set(restricted.flips()) <= candidate_set.pair_set()
