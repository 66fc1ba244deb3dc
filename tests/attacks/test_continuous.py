"""Tests for ContinuousA."""

import numpy as np
import pytest

from repro import telemetry
from repro.attacks.continuous import PATIENCE, ContinuousA
from repro.oddball.detector import OddBall
from repro.oddball.surrogate import SparseSurrogateEngine
from repro.telemetry import tracer as tracer_module


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

    def test_loose_tol_stops_after_one_window(self, attack_setup):
        """No step beats the first loss by a relative 1e30, so the PGD
        stops once PATIENCE evaluations past the first make no progress."""
        graph, targets = attack_setup
        result = ContinuousA(max_iter=500, tol=1e30).attack(graph, targets, budget=2)
        assert result.metadata["iterations"] == PATIENCE + 1 == 11

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
    """The stop rule: the PGD runs until PATIENCE evaluations in a row fail
    to beat the best relaxed loss by a relative ``tol`` (an earlier rule on
    consecutive differences once stopped after a single iteration and
    reported ``final_relaxed_loss = inf``)."""

    def test_runs_more_than_one_iteration(self, small_ba_graph):
        targets = [0, 7]
        result = ContinuousA(max_iter=50).attack(small_ba_graph, targets, budget=3)
        assert result.metadata["iterations"] > 1
        assert np.isfinite(result.metadata["final_relaxed_loss"])

    def test_tolerance_stops_after_one_window(self, small_ba_graph):
        targets = [0, 7]
        loose = ContinuousA(max_iter=200, tol=1e30).attack(
            small_ba_graph, targets, budget=3
        )
        # the first evaluation sets the best, the next PATIENCE fail to beat it
        assert loose.metadata["iterations"] == PATIENCE + 1 == 11
        assert loose.metadata["final_relaxed_loss"] <= loose.surrogate_by_budget[0]

    def test_cap_bounds_the_steps(self, small_ba_graph):
        result = ContinuousA(max_iter=4, tol=1e30).attack(small_ba_graph, [0, 7], budget=3)
        assert result.metadata["iterations"] == 4

    @pytest.mark.parametrize("max_iter, tol", [(6, 1e-6), (200, 1e30)], ids=["cap", "patience"])
    def test_rounds_the_last_evaluated_iterate(self, small_ba_graph, max_iter, tol):
        """Whichever rule stops the PGD, the read-out rounds the last p
        evaluated, and ``final_relaxed_loss`` and ``fractional_mass``
        describe that p (the step cap once rounded a p one step past the
        last evaluation, which no metadata described)."""
        evaluated, pairs = [], {}
        real_step = SparseSurrogateEngine.relaxed_step

        def step(self, flips):
            loss, gradient = real_step(self, flips)
            evaluated.append((loss, flips.copy()))
            pairs.update((pair, k) for k, pair in enumerate(zip(self.rows, self.cols)))
            return loss, gradient

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SparseSurrogateEngine, "relaxed_step", step)
            result = ContinuousA(max_iter=max_iter, tol=tol).attack(
                small_ba_graph, [0, 7], budget=3
            )
        loss, last = evaluated[-1]
        assert len(evaluated) == result.metadata["iterations"] < 200
        assert result.metadata["final_relaxed_loss"] == loss
        assert result.metadata["fractional_mass"] == float(last.sum())
        # the flips are the last p's pairs, ranked by it
        ranked = [last[pairs[pair]] for pair in result.flips()]
        assert ranked and min(ranked) > 0.0 and ranked == sorted(ranked, reverse=True)

    def test_steps_are_counted(self, small_ba_graph, tmp_path):
        telemetry.configure(tmp_path / "trace")
        try:
            result = ContinuousA(max_iter=30).attack(small_ba_graph, [0, 7], budget=3)
        finally:
            # Closes (flushes) this trace, then lets the next test resolve
            # $REPRO_TELEMETRY afresh, as the tracing CI lane expects.
            telemetry.shutdown()
            tracer_module._RESOLVED = False
        steps = sum(
            record["count"] for record in telemetry.load_trace_dir(tmp_path / "trace")
            if record["kind"] == "counter" and record["name"] == "attacks.continuous.steps"
        )
        assert steps == result.metadata["iterations"] > 1
