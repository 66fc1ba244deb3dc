"""Failure-injection tests: malformed inputs and pathological graphs.

Every entry point should fail loudly (clear exception) or degrade
gracefully (documented fallback), never crash with an internal error or
return silently-wrong numbers.
"""

import numpy as np
import pytest

from repro.attacks import BinarizedAttack, ContinuousA, GradMaxSearch, RandomAttack
from repro.gad.pipeline import TransferAttackPipeline
from repro.graph.graph import Graph
from repro.oddball.detector import OddBall
from repro.oddball.robust import ESTIMATORS


def tiny_attacks():
    return [
        GradMaxSearch(),
        ContinuousA(max_iter=10),
        BinarizedAttack(iterations=10, lambdas=(0.2,)),
        RandomAttack(rng=0),
    ]


class TestMalformedGraphInputs:
    @pytest.mark.parametrize("attack", tiny_attacks(), ids=lambda a: a.name)
    def test_nonsymmetric_adjacency_rejected(self, attack):
        bad = np.zeros((5, 5))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            attack.attack(bad, [0], budget=1)

    @pytest.mark.parametrize("attack", tiny_attacks(), ids=lambda a: a.name)
    def test_weighted_adjacency_rejected(self, attack):
        bad = np.full((4, 4), 0.5)
        np.fill_diagonal(bad, 0.0)
        with pytest.raises(ValueError):
            attack.attack(bad, [0], budget=1)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_detector_rejects_all_isolated(self, estimator):
        # every estimator fits the nodes with N >= 1 and E >= 1, at least two
        with pytest.raises(ValueError, match="at least two valid nodes"):
            OddBall(estimator).analyze(Graph.empty(5))


class TestPathologicalButValidGraphs:
    def test_scores_on_two_node_graph(self):
        g = Graph.from_edges(2, [(0, 1)])
        scores = OddBall().scores(g)
        assert np.isfinite(scores).all()

    def test_regular_graph_degenerate_regression(self):
        """All nodes identical: ridge keeps OLS finite, scores ~uniform."""
        g = Graph.complete(8)
        scores = OddBall().scores(g)
        assert np.isfinite(scores).all()
        assert scores.std() < 1e-6

    @pytest.mark.parametrize("attack", tiny_attacks(), ids=lambda a: a.name)
    def test_attack_on_near_empty_graph(self, attack):
        """One edge only: deletions are blocked by the singleton rule, the
        attack must still terminate within budget."""
        g = Graph.from_edges(4, [(0, 1)])
        result = attack.attack(g, [0], budget=3)
        assert len(result.flips()) <= 3
        # node 1 must not be isolated unless it already was
        poisoned = result.poisoned().toarray()
        assert poisoned.sum(axis=1)[1] >= 1 or poisoned.sum() == 0

    def test_attack_with_budget_exceeding_possible_flips(self):
        g = Graph.complete(4)  # only deletions possible, some blocked
        result = GradMaxSearch().attack(g, [0], budget=100)
        assert len(result.flips()) <= 100
        assert np.isfinite(OddBall().scores(result.poisoned())).all()

    def test_disconnected_graph_supported(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        targets = [1]
        result = BinarizedAttack(iterations=10, lambdas=(0.2,)).attack(g, targets, 2)
        assert np.isfinite(OddBall().scores(result.poisoned())).all()


class TestPipelineFailures:
    def test_pipeline_errors_when_no_targets(self):
        """A graph whose victim flags no anomalies raises a clear error."""
        pipeline = TransferAttackPipeline(
            system="refex", seed=0, anomaly_fraction=0.02, mlp_kwargs={"epochs": 10}
        )
        # A regular-ish ring lattice has no anomalous egonets to flag as
        # test-set positives under a tiny anomaly fraction — depending on
        # the split the pipeline either runs or raises the documented error.
        from repro.graph.generators import ring_lattice

        graph = ring_lattice(40, 3)
        try:
            pipeline.run(graph, RandomAttack(rng=0), budgets=[1], max_targets=3)
        except (RuntimeError, ValueError) as error:
            assert "anomal" in str(error).lower() or "class" in str(error).lower()

    def test_empty_budget_list_gets_baseline(self, small_ba_graph):
        pipeline = TransferAttackPipeline(
            system="refex", seed=0, mlp_kwargs={"epochs": 10}
        )
        outcome = pipeline.run(
            small_ba_graph, RandomAttack(rng=0), budgets=[], max_targets=3
        )
        assert [r.budget for r in outcome.rows] == [0]
