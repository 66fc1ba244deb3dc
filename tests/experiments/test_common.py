"""Tests for experiment plumbing."""

import numpy as np

from repro.attacks import BinarizedAttack, ContinuousA, GradMaxSearch
from repro.attacks.campaign import AttackJob
from repro.experiments.common import (
    attack_suite_params,
    format_table,
    load_experiment_graph,
    sample_targets,
    tau_for_budgets,
    top_score_groups,
)
from repro.experiments.config import SMOKE
from repro.oddball.detector import OddBall
from repro.utils.rng import SeedSequenceFactory


class TestLoadExperimentGraph:
    def test_deterministic_per_seed_factory(self):
        a = load_experiment_graph("ba", SMOKE, SeedSequenceFactory(1))
        b = load_experiment_graph("ba", SMOKE, SeedSequenceFactory(1))
        assert a.graph == b.graph


class TestSampleTargets:
    def test_targets_from_top_pool(self, small_ba_graph):
        report = OddBall().analyze(small_ba_graph)
        rng = np.random.default_rng(0)
        targets = sample_targets(report, 5, rng, pool_size=20)
        pool = set(report.top_k(20).tolist())
        assert set(targets) <= pool
        assert len(targets) == 5
        assert targets == sorted(targets)

    def test_count_capped_at_pool(self, small_ba_graph):
        report = OddBall().analyze(small_ba_graph)
        targets = sample_targets(report, 500, np.random.default_rng(0), pool_size=10)
        assert len(targets) == 10


class TestAttackSuiteParams:
    def test_builds_papers_three_methods(self):
        suite = {
            name: AttackJob.make(name, [0], 1, **params).build_attack()
            for name, params in attack_suite_params(SMOKE).items()
        }
        assert isinstance(suite["gradmaxsearch"], GradMaxSearch)
        assert isinstance(suite["continuousa"], ContinuousA)
        assert isinstance(suite["binarizedattack"], BinarizedAttack)
        assert suite["continuousa"].max_iter == SMOKE.attack_iterations
        assert suite["binarizedattack"].iterations == SMOKE.attack_iterations


class TestTauForBudgets:
    def test_matches_attackresult_metric(self, small_ba_graph):
        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        result = GradMaxSearch().attack(small_ba_graph, targets, 3)
        taus = tau_for_budgets(small_ba_graph.adjacency, result, targets, [0, 3])
        assert taus[0] == 0.0
        assert taus[1] == result.score_decrease(targets, 3)


class TestTopScoreGroups:
    def test_partition(self, small_ba_graph):
        scores, low, medium, high = top_score_groups(small_ba_graph)
        n = small_ba_graph.number_of_nodes
        assert len(scores) == n
        assert len(low) + len(medium) + len(high) == n
        if len(low) and len(high):
            assert scores[low].max() <= scores[high].min()


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 0.123456]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.123" in text
        assert "2.500" in text

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text
