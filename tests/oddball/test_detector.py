"""Tests for the OddBall detector facade."""

import numpy as np
import pytest
from scipy import sparse

from repro.experiments.config import CI
from repro.graph.anomaly import inject_near_star
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.features import egonet_features
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.oddball.detector import OddBall
from repro.oddball.robust import ESTIMATORS, fit_with_estimator
from repro.oddball.scores import score_from_features

#: The pathological graphs of ``tests/test_failure_injection.py`` and one
#: ci-scale draw of every dataset.
_GRAPHS = {
    "two-node": lambda: Graph.from_edges(2, [(0, 1)]),
    "complete-8": lambda: Graph.complete(8),
    "one-edge": lambda: Graph.from_edges(4, [(0, 1)]),
    "disconnected": lambda: Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    **{
        name: (lambda name=name: load_dataset(name, rng=7, scale=CI.graph_scale).graph)
        for name in DATASET_NAMES
    },
}

_INPUTS = {
    "graph": lambda graph: graph,
    "dense": lambda graph: graph.adjacency,
    "csr": lambda graph: sparse.csr_matrix(graph.adjacency),
}


def _dense_reference(graph: Graph, estimator: str) -> np.ndarray:
    """Eq. 3 scores composed by hand from the dense features."""
    n_feature, e_feature = egonet_features(graph.adjacency_view)
    fit = fit_with_estimator(n_feature, e_feature, estimator=estimator, rng=0)
    return score_from_features(n_feature, e_feature, fit)


@pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
@pytest.mark.parametrize("kind", sorted(_INPUTS))
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_analyze_matches_the_dense_reference(graph_name, kind, estimator):
    """Every input kind scores bit-identically to the dense composition,
    and ``analyze_features`` on the report's own features repeats it."""
    graph = _GRAPHS[graph_name]()
    report = OddBall(estimator, rng=0).analyze(_INPUTS[kind](graph))
    assert np.array_equal(report.scores, _dense_reference(graph, estimator))
    again = OddBall(estimator, rng=0).analyze_features(report.n_feature, report.e_feature)
    assert np.array_equal(again.scores, report.scores)
    assert again.fit == report.fit


class TestAnalyze:
    def test_report_fields(self, small_er_graph):
        report = OddBall().analyze(small_er_graph)
        n = small_er_graph.number_of_nodes
        assert report.scores.shape == (n,)
        assert report.n_feature.shape == (n,)
        assert report.e_feature.shape == (n,)
        assert np.isfinite(report.scores).all()

    def test_top_k_order(self, small_ba_graph):
        report = OddBall().analyze(small_ba_graph)
        top = report.top_k(5)
        scores = report.scores[top]
        assert (np.diff(scores) <= 1e-12).all()

    def test_top_k_validation(self, small_er_graph):
        report = OddBall().analyze(small_er_graph)
        with pytest.raises(ValueError):
            report.top_k(-1)
        assert len(report.top_k(0)) == 0

    def test_rank_of_consistent_with_top_k(self, small_ba_graph):
        report = OddBall().analyze(small_ba_graph)
        best = int(report.top_k(1)[0])
        assert report.rank_of(best) == 0

    def test_target_score_sum(self, small_er_graph):
        detector = OddBall()
        report = detector.analyze(small_er_graph)
        targets = [0, 1, 2]
        expected = float(report.scores[targets].sum())
        assert detector.target_score_sum(small_er_graph, targets) == pytest.approx(expected)


class TestEstimators:
    def test_unknown_estimator_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            OddBall("bogus")

    def test_estimator_name_is_case_insensitive(self):
        assert OddBall("HUBER").estimator == "huber"

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_all_estimators_run(self, estimator, small_er_graph):
        detector = OddBall(estimator=estimator, rng=0)
        scores = detector.scores(small_er_graph)
        assert np.isfinite(scores).all()

    def test_planted_star_found_by_all(self):
        g = erdos_renyi(120, 0.05, rng=0)
        inject_near_star(g, 4, n_leaves=40, rng=1)
        for estimator in ESTIMATORS:
            report = OddBall(estimator=estimator, rng=0).analyze(g)
            assert report.rank_of(4) < 10


class TestLabelAnomalies:
    def test_fraction_labels_count(self, small_er_graph):
        labels = OddBall().label_anomalies(small_er_graph, fraction=0.1)
        assert labels.sum() == max(int(round(0.1 * small_er_graph.number_of_nodes)), 1)
        assert set(np.unique(labels)) <= {0, 1}

    def test_threshold_labels(self, small_er_graph):
        detector = OddBall()
        scores = detector.scores(small_er_graph)
        labels = detector.label_anomalies(small_er_graph, threshold=float(np.median(scores)))
        assert labels.sum() >= 1

    def test_exactly_one_mode_required(self, small_er_graph):
        detector = OddBall()
        with pytest.raises(ValueError):
            detector.label_anomalies(small_er_graph)
        with pytest.raises(ValueError):
            detector.label_anomalies(small_er_graph, fraction=0.1, threshold=1.0)

    def test_fraction_bounds(self, small_er_graph):
        with pytest.raises(ValueError):
            OddBall().label_anomalies(small_er_graph, fraction=1.5)


class TestReportOrderingCache:
    """top_k/rank_of are backed by a lazily-cached argsort (regression for
    the per-call re-sort) — repeated calls and ties must stay consistent."""

    def test_repeated_calls_identical(self, small_ba_graph):
        report = OddBall().analyze(small_ba_graph)
        first = report.top_k(10)
        second = report.top_k(10)
        np.testing.assert_array_equal(first, second)
        assert [report.rank_of(i) for i in range(5)] == [
            report.rank_of(i) for i in range(5)
        ]

    def test_argsort_runs_once(self, small_ba_graph, monkeypatch):
        report = OddBall().analyze(small_ba_graph)
        calls = []
        original = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        report.top_k(3)
        report.rank_of(0)
        report.top_k(7)
        report.rank_of(4)
        assert len(calls) == 1

    def test_ties_resolve_stably_by_node_id(self):
        from repro.oddball.detector import DetectionReport
        from repro.oddball.regression import PowerLawFit

        scores = np.array([1.0, 3.0, 3.0, 0.5, 3.0])
        report = DetectionReport(
            scores=scores,
            n_feature=np.ones(5),
            e_feature=np.ones(5),
            fit=PowerLawFit(beta0=0.0, beta1=1.0),
        )
        np.testing.assert_array_equal(report.top_k(5), [1, 2, 4, 0, 3])
        assert report.rank_of(1) == 0
        assert report.rank_of(2) == 1
        assert report.rank_of(4) == 2
        assert report.rank_of(0) == 3
        assert report.rank_of(3) == 4

    def test_rank_of_matches_top_k_for_every_node(self, small_er_graph):
        report = OddBall().analyze(small_er_graph)
        order = report.top_k(len(report.scores))
        for rank, node in enumerate(order.tolist()):
            assert report.rank_of(node) == rank

    def test_top_k_result_is_writable_copy(self, small_ba_graph):
        report = OddBall().analyze(small_ba_graph)
        first = report.top_k(3)
        first[0] = -1  # mutating the caller's copy must not corrupt the cache
        np.testing.assert_array_equal(report.top_k(3), report.top_k(3))
        assert report.top_k(3)[0] != -1


class TestRankOfBounds:
    def test_negative_node_rejected(self, small_er_graph):
        report = OddBall().analyze(small_er_graph)
        with pytest.raises(IndexError, match="out of range"):
            report.rank_of(-1)

    def test_too_large_node_rejected(self, small_er_graph):
        report = OddBall().analyze(small_er_graph)
        with pytest.raises(IndexError, match="out of range"):
            report.rank_of(len(report.scores))
