"""Tests for the Eq. 3 anomaly scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.oddball.detector import OddBall
from repro.oddball.regression import PowerLawFit
from repro.oddball.scores import (
    rank_nodes,
    rank_positions,
    score_from_features,
    tau_as,
)


#: Scores drawn from a few values so ties are common, with both zeros, both
#: infinities and NaN among them.
_TIED_SCORES = st.lists(
    st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25, np.inf, -np.inf, np.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
    min_size=1, max_size=40,
)


class TestRankNodes:
    @settings(max_examples=300, deadline=None)
    @given(values=_TIED_SCORES, data=st.data())
    def test_matches_the_stable_argsort(self, values, data):
        scores = np.array(values, dtype=np.float64)
        nodes = data.draw(st.lists(st.integers(0, scores.size - 1), max_size=6))
        ranks = rank_nodes(scores, nodes)
        assert ranks.dtype == np.intp
        assert np.array_equal(ranks, rank_positions(scores)[nodes])

    def test_nan_ranks_last_in_index_order(self):
        scores = np.array([np.nan, 1.0, np.nan, -np.inf, 1.0])
        assert rank_nodes(scores, [0, 1, 2, 3, 4]).tolist() == [3, 0, 4, 2, 1]


class TestScoreFromFeatures:
    def test_zero_on_the_line(self):
        fit = PowerLawFit(beta0=0.0, beta1=1.0)  # expected E = N
        n = np.array([2.0, 5.0])
        e = np.array([2.0, 5.0])
        np.testing.assert_allclose(score_from_features(n, e, fit), [0.0, 0.0])

    def test_grows_with_deviation(self):
        fit = PowerLawFit(beta0=0.0, beta1=1.0)
        n = np.array([4.0, 4.0, 4.0])
        e = np.array([4.0, 8.0, 16.0])
        scores = score_from_features(n, e, fit)
        assert scores[0] < scores[1] < scores[2]

    def test_symmetric_in_direction(self):
        """Above-line and below-line deviations both score positive."""
        fit = PowerLawFit(beta0=0.0, beta1=1.0)
        n = np.array([8.0, 8.0])
        e = np.array([16.0, 4.0])
        scores = score_from_features(n, e, fit)
        assert (scores > 0).all()

    def test_eq3_closed_form(self):
        fit = PowerLawFit(beta0=0.0, beta1=1.0)
        n = np.array([4.0])
        e = np.array([10.0])
        expected = (10.0 / 4.0) * np.log(abs(10.0 - 4.0) + 1.0)
        assert score_from_features(n, e, fit)[0] == pytest.approx(expected)

    def test_isolated_nodes_zero(self):
        fit = PowerLawFit(beta0=0.0, beta1=1.0)
        scores = score_from_features(np.array([0.0, 3.0]), np.array([0.0, 3.0]), fit)
        assert scores[0] == 0.0


class TestAnomalyScores:
    def test_star_hub_scores_highest(self):
        # A big star attached to a homogeneous background.
        g = erdos_renyi(80, 0.1, rng=0)
        for v in range(1, 60):
            if not g.has_edge(0, v):
                g.add_edge(0, v)
        scores = OddBall().scores(g)
        assert scores[0] == scores.max()

    def test_all_scores_non_negative(self, small_ba_graph):
        assert (OddBall().scores(small_ba_graph) >= 0).all()

    def test_fit_is_returned(self, small_er_graph):
        report = OddBall().analyze(small_er_graph)
        assert len(report.scores) == small_er_graph.number_of_nodes
        assert 0.5 <= report.fit.beta1 <= 2.5  # the paper's power-law exponent range

    def test_poisoning_changes_regression(self, small_er_graph):
        """Scoring is re-fit per graph: removing edges moves everyone's score."""
        adjacency = small_er_graph.adjacency
        fit_before = OddBall().analyze(adjacency).fit
        g = Graph(adjacency)
        edges = list(g.edges())[:10]
        for u, v in edges:
            if g.degree(u) > 1 and g.degree(v) > 1:
                g.remove_edge(u, v)
        fit_after = OddBall().analyze(g).fit
        assert fit_before.beta0 != fit_after.beta0

    def test_score_bounds_its_log_distance(self, small_ba_graph):
        """Eq. 3 is ``ln(|E − Ê| + 1)`` times a ratio >= 1, so never below it."""
        report = OddBall().analyze(small_ba_graph)
        expected = report.fit.predict_e(report.n_feature)
        distance = np.log(np.abs(report.e_feature - expected) + 1.0)
        assert (distance >= 0).all()
        assert (distance <= report.scores + 1e-9).all()


class TestTauAs:
    def test_relative_decrease(self):
        assert tau_as(4.0, 1.0) == 0.75
        assert tau_as(2.0, 3.0) == -0.5

    @pytest.mark.parametrize("before", [0.0, -1.0])
    def test_zero_without_a_clean_score(self, before):
        assert tau_as(before, 0.5) == 0.0
