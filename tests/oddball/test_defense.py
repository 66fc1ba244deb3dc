"""Tests for the SVD graph-purification defence (reproduction extension)."""

import numpy as np
import pytest

from repro.attacks import BinarizedAttack
from repro.graph.generators import barabasi_albert
from repro.oddball.defense import purified_scores, svd_purify
from repro.oddball.detector import OddBall


class TestSvdPurify:
    def test_output_is_valid_simple_graph(self, small_ba_graph):
        purified = svd_purify(small_ba_graph.adjacency, rank=10)
        assert np.array_equal(purified, purified.T)
        assert set(np.unique(purified)) <= {0.0, 1.0}
        assert np.diagonal(purified).sum() == 0.0

    def test_full_rank_roundtrip(self, small_ba_graph):
        """Keeping every component reconstructs the graph exactly."""
        adjacency = small_ba_graph.adjacency
        purified = svd_purify(adjacency, rank=adjacency.shape[0])
        np.testing.assert_array_equal(purified, adjacency)

    def test_low_rank_simplifies(self, small_ba_graph):
        adjacency = small_ba_graph.adjacency
        purified = svd_purify(adjacency, rank=3)
        # a rank-3 thresholded reconstruction cannot keep every edge
        assert purified.sum() <= adjacency.sum()

    def test_rank_validation(self, small_ba_graph):
        with pytest.raises(ValueError):
            svd_purify(small_ba_graph.adjacency, rank=0)
        with pytest.raises(ValueError):
            svd_purify(small_ba_graph.adjacency, rank=10_000)

    def test_asymmetric_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            svd_purify(bad, rank=1)


class TestPurifiedScores:
    def test_scores_finite(self, small_ba_graph):
        scores = purified_scores(small_ba_graph.adjacency, rank=20)
        assert np.isfinite(scores).all()
        assert (scores >= 0).all()

    def test_degenerate_rank_raises(self):
        g = barabasi_albert(30, 2, rng=0)
        with pytest.raises(ValueError):
            # rank-1 thresholded reconstruction wipes almost every edge
            purified_scores(g.adjacency, rank=1, threshold=0.99)

    def test_mitigates_attack_somewhat(self):
        """Purification recovers part of the targets' score mass (or at
        least never helps the attacker) on a planted-anomaly graph."""
        g = barabasi_albert(120, 3, rng=5)
        detector = OddBall()
        report = detector.analyze(g)
        targets = report.top_k(3).tolist()
        result = BinarizedAttack(iterations=120).attack(
            g, targets, budget=10
        )
        poisoned = result.poisoned().toarray()

        before = report.scores[targets].sum()
        after_plain = detector.scores(poisoned)[targets].sum()
        rank = 40
        after_purified = purified_scores(poisoned, rank=rank)[targets].sum()
        baseline_purified = purified_scores(g.adjacency, rank=rank)[targets].sum()

        tau_plain = (before - after_plain) / before
        tau_purified = (baseline_purified - after_purified) / max(baseline_purified, 1e-9)
        # the purified pipeline should not amplify the attack
        assert tau_purified <= tau_plain + 0.15
