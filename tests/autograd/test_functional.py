"""Tests for composite losses and activations."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor


class TestMSE:
    def test_value(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_sum_reduction(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]), reduction="sum")
        assert loss.item() == pytest.approx(5.0)

    def test_none_reduction(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]), reduction="none")
        np.testing.assert_allclose(loss.data, [1.0, 4.0])

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            F.mse_loss(Tensor([1.0]), Tensor([0.0]), reduction="bogus")

    def test_gradient(self):
        assert gradcheck(lambda p: F.mse_loss(p, Tensor([1.0, -1.0])), [np.array([0.3, 0.7])])


class TestSoftmaxFamily:
    def test_log_softmax_normalises(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
        probs = F.log_softmax(logits).exp().data
        assert probs.sum() == pytest.approx(1.0)

    def test_log_softmax_stable_for_huge_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0]]))
        out = F.log_softmax(logits).data
        assert np.isfinite(out).all()

    def test_softmax_matches_numpy(self):
        x = np.array([[0.5, -1.0, 2.0]])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(F.softmax(Tensor(x)).data, expected, atol=1e-12)

    def test_nll_loss_picks_targets(self):
        log_probs = F.log_softmax(Tensor(np.array([[2.0, 0.0], [0.0, 2.0]])))
        loss = F.nll_loss(log_probs, [0, 1])
        assert loss.item() == pytest.approx(-np.log(np.exp(2) / (np.exp(2) + 1)))

    def test_nll_loss_shape_check(self):
        with pytest.raises(ValueError):
            F.nll_loss(Tensor([0.0, 1.0]), [0])


class TestBCEWithLogits:
    def test_matches_reference(self):
        logits = np.array([0.5, -1.0, 3.0])
        targets = np.array([1.0, 0.0, 1.0])
        expected = np.mean(
            np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
        )
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets))
        assert loss.item() == pytest.approx(expected)

    def test_stable_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), Tensor([1.0, 0.0])
        )
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_gradient(self):
        targets = Tensor([1.0, 0.0])
        assert gradcheck(
            lambda z: F.binary_cross_entropy_with_logits(z, targets),
            [np.array([0.3, -0.4])],
        )


class TestMarginRankingLoss:
    def test_zero_when_margin_satisfied(self):
        loss = F.margin_ranking_loss(Tensor([5.0]), Tensor([1.0]), Tensor([1.0]))
        assert loss.item() == 0.0

    def test_linear_when_violated(self):
        loss = F.margin_ranking_loss(Tensor([1.0]), Tensor([2.0]), Tensor([0.5]))
        assert loss.item() == pytest.approx(1.5)

    def test_vector_margins(self):
        loss = F.margin_ranking_loss(
            Tensor([1.0, 5.0]), Tensor([1.0, 1.0]), Tensor([0.5, 0.5]), reduction="none"
        )
        np.testing.assert_allclose(loss.data, [0.5, 0.0])


class TestHelpers:
    def test_one_hot(self):
        out = F.one_hot([0, 2, 1], 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_range_check(self):
        with pytest.raises(ValueError):
            F.one_hot([3], 3)

    def test_dropout_mask_scale(self):
        rng = np.random.default_rng(0)
        mask = F.dropout_mask((10000,), 0.25, rng)
        kept = mask > 0
        assert kept.mean() == pytest.approx(0.75, abs=0.02)
        assert mask[kept][0] == pytest.approx(1.0 / 0.75)

    def test_dropout_mask_rejects_bad_p(self):
        with pytest.raises(ValueError):
            F.dropout_mask((2,), 1.0, np.random.default_rng(0))

    def test_pairwise_squared_distances(self):
        x = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        d = F.pairwise_squared_distances(x).data
        assert d[0, 1] == pytest.approx(25.0)
        assert d[0, 0] == pytest.approx(0.0)

    def test_masked_mean(self):
        values = Tensor([1.0, 2.0, 3.0])
        assert F.masked_mean(values, [True, False, True]).item() == pytest.approx(2.0)

    def test_masked_mean_empty_raises(self):
        with pytest.raises(ValueError):
            F.masked_mean(Tensor([1.0]), [False])
