"""Tests for the differentiable attack objective."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.oddball.surrogate import (
    adjacency_gradient,
    log_features,
    surrogate_loss,
    surrogate_loss_numpy,
    target_residuals,
)


class TestLogFeatures:
    def test_values_match_direct_computation(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        n, e, log_n, log_e = log_features(Tensor(adjacency))
        np.testing.assert_allclose(log_n.data, np.log(np.maximum(n.data, 1.0)))
        np.testing.assert_allclose(log_e.data, np.log(np.maximum(e.data, 1.0)))

    def test_floor_guards_singletons(self):
        adjacency = np.zeros((3, 3))
        _, _, log_n, log_e = log_features(Tensor(adjacency), floor=1.0)
        np.testing.assert_allclose(log_n.data, np.zeros(3))
        np.testing.assert_allclose(log_e.data, np.zeros(3))

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            log_features(Tensor(np.zeros((2, 2))), floor=0.0)


class TestSurrogateLoss:
    def test_scalar_non_negative(self, small_er_graph):
        loss = surrogate_loss(Tensor(small_er_graph.adjacency), [0, 1])
        assert loss.data.size == 1
        assert float(loss.data) >= 0.0

    def test_matches_manual_residuals(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        targets = [2, 5, 7]
        residuals = target_residuals(Tensor(adjacency), targets)
        loss = surrogate_loss(Tensor(adjacency), targets)
        assert float(loss.data) == pytest.approx(float((residuals.data**2).sum()))

    def test_target_validation(self, small_er_graph):
        adjacency = Tensor(small_er_graph.adjacency)
        with pytest.raises(ValueError, match="empty"):
            surrogate_loss(adjacency, [])
        with pytest.raises(ValueError, match="unique"):
            surrogate_loss(adjacency, [1, 1])
        with pytest.raises(ValueError, match="range"):
            surrogate_loss(adjacency, [1000])

    def test_numpy_wrapper_matches(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        targets = [0, 3]
        assert surrogate_loss_numpy(adjacency, targets) == pytest.approx(
            float(surrogate_loss(Tensor(adjacency), targets).data)
        )

    def test_numpy_wrapper_accepts_scipy_sparse(self, small_er_graph):
        """Regression: ``np.asarray`` used to wrap a sparse matrix in a 0-d
        object array instead of densifying — CSR is now evaluated natively."""
        from scipy import sparse

        adjacency = small_er_graph.adjacency
        targets = [0, 3]
        dense_loss = surrogate_loss_numpy(adjacency, targets)
        sparse_loss = surrogate_loss_numpy(sparse.csr_matrix(adjacency), targets)
        assert sparse_loss == dense_loss

    def test_numpy_wrapper_sparse_honours_floor_and_weights(self, small_er_graph):
        from scipy import sparse

        adjacency = small_er_graph.adjacency
        targets = [0, 3]
        weights = [2.0, 0.5]
        assert surrogate_loss_numpy(
            sparse.csr_matrix(adjacency), targets, weights, floor=2.0
        ) == pytest.approx(
            surrogate_loss_numpy(adjacency, targets, weights, floor=2.0), rel=1e-12
        )


class TestAdjacencyGradient:
    def test_symmetric_zero_diagonal(self, small_er_graph):
        grad = adjacency_gradient(small_er_graph.adjacency, [0, 1])
        np.testing.assert_allclose(grad, grad.T)
        np.testing.assert_allclose(np.diagonal(grad), 0.0)

    def test_matches_finite_difference_on_pair(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        targets = [0, 4]
        grad = adjacency_gradient(adjacency, targets)
        eps = 1e-5
        for (i, j) in [(2, 7), (0, 9), (5, 6)]:
            plus, minus = adjacency.copy(), adjacency.copy()
            plus[i, j] += eps
            plus[j, i] += eps
            minus[i, j] -= eps
            minus[j, i] -= eps
            numeric = (
                surrogate_loss_numpy(plus, targets) - surrogate_loss_numpy(minus, targets)
            ) / (2 * eps)
            assert grad[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_gradient_identifies_improving_flip(self, small_ba_graph):
        """Flipping the most negative-gradient non-edge decreases the loss."""
        from repro.oddball.detector import OddBall

        adjacency = small_ba_graph.adjacency
        targets = OddBall().analyze(small_ba_graph).top_k(2).tolist()
        before = surrogate_loss_numpy(adjacency, targets)
        grad = adjacency_gradient(adjacency, targets)
        masked = np.where(adjacency == 0.0, grad, np.inf)
        np.fill_diagonal(masked, np.inf)
        i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        if masked[i, j] < 0:  # an improving addition exists
            poisoned = adjacency.copy()
            poisoned[i, j] = poisoned[j, i] = 1.0
            assert surrogate_loss_numpy(poisoned, targets) < before


class TestTargetsConsumedOnce:
    """Regression: ``targets`` used to be consumed twice, so a one-shot
    generator exhausted in ``target_residuals`` left the weight validation
    seeing zero targets."""

    def test_generator_targets_with_weights(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        expected = surrogate_loss_numpy(adjacency, [2, 5, 7], weights=[1.0, 2.0, 0.5])
        got = surrogate_loss_numpy(
            adjacency, (t for t in [2, 5, 7]), weights=[1.0, 2.0, 0.5]
        )
        assert got == expected

    def test_generator_targets_tensor_path(self, small_er_graph):
        tensor = Tensor(small_er_graph.adjacency)
        expected = float(surrogate_loss(tensor, [2, 5], weights=[1.0, 3.0]).data)
        got = float(
            surrogate_loss(tensor, iter([2, 5]), weights=[1.0, 3.0]).data
        )
        assert got == expected

    def test_generator_targets_gradient_path(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        expected = adjacency_gradient(adjacency, [1, 4], weights=[2.0, 1.0])
        got = adjacency_gradient(adjacency, iter([1, 4]), weights=[2.0, 1.0])
        np.testing.assert_array_equal(got, expected)


class TestSurrogateLossNumpyFloor:
    """Regression: the numpy evaluation hard-coded ``floor=1.0``."""

    def test_floor_is_plumbed_through(self):
        # a graph with a degree-1 node so the clamp actually bites
        adjacency = np.zeros((5, 5))
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]:
            adjacency[u, v] = adjacency[v, u] = 1.0
        adjacency[3, 4] = adjacency[4, 3] = 1.0  # node 4 has degree 1
        targets = [0, 4]
        # floor=2.0 clamps the degree-1 node's features (N=1 < 2)
        at_two = surrogate_loss_numpy(adjacency, targets, floor=2.0)
        at_one = surrogate_loss_numpy(adjacency, targets, floor=1.0)
        assert at_two != at_one
        expected = float(
            surrogate_loss(Tensor(adjacency), targets, floor=2.0).data
        )
        assert at_two == expected


class TestFeaturePath:
    def test_loss_from_features_matches_dense(self, small_ba_graph):
        from repro.graph.features import egonet_features
        from repro.oddball.surrogate import surrogate_loss_from_features

        adjacency = small_ba_graph.adjacency
        targets = [0, 7, 13]
        n_feature, e_feature = egonet_features(adjacency)
        for floor in (1.0, 0.5):
            for weights in (None, [1.0, 2.0, 0.5]):
                got = surrogate_loss_from_features(
                    n_feature, e_feature, targets, floor=floor, weights=weights
                )
                expected = surrogate_loss_numpy(
                    adjacency, targets, weights, floor=floor
                )
                assert got == expected  # bit-for-bit, not approx

    def test_public_feature_wrappers_validate_targets(self, small_ba_graph):
        """The feature-space entry points validate what the engines'
        ``__init__``/``retarget`` validate, and accept one-shot iterables."""
        from repro.graph.features import egonet_features
        from repro.oddball.surrogate import (
            feature_gradients,
            surrogate_loss_from_features,
        )

        features = egonet_features(small_ba_graph.adjacency)
        for entry in (surrogate_loss_from_features, feature_gradients):
            with pytest.raises(ValueError, match="empty"):
                entry(*features, [])
            with pytest.raises(ValueError, match="unique"):
                entry(*features, [1, 1])
            with pytest.raises(ValueError, match="range"):
                entry(*features, [1000])
        assert surrogate_loss_from_features(
            *features, (t for t in [0, 7])
        ) == surrogate_loss_from_features(*features, [0, 7])

    def test_feature_gradients_match_autograd(self, small_ba_graph):
        """(∂L/∂N, ∂L/∂E) composed into pair gradients equals autograd."""
        from repro.oddball.surrogate import adjacency_gradient

        adjacency = small_ba_graph.adjacency
        n = adjacency.shape[0]
        targets = [0, 7]
        rows, cols = np.triu_indices(n, k=1)
        for floor in (1.0, 0.5):
            dense = adjacency_gradient(adjacency, targets, floor=floor)
            scattered = adjacency_gradient(
                adjacency, targets, floor=floor, candidates=(rows, cols)
            )
            np.testing.assert_allclose(
                scattered, dense[rows, cols], rtol=1e-9, atol=1e-12
            )


class TestCandidateGradient:
    def test_subset_matches_dense_entries(self, small_er_graph):
        from repro.attacks.candidates import CandidateSet

        adjacency = small_er_graph.adjacency
        targets = [3, 9]
        candidate_set = CandidateSet.target_incident(adjacency.shape[0], targets)
        dense = adjacency_gradient(adjacency, targets)
        scattered = adjacency_gradient(adjacency, targets, candidates=candidate_set)
        np.testing.assert_allclose(
            scattered,
            dense[candidate_set.rows, candidate_set.cols],
            rtol=1e-9,
            atol=1e-12,
        )

    def test_weighted_subset_matches_dense_entries(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        targets = [3, 9]
        weights = [2.0, 0.25]
        rows = np.array([0, 1, 5])
        cols = np.array([4, 2, 30])
        dense = adjacency_gradient(adjacency, targets, weights=weights)
        scattered = adjacency_gradient(
            adjacency, targets, weights=weights, candidates=(rows, cols)
        )
        np.testing.assert_allclose(scattered, dense[rows, cols], rtol=1e-9, atol=1e-12)

    def test_sparse_adjacency_and_precomputed_features(self, small_ba_graph):
        from scipy import sparse

        from repro.graph.features import egonet_features

        adjacency = small_ba_graph.adjacency
        targets = [0, 5]
        rows = np.array([0, 3])
        cols = np.array([12, 40])
        features = egonet_features(adjacency)
        from_sparse = adjacency_gradient(
            sparse.csr_matrix(adjacency),
            targets,
            candidates=(rows, cols),
            features=features,
        )
        from_dense = adjacency_gradient(adjacency, targets, candidates=(rows, cols))
        np.testing.assert_allclose(from_sparse, from_dense, rtol=1e-12)

    def test_empty_candidates(self, small_er_graph):
        out = adjacency_gradient(
            small_er_graph.adjacency,
            [0],
            candidates=(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)),
        )
        assert out.shape == (0,)

    def test_non_canonical_candidates_rejected(self, small_er_graph):
        with pytest.raises(ValueError, match="canonical"):
            adjacency_gradient(
                small_er_graph.adjacency,
                [0],
                candidates=(np.array([3]), np.array([1])),
            )


class TestNegativeCandidateIndices:
    def test_negative_row_rejected(self, small_er_graph):
        with pytest.raises(ValueError, match="canonical"):
            adjacency_gradient(
                small_er_graph.adjacency,
                [0],
                candidates=(np.array([-3]), np.array([2])),
            )
