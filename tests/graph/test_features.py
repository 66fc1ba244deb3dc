"""Tests for egonet feature extraction (N, E) — numpy and tensor versions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor
from repro.graph.features import (
    egonet_features,
    egonet_features_bruteforce,
    egonet_features_tensor,
)
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph


class TestKnownStructures:
    def test_star(self, star_graph):
        n, e = egonet_features(star_graph.adjacency_view)
        assert n[0] == 7 and e[0] == 7  # hub: 7 spokes, no triangles
        assert n[1] == 1 and e[1] == 1  # leaf: hub only, one edge

    def test_clique(self):
        g = Graph.complete(5)
        n, e = egonet_features(g.adjacency_view)
        assert (n == 4).all()
        assert (e == 10).all()  # the whole K5 is everyone's egonet

    def test_triangle(self, triangle_graph):
        n, e = egonet_features(triangle_graph.adjacency_view)
        assert (n == 2).all() and (e == 3).all()

    def test_isolated_node(self):
        g = Graph.empty(3)
        n, e = egonet_features(g.adjacency_view)
        assert (n == 0).all() and (e == 0).all()

    def test_power_law_bounds(self, small_ba_graph):
        """E between N (star) and N(N+1)/2 (clique) for every node."""
        n, e = egonet_features(small_ba_graph.adjacency_view)
        assert (e >= n - 1e-9).all()
        assert (e <= n * (n + 1) / 2 + 1e-9).all()


class TestOracleAgreement:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 30), st.floats(0.05, 0.6))
    def test_vectorized_matches_bruteforce(self, n, p):
        g = erdos_renyi(n, p, rng=0)
        n_vec, e_vec = egonet_features(g.adjacency_view)
        n_ref, e_ref = egonet_features_bruteforce(g)
        np.testing.assert_allclose(n_vec, n_ref)
        np.testing.assert_allclose(e_vec, e_ref)

    def test_tensor_matches_numpy(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        n_np, e_np = egonet_features(adjacency)
        n_t, e_t = egonet_features_tensor(Tensor(adjacency))
        np.testing.assert_allclose(n_t.data, n_np)
        np.testing.assert_allclose(e_t.data, e_np)

    def test_fractional_adjacency_accepted(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        n, e = egonet_features(a)
        np.testing.assert_allclose(n, [0.5, 0.5])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            egonet_features(np.zeros((2, 3)))


class TestTensorGradients:
    def test_gradcheck_small_graph(self, triangle_graph):
        adjacency = triangle_graph.adjacency

        def fn(a):
            n, e = egonet_features_tensor(a)
            return (n * 2.0 + e).sum()

        assert gradcheck(fn, [adjacency], atol=1e-3, rtol=1e-3)

    def test_gradient_flows_through_triangle_term(self):
        adjacency = Graph.complete(4).adjacency
        tensor = Tensor(adjacency, requires_grad=True)
        _, e = egonet_features_tensor(tensor)
        e.sum().backward()
        assert tensor.grad is not None
        assert np.abs(tensor.grad).sum() > 0
