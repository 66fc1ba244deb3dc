"""Tests for flip-validity rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.constraints import (
    creates_singleton,
    filter_valid_flips,
    filter_valid_flips_engine,
    no_singleton_mask,
    sign_valid_mask,
)
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.oddball.surrogate import DenseSurrogateEngine, SparseSurrogateEngine

ENGINES = {"dense": DenseSurrogateEngine, "sparse": SparseSurrogateEngine}


class TestSignValidMask:
    def test_add_needs_negative_gradient(self):
        adjacency = np.zeros((2, 2))
        gradient = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert sign_valid_mask(adjacency, gradient)[0, 1]
        assert not sign_valid_mask(adjacency, -gradient)[0, 1]

    def test_delete_needs_positive_gradient(self):
        adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
        gradient = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert sign_valid_mask(adjacency, gradient)[0, 1]
        assert not sign_valid_mask(adjacency, -gradient)[0, 1]

    def test_diagonal_never_valid(self):
        adjacency = np.zeros((3, 3))
        gradient = -np.ones((3, 3))
        assert not np.diagonal(sign_valid_mask(adjacency, gradient)).any()


class TestNoSingletonMask:
    def test_deleting_last_edge_blocked(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        mask = no_singleton_mask(g.adjacency)
        assert not mask[0, 1]  # node 0 has degree 1
        assert not mask[1, 2]  # node 2 has degree 1

    def test_additions_always_allowed(self):
        g = Graph.from_edges(3, [(0, 1)])
        mask = no_singleton_mask(g.adjacency)
        assert mask[0, 2] and mask[1, 2]

    def test_safe_deletion_allowed(self, triangle_graph):
        mask = no_singleton_mask(triangle_graph.adjacency)
        assert mask[0, 1]  # everyone has degree 2


class TestCreatesSingleton:
    def test_cases(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        adjacency = g.adjacency
        assert creates_singleton(adjacency, 0, 1)  # node 0 degree 1
        assert not creates_singleton(adjacency, 1, 2)
        assert not creates_singleton(adjacency, 0, 2)  # an addition


class TestFilterValidFlips:
    def test_respects_limit(self, small_er_graph):
        candidates = list(small_er_graph.edges())
        accepted = filter_valid_flips(small_er_graph.adjacency, candidates, limit=3)
        assert len(accepted) <= 3

    def test_skips_diagonal_and_duplicates(self):
        adjacency = np.zeros((4, 4))
        accepted = filter_valid_flips(adjacency, [(1, 1), (0, 1), (1, 0), (2, 3)])
        assert accepted == [(0, 1), (2, 3)]

    def test_forbidden_pairs_skipped(self):
        adjacency = np.zeros((4, 4))
        accepted = filter_valid_flips(adjacency, [(0, 1), (2, 3)], forbidden=[(0, 1)])
        assert accepted == [(2, 3)]

    def test_sequential_validity(self):
        """A pair valid initially can become invalid after earlier flips."""
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        # Deleting (0,1) is invalid immediately (node 0 singleton), but after
        # adding (0,2) it becomes legal.
        accepted = filter_valid_flips(g.adjacency, [(0, 2), (0, 1)])
        assert accepted == [(0, 2), (0, 1)]
        accepted_reversed = filter_valid_flips(g.adjacency, [(0, 1), (0, 2)])
        assert accepted_reversed == [(0, 2)]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 15), st.integers(1, 10))
    def test_output_always_applies_cleanly(self, n, limit):
        g = erdos_renyi(n, 0.4, rng=n)
        rng = np.random.default_rng(0)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(pairs)
        accepted = filter_valid_flips(g.adjacency, pairs, limit=limit)
        # applying them yields a valid simple graph with no singletons beyond
        # those already present
        scratch = g.adjacency
        for u, v in accepted:
            scratch[u, v] = scratch[v, u] = 1.0 - scratch[u, v]
        degrees_before = g.degrees()
        degrees_after = scratch.sum(axis=1)
        newly_isolated = ((degrees_after == 0) & (degrees_before > 0)).sum()
        assert newly_isolated == 0


class TestFilterValidFlipsEngine:
    """The engine pass equals the dense scratch-copy pass and never mutates."""

    @staticmethod
    def _case(seed):
        # sparse enough that many deletions would isolate a degree-1 node
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 25))
        g = erdos_renyi(n, 2.5 / n, rng=seed)
        pairs = [(int(i), int(j)) for i in range(n) for j in range(n)]
        rng.shuffle(pairs)
        edges = list(g.edges())
        forbidden = [edges[k] for k in rng.permutation(len(edges))[:2]] + [pairs[0]]
        return g, pairs, forbidden

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scratch_copy_pass(self, backend, seed):
        g, pairs, forbidden = self._case(seed)
        engine = ENGINES[backend](g, [0])
        for limit in (None, 1, 5):
            for banned in (None, forbidden):
                expected = filter_valid_flips(
                    g.adjacency, pairs, limit=limit, forbidden=banned
                )
                assert filter_valid_flips_engine(
                    engine, iter(pairs), limit=limit, forbidden=banned
                ) == expected

    def test_degree_shifts_accumulate_within_a_pass(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        engine = SparseSurrogateEngine(g, [1])
        # deleting (1, 2) drops node 2 to degree 1, so (2, 3) is refused
        # until adding (0, 2) lifts it again; (0, 1) would then isolate 1
        candidates = [(1, 2), (2, 3), (0, 2), (3, 2), (0, 1)]
        assert filter_valid_flips_engine(engine, candidates) == filter_valid_flips(
            g.adjacency, candidates
        ) == [(1, 2), (0, 2), (2, 3)]

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_pass_leaves_the_engine_untouched(self, backend, monkeypatch):
        g, pairs, forbidden = self._case(3)
        engine = ENGINES[backend](g, [0])
        token = engine.checkpoint()
        loss = engine.current_loss()
        version = engine._features.version if backend == "sparse" else None

        def refuse(*_):
            raise AssertionError("the validity pass must not flip the engine")

        monkeypatch.setattr(engine, "push_flip", refuse)
        monkeypatch.setattr(engine, "pop_flips", refuse)
        accepted = filter_valid_flips_engine(engine, pairs, forbidden=forbidden)
        assert accepted
        assert engine.checkpoint() == token
        assert engine.current_loss() == loss
        if backend == "sparse":
            assert engine._features.version == version
