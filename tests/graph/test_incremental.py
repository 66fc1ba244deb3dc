"""Tests for the incremental egonet-feature engine (dense oracle)."""

import numpy as np
import pytest
from scipy import sparse

from repro.graph.features import egonet_features
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.incremental import IncrementalEgonetFeatures


def _assert_matches_dense(engine, adjacency):
    n_ref, e_ref = egonet_features(adjacency)
    np.testing.assert_array_equal(engine.n_feature, n_ref)
    np.testing.assert_array_equal(engine.e_feature, e_ref)


class TestInitialisation:
    def test_matches_dense_features(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        _assert_matches_dense(engine, small_ba_graph.adjacency)

    def test_accepts_dense_and_sparse(self, small_er_graph):
        dense = small_er_graph.adjacency
        for source in (dense, sparse.csr_matrix(dense)):
            engine = IncrementalEgonetFeatures(source)
            _assert_matches_dense(engine, dense)

    def test_rejects_invalid_adjacency(self):
        with pytest.raises(ValueError, match="symmetric"):
            IncrementalEgonetFeatures(np.triu(np.ones((4, 4)), k=1))


class TestFlip:
    def test_random_flip_sequence_stays_exact(self):
        """Bit-for-bit agreement with a fresh recompute after every flip."""
        rng = np.random.default_rng(0)
        graph = erdos_renyi(30, 0.2, rng=1)
        engine = IncrementalEgonetFeatures(graph)
        dense = graph.adjacency
        for _ in range(40):
            u, v = rng.integers(0, 30, size=2)
            if u == v:
                continue
            engine.flip(u, v)
            dense[u, v] = dense[v, u] = 1.0 - dense[u, v]
            _assert_matches_dense(engine, dense)

    def test_add_then_delete_roundtrip(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        before = engine.features()
        engine.flip(0, 1)
        engine.flip(0, 1)
        after = engine.features()
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_flip_bookkeeping(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(5, 2)
        engine.flip(1, 3)
        assert engine.flips == [(2, 5), (1, 3)]

    def test_rejects_diagonal(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        with pytest.raises(ValueError, match="diagonal"):
            engine.flip(3, 3)

    def test_rejects_out_of_range(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        with pytest.raises(ValueError, match="out of range"):
            engine.flip(0, small_ba_graph.number_of_nodes)


class TestRollback:
    def test_rollback_restores_exact_state(self):
        """flip → rollback returns features AND structure to bit-identical
        integer state, even across interleaved sequences."""
        rng = np.random.default_rng(3)
        graph = erdos_renyi(30, 0.2, rng=1)
        engine = IncrementalEgonetFeatures(graph)
        n_before, e_before = engine.features()
        neighbors_before = [set(engine.neighbors(i)) for i in range(30)]
        pairs = []
        for _ in range(15):
            u, v = rng.integers(0, 30, size=2)
            if u != v:
                engine.flip(u, v)
                pairs.append((u, v))
        engine.rollback(len(pairs))
        n_after, e_after = engine.features()
        np.testing.assert_array_equal(n_before, n_after)
        np.testing.assert_array_equal(e_before, e_after)
        assert [set(engine.neighbors(i)) for i in range(30)] == neighbors_before
        assert engine.flips == []

    def test_partial_rollback(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)
        engine.flip(2, 3)
        engine.flip(4, 5)
        engine.rollback(2)
        assert engine.flips == [(0, 1)]
        reference = IncrementalEgonetFeatures(small_ba_graph)
        reference.flip(0, 1)
        np.testing.assert_array_equal(engine.n_feature, reference.n_feature)
        np.testing.assert_array_equal(engine.e_feature, reference.e_feature)

    def test_rollback_restores_cached_csr(self, small_ba_graph):
        """Returning to a materialised state reuses its CSR without rebuild."""
        engine = IncrementalEgonetFeatures(small_ba_graph)
        clean_csr = engine.adjacency_csr()
        engine.flip(0, 1)
        engine.flip(10, 30)
        engine.rollback(2)
        assert engine.adjacency_csr() is clean_csr

    def test_csr_not_reused_for_different_state_at_same_depth(self, small_ba_graph):
        """flip A → rollback → flip B must NOT resurrect state A's CSR."""
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)
        flipped_csr = engine.adjacency_csr()
        engine.rollback(1)
        engine.flip(2, 3)
        rebuilt = engine.adjacency_csr()
        assert rebuilt is not flipped_csr
        np.testing.assert_array_equal(rebuilt.toarray(), engine.adjacency_csr().toarray())

    def test_rollback_validates_count(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)
        with pytest.raises(ValueError, match="roll back"):
            engine.rollback(2)
        with pytest.raises(ValueError, match="non-negative"):
            engine.rollback(-1)

    def test_rollback_zero_is_noop(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)
        engine.rollback(0)
        assert engine.flips == [(0, 1)]


def _assert_matches_fresh(engine):
    """Features and materialised CSR equal a from-scratch recomputation."""
    _assert_matches_dense(engine, engine._rebuild_csr().toarray())
    assert (engine.adjacency_csr() != engine._rebuild_csr()).nnz == 0


class TestFlipBatch:
    """``flip_batch`` is the in-order flip loop, applied all or none."""

    def test_interleaved_flips_batches_rollbacks(self):
        graph = barabasi_albert(80, 3, rng=11)
        engine = IncrementalEgonetFeatures(graph)
        clean_n, clean_e = engine.features()
        rng = np.random.default_rng(3)
        rows, cols = rng.integers(0, 80, size=(2, 40))
        pairs = [(int(u), int(v)) for u, v in zip(rows, cols) if u != v]

        for u, v in pairs[:5]:
            engine.flip(u, v)
        _assert_matches_fresh(engine)
        engine.flip_batch(pairs[5:25])
        _assert_matches_fresh(engine)
        engine.rollback(7)
        _assert_matches_fresh(engine)
        engine.flip_batch(pairs[25:])
        _assert_matches_fresh(engine)
        engine.rollback(engine.depth)
        _assert_matches_fresh(engine)
        np.testing.assert_array_equal(engine.n_feature, clean_n)
        np.testing.assert_array_equal(engine.e_feature, clean_e)

    def test_repeated_pair_in_one_batch_is_apply_then_undo(self, small_er_graph):
        engine = IncrementalEgonetFeatures(small_er_graph)
        was_edge = engine.is_edge(1, 2)
        engine.flip_batch([(1, 2), (3, 4), (2, 1), (1, 2)])
        assert engine.flips == [(1, 2), (3, 4), (1, 2), (1, 2)]
        assert engine.is_edge(1, 2) != was_edge
        _assert_matches_fresh(engine)
        engine.flip_batch([(1, 2)])
        assert engine.is_edge(1, 2) == was_edge
        _assert_matches_fresh(engine)

    def test_structure_queries_after_a_batch(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip_batch([(0, 1), (0, 2), (5, 9), (0, 1)])
        dense = engine._rebuild_csr().toarray()
        for node in (0, 1, 2, 5, 9, 17):
            assert engine.neighbors(node) == set(np.flatnonzero(dense[node]).tolist())
            assert engine.degree(node) == int(dense[node].sum())
            for other in range(engine.n):
                if other != node:
                    assert engine.is_edge(node, other) == bool(dense[node, other])

    def test_each_pair_gets_its_own_version(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)
        token = engine.version
        engine.flip_batch([(2, 3), (4, 5), (6, 7)])
        assert engine.depth == 4
        engine.rollback(3)
        assert engine.version == token

    def test_bad_pair_rejects_the_whole_batch(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(7, 8)
        depth, version = engine.depth, engine.version
        n_before, e_before = engine.features()
        rows_before = {u: set(row) for u, row in engine._rows.items()}
        with pytest.raises(ValueError, match="diagonal"):
            engine.flip_batch([(0, 1), (2, 3), (4, 4)])
        with pytest.raises(ValueError, match="out of range"):
            engine.flip_batch([(0, 1), (2, engine.n), (5, 5)])
        assert engine.depth == depth and engine.version == version
        np.testing.assert_array_equal(engine.n_feature, n_before)
        np.testing.assert_array_equal(engine.e_feature, e_before)
        assert engine._rows == rows_before

    def test_hub_batch_rolls_back_bit_for_bit(self):
        """Flips among the top-degree nodes, where the common-neighbour
        sets are largest, undo exactly."""
        graph = barabasi_albert(400, 4, rng=5)
        engine = IncrementalEgonetFeatures(graph)
        clean_n, clean_e = engine.features()
        hubs = np.argsort(-clean_n, kind="stable")[:8].tolist()
        pairs = [(u, v) for i, u in enumerate(hubs) for v in hubs[i + 1 :]]
        engine.flip_batch(pairs)
        _assert_matches_fresh(engine)
        engine.rollback(len(pairs))
        np.testing.assert_array_equal(engine.n_feature, clean_n)
        np.testing.assert_array_equal(engine.e_feature, clean_e)
        assert (engine.adjacency_csr() != engine._base).nnz == 0


class TestStructureQueries:
    def test_edge_and_degree_queries(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        engine = IncrementalEgonetFeatures(small_er_graph)
        for u in range(10):
            assert engine.degree(u) == int(adjacency[u].sum())
            for v in range(10):
                if u != v:
                    assert engine.is_edge(u, v) == bool(adjacency[u, v])

    def test_common_neighbors(self, small_ba_graph):
        adjacency = small_ba_graph.adjacency
        engine = IncrementalEgonetFeatures(small_ba_graph)
        squared = adjacency @ adjacency
        for u, v in [(0, 1), (2, 9), (4, 17)]:
            assert len(engine.common_neighbors(u, v)) == int(squared[u, v])

    def test_sorted_neighbors_is_the_sorted_set(self, small_ba_graph):
        """Untouched rows (base CSR) and flipped rows (override sets) alike
        come back as fresh sorted intp arrays."""
        engine = IncrementalEgonetFeatures(small_ba_graph)
        for u, v in [(0, 1), (0, 7), (3, 9), (0, 1)]:
            engine.flip(u, v)
        for u in range(small_ba_graph.number_of_nodes):
            row = engine.sorted_neighbors(u)
            assert row.dtype == np.intp
            assert row.tolist() == sorted(engine.neighbors(u))
            row[:] = -1
            assert engine.sorted_neighbors(u).tolist() == sorted(engine.neighbors(u))

    def test_is_edge_over_every_pair(self, small_er_graph):
        adjacency = small_er_graph.adjacency
        engine = IncrementalEgonetFeatures(small_er_graph)
        rows, cols = np.triu_indices(adjacency.shape[0], k=1)
        assert [engine.is_edge(int(u), int(v)) for u, v in zip(rows, cols)] == (
            (adjacency[rows, cols] == 1.0).tolist()
        )


class TestMaterialisation:
    def test_csr_tracks_flips(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        dense = small_ba_graph.adjacency
        engine.flip(0, 1)
        dense[0, 1] = dense[1, 0] = 1.0 - dense[0, 1]
        engine.flip(10, 30)
        dense[10, 30] = dense[30, 10] = 1.0 - dense[10, 30]
        np.testing.assert_array_equal(engine.adjacency_csr().toarray(), dense)
        rebuilt = engine.adjacency_csr()
        assert sparse.issparse(rebuilt)
        assert rebuilt is engine.adjacency_csr()  # cached until the next flip

    def test_large_graph_never_densified(self):
        graph = barabasi_albert(400, 2, rng=5)
        engine = IncrementalEgonetFeatures(sparse.csr_matrix(graph.adjacency))
        engine.flip(0, 399)
        assert engine.adjacency_csr().nnz == int(graph.adjacency.sum()) + 2


class TestIncrementalCsrFold:
    """The cached CSR is folded incrementally, never rebuilt per flip."""

    def test_fold_matches_rebuild_through_random_walk(self):
        graph = erdos_renyi(40, 0.15, rng=9)
        engine = IncrementalEgonetFeatures(graph)
        rng = np.random.default_rng(3)
        for step in range(30):
            u, v = rng.choice(40, size=2, replace=False)
            engine.flip(int(u), int(v))
            if step % 3 == 0:  # materialise at irregular intervals
                folded = engine.adjacency_csr()
                np.testing.assert_array_equal(
                    folded.toarray(), engine._rebuild_csr().toarray()
                )
            if step % 7 == 0 and engine.depth > 2:
                engine.rollback(2)
        np.testing.assert_array_equal(
            engine.adjacency_csr().toarray(), engine._rebuild_csr().toarray()
        )

    def test_fold_after_rollback_past_materialised_state(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)
        engine.flip(2, 3)
        engine.adjacency_csr()  # materialise mid-stack
        engine.rollback(2)
        engine.flip(4, 5)
        np.testing.assert_array_equal(
            engine.adjacency_csr().toarray(), engine._rebuild_csr().toarray()
        )

    def test_folded_csr_is_binary_with_no_stored_zeros(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 1)  # delete or add
        engine.flip(0, 1)  # and toggle straight back
        engine.flip(5, 7)
        csr = engine.adjacency_csr()
        assert np.all(csr.data == 1.0)

    def test_csr_with_delta_returns_cached_base_plus_overlay(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        base_before = engine.adjacency_csr()
        engine.flip(0, 1)
        engine.flip(2, 9)
        base, delta = engine.csr_with_delta()
        assert base is base_before  # the cache was NOT rebuilt
        overlay = {(u, v): sign for u, v, sign in delta}
        assert set(overlay) == {(0, 1), (2, 9)}
        dense = base.toarray()
        for (u, v), sign in overlay.items():
            dense[u, v] += sign
            dense[v, u] += sign
        np.testing.assert_array_equal(dense, engine._rebuild_csr().toarray())

    def test_csr_with_delta_folds_beyond_threshold(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.adjacency_csr()
        engine.flip(0, 1)
        engine.flip(2, 9)
        base, delta = engine.csr_with_delta(max_delta=1)
        assert delta == []
        np.testing.assert_array_equal(
            base.toarray(), engine._rebuild_csr().toarray()
        )

    def test_rebuild_degrees_match_per_node_loop(self, small_ba_graph):
        # _rebuild_csr derives degrees vectorised (np.diff over the base
        # indptr + one correction per override row); pin it against the
        # obvious per-node loop it replaced.
        engine = IncrementalEgonetFeatures(small_ba_graph)
        for u, v in [(0, 1), (2, 9), (0, 2), (7, 11), (0, 1)]:
            engine.flip(u, v)
        rebuilt = engine._rebuild_csr()
        loop_degrees = np.array(
            [engine.degree(i) for i in range(engine.n)], dtype=np.intp
        )
        np.testing.assert_array_equal(np.diff(rebuilt.indptr), loop_degrees)
        np.testing.assert_array_equal(
            rebuilt.toarray(), engine.adjacency_csr().toarray()
        )

    def test_depth_tracks_flip_stack(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        assert engine.depth == 0
        engine.flip(0, 1)
        engine.flip(2, 3)
        assert engine.depth == 2
        engine.rollback(1)
        assert engine.depth == 1


class TestLazyNeighbourRows:
    """Neighbour storage is lazy: construction materialises nothing, reads
    answer from the base CSR, and only flipped endpoints get override rows
    — the property that lets the engine sit on a read-only mmap."""

    def test_construction_materialises_no_rows(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        assert engine._rows == {}

    def test_reads_do_not_materialise(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        dense = small_ba_graph.adjacency_view
        for u in range(engine.n):
            assert engine.degree(u) == int(dense[u].sum())
            assert engine.neighbors(u) == set(np.flatnonzero(dense[u]).tolist())
            for v in range(engine.n):
                if u != v:
                    assert engine.is_edge(u, v) == bool(dense[u, v])
        assert engine._rows == {}

    def test_only_flip_endpoints_materialise(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        engine.flip(0, 3)
        engine.flip(3, 7)
        assert set(engine._rows) == {0, 3, 7}
        # rollback keeps the (still-correct) override rows
        engine.rollback(2)
        assert set(engine._rows) == {0, 3, 7}
        ref_n, ref_e = egonet_features(engine.adjacency_csr().toarray())
        np.testing.assert_array_equal(engine.n_feature, ref_n)
        np.testing.assert_array_equal(engine.e_feature, ref_e)

    def test_is_edge_mixes_base_and_overrides(self, small_ba_graph):
        engine = IncrementalEgonetFeatures(small_ba_graph)
        dense = small_ba_graph.adjacency_view.copy()
        engine.flip(0, 1)
        dense[0, 1] = dense[1, 0] = 1.0 - dense[0, 1]
        rows = np.array([0, 0, 2, 5])
        cols = np.array([1, 2, 4, 9])
        assert [engine.is_edge(int(u), int(v)) for u, v in zip(rows, cols)] == (
            (dense[rows, cols] == 1.0).tolist()
        )
