"""Tests for the sparse fast paths (dense implementations as oracle)."""

import numpy as np
import pytest
from scipy import sparse

from repro.graph.features import egonet_features
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.incremental import IncrementalEgonetFeatures
from repro.graph.sparse import (
    check_csr,
    content_hash,
    egonet_features_sparse,
    hash_edge_keys,
    key_positions,
    merge_novel,
    sorted_unique,
    to_sparse,
)


class TestToSparse:
    def test_accepts_graph_dense_and_sparse(self, small_er_graph):
        dense = small_er_graph.adjacency
        for source in (small_er_graph, dense, sparse.csr_matrix(dense)):
            matrix = to_sparse(source)
            assert sparse.issparse(matrix)
            np.testing.assert_array_equal(matrix.toarray(), dense)

    def test_rejects_asymmetric(self):
        bad = sparse.csr_matrix(np.triu(np.ones((4, 4)), k=1))
        with pytest.raises(ValueError, match="symmetric"):
            to_sparse(bad)

    def test_rejects_weighted(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 0.5
        with pytest.raises(ValueError, match="binary"):
            to_sparse(sparse.csr_matrix(dense))

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="diagonal"):
            to_sparse(sparse.eye(3, format="csr"))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            to_sparse(sparse.csr_matrix(np.zeros((2, 3))))


class TestSortedRows:
    """Sorted rows are part of "validated": every CSR the graph and attack
    layers hand on has ``has_sorted_indices`` set, and really is sorted."""

    @staticmethod
    def _unsorted(graph):
        csr = sparse.csr_matrix(graph.adjacency)
        indices = csr.indices.copy()
        for row in range(csr.shape[0]):
            start, stop = csr.indptr[row], csr.indptr[row + 1]
            indices[start:stop] = indices[start:stop][::-1]
        matrix = sparse.csr_matrix((csr.data, indices, csr.indptr), shape=csr.shape)
        assert not matrix.has_sorted_indices
        return matrix

    @staticmethod
    def _assert_sorted(matrix):
        assert matrix.has_sorted_indices
        check_csr(matrix.indptr, matrix.indices, [matrix.data])

    def test_to_sparse_sorts_a_copy(self, small_er_graph):
        unsorted = self._unsorted(small_er_graph)
        indices = unsorted.indices.copy()
        matrix = to_sparse(unsorted)
        self._assert_sorted(matrix)
        np.testing.assert_array_equal(unsorted.indices, indices)
        np.testing.assert_array_equal(matrix.toarray(), small_er_graph.adjacency)

    def test_apply_flips_output(self, small_er_graph):
        from repro.attacks import apply_flips

        self._assert_sorted(apply_flips(self._unsorted(small_er_graph), [(0, 1)]))

    def test_folded_csr_after_more_than_64_flips(self, small_er_graph):
        features = IncrementalEgonetFeatures(self._unsorted(small_er_graph))
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)][:65]
        for u, v in pairs:
            features.flip(u, v)
        folded, delta = features.csr_with_delta()
        assert delta == []
        self._assert_sorted(folded)
        expected = small_er_graph.adjacency.copy()
        for u, v in pairs:
            expected[u, v] = expected[v, u] = 1.0 - expected[u, v]
        np.testing.assert_array_equal(folded.toarray(), expected)


class TestSparseFeatures:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_er(self, seed):
        g = erdos_renyi(120, 0.05, rng=seed)
        n_dense, e_dense = egonet_features(g.adjacency_view)
        n_sparse, e_sparse = egonet_features_sparse(g)
        np.testing.assert_allclose(n_sparse, n_dense)
        np.testing.assert_allclose(e_sparse, e_dense)

    def test_matches_dense_ba(self):
        g = barabasi_albert(200, 4, rng=3)
        n_dense, e_dense = egonet_features(g.adjacency_view)
        n_sparse, e_sparse = egonet_features_sparse(g)
        np.testing.assert_allclose(n_sparse, n_dense)
        np.testing.assert_allclose(e_sparse, e_dense)

    def test_empty_graph(self):
        n, e = egonet_features_sparse(sparse.csr_matrix((5, 5)))
        np.testing.assert_allclose(n, 0.0)
        np.testing.assert_allclose(e, 0.0)

    def test_large_sparse_graph_memory_friendly(self):
        """A 5000-node sparse graph processes without densifying."""
        rng = np.random.default_rng(0)
        n = 5000
        rows = rng.integers(0, n, size=15000)
        cols = rng.integers(0, n, size=15000)
        mask = rows != cols
        rows, cols = rows[mask], cols[mask]
        matrix = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n)
        )
        matrix = ((matrix + matrix.T) > 0).astype(np.float64)
        matrix.setdiag(0.0)
        matrix.eliminate_zeros()
        n_feature, e_feature = egonet_features_sparse(matrix)
        assert len(n_feature) == n
        assert (e_feature >= n_feature - 1e-9).all()


class TestExplicitZeros:
    """Regression: CSR matrices carrying stored explicit zeros are valid
    binary adjacencies and must not be rejected."""

    def test_setdiag_zero_artifact_accepted(self, small_er_graph):
        dense = small_er_graph.adjacency
        matrix = sparse.csr_matrix(dense)
        matrix.setdiag(0.0)  # stores explicit zeros on the diagonal
        assert matrix.nnz > int(dense.sum())  # explicit zeros really present
        cleaned = to_sparse(matrix)
        np.testing.assert_array_equal(cleaned.toarray(), dense)
        assert cleaned.nnz == int(dense.sum())

    def test_stored_zero_entries_accepted(self):
        # build a CSR whose data array carries literal 0.0 entries
        data = np.array([1.0, 0.0, 0.0, 1.0])
        rows = np.array([0, 2, 3, 1])
        cols = np.array([1, 3, 2, 0])
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(4, 4))
        assert matrix.nnz == 4  # explicit zeros stored
        cleaned = to_sparse(matrix)
        assert cleaned.nnz == 2
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        np.testing.assert_array_equal(cleaned.toarray(), expected)

    def test_caller_matrix_not_mutated(self, small_er_graph):
        matrix = sparse.csr_matrix(small_er_graph.adjacency)
        matrix.setdiag(0.0)
        nnz_before = matrix.nnz
        to_sparse(matrix)
        assert matrix.nnz == nnz_before


class TestContentHash:
    """One hash per graph: the container and its index order never matter,
    the edge set and node count always do."""

    def test_matches_the_sorted_key_hash(self, small_er_graph):
        dense = small_er_graph.adjacency
        n = dense.shape[0]
        u, v = np.nonzero(np.triu(dense, k=1))
        assert content_hash(dense) == hash_edge_keys(n, u * n + v)

    def test_container_independent(self, small_er_graph):
        dense = small_er_graph.adjacency
        rows, cols = np.nonzero(dense)
        u, v = map(int, np.argwhere(np.triu(dense == 0, k=1))[0])
        with_zeros = sparse.csr_matrix(  # stored explicit zeros are not edges
            (
                np.r_[dense[rows, cols], 0.0, 0.0],
                (np.r_[rows, u, v], np.r_[cols, v, u]),
            ),
            shape=dense.shape,
        )
        assert with_zeros.nnz == rows.size + 2
        hashes = {
            content_hash(dense),
            content_hash(sparse.csr_matrix(dense)),
            content_hash(sparse.coo_matrix(dense)),
            content_hash(with_zeros),
        }
        assert len(hashes) == 1

    def test_node_count_and_edges_matter(self, small_er_graph):
        dense = small_er_graph.adjacency
        padded = np.zeros((dense.shape[0] + 1,) * 2)
        padded[:-1, :-1] = dense  # one isolated node more
        assert content_hash(padded) != content_hash(dense)
        u, v = map(int, np.argwhere(np.triu(dense, k=1))[0])
        flipped = dense.copy()
        flipped[u, v] = flipped[v, u] = 0.0
        assert content_hash(flipped) != content_hash(dense)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_content_hash_row_blocks_hash_like_one_key_array(block, monkeypatch):
    """Rows hashed a block at a time, including rows longer than a block,
    give the digest of the whole sorted key array."""
    import repro.graph.sparse as graph_sparse

    dense = barabasi_albert(80, 3, rng=1).adjacency
    n = dense.shape[0]
    u, v = np.nonzero(np.triu(dense, k=1))
    monkeypatch.setattr(graph_sparse, "_HASH_BLOCK", block)
    assert content_hash(dense) == hash_edge_keys(n, u * n + v)


class TestSortedKeyAlgebra:
    """sorted_unique / key_positions / merge_novel against numpy's set ops."""

    EMPTY = np.empty(0, dtype=np.int64)

    def test_sorted_unique_matches_np_unique(self):
        rng = np.random.default_rng(0)
        for size in (0, 1, 2, 50, 1000):
            keys = rng.integers(0, 40, size=size, dtype=np.int64)
            result = sorted_unique(keys)
            np.testing.assert_array_equal(result, np.unique(keys))
            assert result.dtype == np.int64
        keys = np.array([3, 1, 3], dtype=np.int64)
        sorted_unique(keys)
        np.testing.assert_array_equal(keys, [3, 1, 3])  # input untouched

    def test_key_positions_empty_inputs(self):
        positions, novel = key_positions(self.EMPTY, np.array([4, 9], dtype=np.int64))
        np.testing.assert_array_equal(positions, [0, 0])
        np.testing.assert_array_equal(novel, [True, True])
        positions, novel = key_positions(np.array([1, 5], dtype=np.int64), self.EMPTY)
        assert positions.size == 0 and novel.size == 0

    def test_key_positions_flags_members(self):
        keys = np.array([2, 5, 9], dtype=np.int64)
        positions, novel = key_positions(keys, np.array([0, 2, 6, 9, 12], dtype=np.int64))
        np.testing.assert_array_equal(positions, [0, 0, 2, 2, 3])
        np.testing.assert_array_equal(novel, [True, False, True, False, True])

    def test_merge_novel_empty_inputs(self):
        new = np.array([1, 4], dtype=np.int64)
        np.testing.assert_array_equal(merge_novel(self.EMPTY, new), new)
        keys = np.array([2, 3], dtype=np.int64)
        np.testing.assert_array_equal(merge_novel(keys, self.EMPTY), keys)
        assert merge_novel(self.EMPTY, self.EMPTY).size == 0

    def test_merge_novel_limit_zero_admits_nothing(self):
        keys = np.array([2, 3], dtype=np.int64)
        result = merge_novel(keys, np.array([0, 7], dtype=np.int64), limit=0)
        np.testing.assert_array_equal(result, keys)

    def test_merge_novel_all_present(self):
        keys = np.array([2, 3, 8, 11], dtype=np.int64)
        result = merge_novel(keys, np.array([3, 11], dtype=np.int64), limit=1)
        np.testing.assert_array_equal(result, keys)

    def test_merge_novel_none_present(self):
        keys = np.array([2, 3, 8], dtype=np.int64)
        new = np.array([0, 5, 9, 20], dtype=np.int64)
        np.testing.assert_array_equal(merge_novel(keys, new), [0, 2, 3, 5, 8, 9, 20])
        # the limit takes the smallest novel keys first
        np.testing.assert_array_equal(merge_novel(keys, new, limit=2), [0, 2, 3, 5, 8])

    def test_merge_novel_matches_union1d_setdiff1d(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            keys = np.unique(rng.integers(0, 60, size=rng.integers(0, 30)))
            new = np.unique(rng.integers(0, 60, size=rng.integers(0, 30)))
            limit = int(rng.integers(0, 12))
            fresh = np.setdiff1d(new, keys, assume_unique=True)
            np.testing.assert_array_equal(
                merge_novel(keys, new), np.union1d(keys, new)
            )
            np.testing.assert_array_equal(
                merge_novel(keys, new, limit=limit), np.union1d(keys, fresh[:limit])
            )


# --------------------------------------------------------------------- #
# Kernel backends: the symmetry walk and the key merge
# --------------------------------------------------------------------- #


def _entries(graph):
    """``(n, rows, cols)`` int64 entry arrays of a graph's validated CSR."""
    csr = to_sparse(graph)
    n = csr.shape[0]
    return n, np.repeat(np.arange(n), np.diff(csr.indptr)), csr.indices.astype(np.int64)


def _has(rows, cols, r, c):
    return bool(np.any((rows == r) & (cols == c)))


def _drop(rows, cols, r, c):
    keep = ~((rows == r) & (cols == c))
    assert not keep.all()
    return rows[keep], cols[keep]


def _add(rows, cols, r, c):
    return np.append(rows, r), np.append(cols, c)


def _absent(n, rows, cols, rng, row, side):
    """A column on ``side`` ("above"/"below"/"any") of ``row`` that is no
    neighbour of ``row`` in either direction."""
    span = {"above": range(row + 1, n), "below": range(row), "any": range(n)}[side]
    free = [c for c in span
            if c != row and not _has(rows, cols, row, c) and not _has(rows, cols, c, row)]
    return int(rng.choice(free))


def _upper(rows, cols, rng):
    k = int(rng.choice(np.flatnonzero(rows < cols)))
    return int(rows[k]), int(cols[k])


def _mirror_dropped_below(n, rows, cols, rng):
    r, c = _upper(rows, cols, rng)
    return _drop(rows, cols, c, r)


def _mirror_dropped_above(n, rows, cols, rng):
    r, c = _upper(rows, cols, rng)
    return _drop(rows, cols, r, c)


def _lone_above(n, rows, cols, rng):
    row = int(rng.integers(0, n - 1))
    return _add(rows, cols, row, _absent(n, rows, cols, rng, row, "above"))


def _lone_below(n, rows, cols, rng):
    row = int(rng.integers(1, n))
    return _add(rows, cols, row, _absent(n, rows, cols, rng, row, "below"))


def _moved_within_row(n, rows, cols, rng):
    k = int(rng.integers(0, rows.size))
    cols = cols.copy()
    cols[k] = _absent(n, rows, cols, rng, int(rows[k]), "any")
    return rows, cols


def _first_row_lone(n, rows, cols, rng):
    return _add(rows, cols, 0, _absent(n, rows, cols, rng, 0, "above"))


def _first_row_dropped(n, rows, cols, rng):
    return _drop(rows, cols, 0, int(cols[rows == 0][0]))


def _last_row_lone(n, rows, cols, rng):
    return _add(rows, cols, n - 1, _absent(n, rows, cols, rng, n - 1, "below"))


def _last_row_dropped(n, rows, cols, rng):
    return _drop(rows, cols, n - 1, int(cols[rows == n - 1][-1]))


def _rewired_upper(n, rows, cols, rng):
    """Upper entries (a, b), (c, d) become (a, d), (c, b): every row and
    column keeps its entry count, so only the indices disagree."""
    for _ in range(1000):
        (a, b), (c, d) = _upper(rows, cols, rng), _upper(rows, cols, rng)
        if (len({a, b, c, d}) == 4 and a < d and c < b
                and not _has(rows, cols, a, d) and not _has(rows, cols, c, b)):
            rows, cols = _drop(rows, cols, a, b)
            rows, cols = _drop(rows, cols, c, d)
            rows, cols = _add(rows, cols, a, d)
            return _add(rows, cols, c, b)
    raise AssertionError("no rewirable pair of edges")


SYMMETRY_FAULTS = {
    "mirror-dropped-below": _mirror_dropped_below,
    "mirror-dropped-above": _mirror_dropped_above,
    "lone-above": _lone_above,
    "lone-below": _lone_below,
    "moved-within-row": _moved_within_row,
    "first-row-lone": _first_row_lone,
    "first-row-dropped": _first_row_dropped,
    "last-row-lone": _last_row_lone,
    "last-row-dropped": _last_row_dropped,
    "rewired-upper": _rewired_upper,
}

SYMMETRY_GRAPHS = {
    "er": lambda: erdos_renyi(60, 0.12, rng=7),
    "ba": lambda: barabasi_albert(80, 3, rng=11),
}

ASYMMETRIC = "graph: adjacency is not symmetric"


def _csr_arrays(n, rows, cols):
    """Sorted-row CSR ``(indptr, indices)`` of the entries."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return indptr, cols[order]


def _symmetry_cases():
    """Case id -> ``(indptr, indices, expected message or None)``."""
    cases = {
        "n=1": (np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64), None),
        "n=0": (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), None),
        "edgeless": (np.zeros(7, dtype=np.int64), np.empty(0, dtype=np.int64), None),
        "single-edge": (np.array([0, 1, 2]), np.array([1, 0]), None),
        "single-arc": (np.array([0, 1, 1]), np.array([1]), ASYMMETRIC),
    }
    for name, build in SYMMETRY_GRAPHS.items():
        n, rows, cols = _entries(build())
        cases[f"{name}-clean"] = (*_csr_arrays(n, rows, cols), None)
        for seed, (fault, inject) in enumerate(sorted(SYMMETRY_FAULTS.items())):
            broken = inject(n, rows, cols, np.random.default_rng(seed))
            cases[f"{name}-{fault}"] = (*_csr_arrays(n, *broken), ASYMMETRIC)
    return cases


SYMMETRY_CASES = _symmetry_cases()


def _verdict(indptr, indices):
    try:
        check_csr(indptr, indices, (np.ones(indices.size),), "graph")
    except ValueError as exc:
        return str(exc)
    return None


class TestSymmetryWalk:
    """``check_csr``'s symmetry test: the compiled cursor walk against the
    numpy ``tocsc`` reference, on seeded faults that keep every row
    sorted, diagonal-free and in range, so only symmetry can fail."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["i32", "i64"])
    @pytest.mark.parametrize("case", sorted(SYMMETRY_CASES))
    def test_both_backends_give_the_same_verdict(self, case, dtype, use_kernels):
        indptr, indices, expected = SYMMETRY_CASES[case]
        verdicts = []
        for kernels in ("numpy", "compiled"):
            use_kernels(kernels)
            verdicts.append(_verdict(indptr.astype(dtype), indices.astype(dtype)))
        assert verdicts == [expected, expected]

    def test_to_sparse_reports_an_asymmetric_graph(self, use_kernels):
        indptr, indices, _ = SYMMETRY_CASES["ba-lone-below"]
        n = indptr.size - 1
        matrix = sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        for kernels in ("numpy", "compiled"):
            use_kernels(kernels)
            with pytest.raises(ValueError, match="^adjacency is not symmetric$"):
                to_sparse(matrix)


MERGE_CASES = {
    # keys, new, limit
    "empty-keys": ([], [1, 4, 9], None),
    "empty-new": ([2, 3], [], None),
    "both-empty": ([], [], None),
    "empty-new-limit-0": ([2, 3], [], 0),
    "limit-0": ([2, 3, 8], [0, 5, 9], 0),
    "limit-none": ([2, 3, 8], [0, 3, 5, 9, 20], None),
    "limit-2": ([2, 3, 8], [0, 3, 5, 9, 20], 2),
    "limit-past-novel": ([2, 3, 8], [0, 3, 5, 9, 20], 10),
    "limit-equals-novel": ([2, 3, 8], [0, 3, 5, 9, 20], 4),
    "all-present": ([2, 3, 8, 11], [3, 11], None),
    "all-present-limit-1": ([2, 3, 8, 11], [2, 3, 8, 11], 1),
    "all-before": ([10, 11], [1, 2, 3], 2),
    "all-after": ([1, 2], [5, 6, 7], None),
    "empty-keys-limit-1": ([], [4, 9], 1),
}


class TestMergeNovelBackends:
    """``merge_novel``'s compiled merge walk equals its numpy reference."""

    @staticmethod
    def _both(keys, new, limit, use_kernels):
        results = []
        for kernels in ("numpy", "compiled"):
            use_kernels(kernels)
            results.append(merge_novel(keys, new, limit=limit))
        return results

    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    def test_edge_cases(self, case, use_kernels):
        keys, new, limit = (
            np.asarray(values, dtype=np.int64) if isinstance(values, list) else values
            for values in MERGE_CASES[case]
        )
        numpy_result, compiled_result = self._both(keys, new, limit, use_kernels)
        assert compiled_result.dtype == numpy_result.dtype == np.int64
        np.testing.assert_array_equal(compiled_result, numpy_result)

    def test_inputs_untouched_and_output_fresh(self, use_kernels):
        keys = np.array([2, 5, 9], dtype=np.int64)
        new = np.array([1, 5, 12], dtype=np.int64)
        for result in self._both(keys, new, None, use_kernels):
            assert not np.shares_memory(result, keys)
            np.testing.assert_array_equal(result, [1, 2, 5, 9, 12])
        np.testing.assert_array_equal(keys, [2, 5, 9])
        np.testing.assert_array_equal(new, [1, 5, 12])

    def test_negative_limit_raises(self, use_kernels):
        keys = np.array([2, 5], dtype=np.int64)
        for kernels in ("numpy", "compiled"):
            use_kernels(kernels)
            with pytest.raises(ValueError, match="non-negative"):
                merge_novel(keys, keys + 1, limit=-1)
