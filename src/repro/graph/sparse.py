"""Sparse-matrix fast paths for large graphs.

The paper's *full* real datasets are much larger than the ~1000-node
samples it evaluates on (Blogcatalog alone has 88 800 nodes and 2.1M
edges).  Scoring every node of such a graph needs sparse arithmetic, so
this module provides the validated CSR every binary graph is read through
(:func:`to_sparse`) and the scipy.sparse egonet features ``(N, E)``
(:func:`egonet_features_sparse`) that OddBall scores from at every scale,
verified bit-for-bit against the dense implementation in the tests, plus
the canonical graph :func:`content_hash` every checkpoint fingerprint and
store manifest is derived from, and the sorted-key set algebra
(:func:`sorted_unique`, :func:`key_positions`, :func:`merge_novel`) that
the store builder and the candidate sets share.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.graph.graph import Graph

__all__ = [
    "content_hash",
    "egonet_features_sparse",
    "hash_edge_keys",
    "key_positions",
    "merge_novel",
    "sorted_unique",
    "to_sparse",
]


def hash_edge_keys(n: int, keys: np.ndarray) -> str:
    """Content hash of an ``n``-node graph from its sorted edge keys.

    ``keys`` are the ascending int64 upper-triangle keys ``u·n + v``
    (u < v), one per undirected edge; the hash is sha1 over ``f"{n}:"``
    followed by their little-endian bytes, fed through the buffer protocol
    without a ``.tobytes()`` copy.  The streaming store builder calls this
    on the key array it already holds; :func:`content_hash` derives the
    same keys from an adjacency, so both sides agree by construction.
    """
    digest = hashlib.sha1(f"{int(n)}:".encode())
    digest.update(np.ascontiguousarray(keys, dtype="<i8"))
    return digest.hexdigest()


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer key array.

    The same result as ``np.unique(keys)`` from one sort and a neighbour
    mask.  numpy's ``np.unique`` (and ``union1d``/``setdiff1d``, which call
    it) may take a hash-based path that costs more than the sort on int64
    pair keys.  Returns a new array; an empty input gives an empty output.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def key_positions(
    keys: np.ndarray, new: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Insertion points of ``new`` in ``keys``, and which ``new`` keys are absent.

    ``keys`` is sorted and unique.  One ``searchsorted`` gives each ``new``
    key its insertion point; the key is novel unless ``keys`` holds it
    there.  Returns ``(positions, novel)``: ``np.insert(keys,
    positions[novel], new[novel])`` is the union when ``new`` is sorted
    and unique, and any sorted subset of the novel keys may be inserted
    the same way.
    """
    positions = np.searchsorted(keys, new)
    novel = np.ones(new.size, dtype=bool)
    inside = positions < keys.size
    novel[inside] = keys[positions[inside]] != new[inside]
    return positions, novel


def merge_novel(
    keys: np.ndarray, new: np.ndarray, limit: "int | None" = None
) -> np.ndarray:
    """Union of sorted unique ``keys`` with the first ``limit`` novel ``new`` keys.

    ``new`` is sorted and unique too; ``limit=None`` admits every novel
    key, ``limit=0`` none.  Membership and insertion points come from one
    :func:`key_positions` call, so the union is a single ``np.insert`` with
    no re-deduplication of ``keys``: O(|keys| + |new| log |keys|).
    """
    positions, novel = key_positions(keys, new)
    return np.insert(keys, positions[novel][:limit], new[novel][:limit])


def content_hash(adjacency) -> str:
    """Canonical content hash of a binary symmetric adjacency.

    Depends only on the node count and the edge set: a dense array, a CSR
    with sorted or unsorted rows, and a :class:`~repro.store.GraphStore`
    CSR of one graph all hash alike (see :func:`hash_edge_keys`).  Keys
    come out of a row-major scan already sorted unless the CSR's rows are
    not, in which case they are sorted here.  O(m) for a CSR, O(n²) for a
    dense array.
    """
    n = int(adjacency.shape[0])
    if sparse.issparse(adjacency):
        csr = adjacency.tocsr()
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        cols = np.asarray(csr.indices, dtype=np.int64)
        upper = (cols > rows) & (csr.data != 0)
        keys = rows[upper] * n + cols[upper]
        if not csr.has_sorted_indices:
            keys.sort()
    else:
        rows, cols = np.nonzero(np.triu(np.asarray(adjacency), k=1))
        keys = rows.astype(np.int64) * n + cols
    return hash_edge_keys(n, keys)


def to_sparse(graph: "Graph | np.ndarray | sparse.spmatrix") -> sparse.csr_matrix:
    """Coerce a graph/adjacency into a validated CSR matrix.

    Validation mirrors :func:`repro.utils.validation.check_adjacency`:
    square, symmetric, binary, zero diagonal.

    Matrices this function has already validated are tagged and returned
    as-is on re-entry ("validate once"): an attack campaign threads the
    same clean CSR through hundreds of jobs, and the O(m) symmetry check
    per touch-point was a measurable per-job fixed cost.  The tag does not
    survive scipy copies/arithmetic, so derived matrices are re-validated;
    only in-place mutation of a validated matrix's ``data`` could fool it.
    """
    if isinstance(graph, Graph):
        matrix = sparse.csr_matrix(graph.adjacency_view)
    elif hasattr(graph, "adjacency_csr"):
        # Store-backed graphs (repro.store.GraphStore) and the incremental
        # feature engine expose their CSR through ``adjacency_csr()``.  A
        # GraphStore's CSR arrives pre-tagged validated, so for the mmap
        # path this recursion is zero-copy.
        return to_sparse(graph.adjacency_csr())
    elif sparse.issparse(graph):
        if getattr(graph, "_repro_validated", False) and sparse.isspmatrix_csr(graph):
            return graph
        matrix = graph.tocsr().astype(np.float64)  # astype copies, so
        # eliminate_zeros below never mutates the caller's matrix
    else:
        matrix = sparse.csr_matrix(np.asarray(graph, dtype=np.float64))
    # CSR matrices may carry stored explicit zeros (e.g. after ``setdiag(0)``
    # or arithmetic); they are valid zero entries, so drop them before the
    # binary-values check instead of rejecting the matrix.
    matrix.eliminate_zeros()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got {matrix.shape}")
    if (matrix != matrix.T).nnz != 0:
        raise ValueError("adjacency must be symmetric")
    if matrix.nnz and not np.all(matrix.data == 1.0):
        raise ValueError("adjacency must be binary")
    if matrix.diagonal().sum() != 0.0:
        raise ValueError("adjacency must have a zero diagonal")
    matrix._repro_validated = True
    return matrix


def egonet_features_sparse(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """(N, E) for every node using sparse arithmetic.

    ``N_i = Σ_j A_ij`` and ``E_i = N_i + ½ diag(A³)``.  The triangle term
    is the forward count (Schank & Wagner 2005): every edge is oriented
    from the lower to the higher ``(degree, id)`` endpoint, which caps
    each out-degree at ``√(2m)`` however large the hubs are, and each
    triangle is found once, on its lowest-ranked oriented edge, and
    credited to all three corners.  With the compiled kernel backend
    (the process default, see :mod:`repro.kernels`) that is one C pass
    over the out-lists; the numpy path forms the same orientation as a
    CSR ``O`` and reads the corners off two sparse products (see
    :func:`_oriented_triangle_counts`).  Triangle counts are integers, so
    both paths return features bit-identical to the ``(A @ A) ⊙ A``
    product (the equivalence tests pin this against the dense kernel and
    across kernel backends).
    """
    from repro.kernels import kernel_table, resolve_kernels

    matrix = to_sparse(adjacency)
    # every stored entry of a validated adjacency is a one, so a row sum
    # is the row's entry count; reading it off indptr needs no float
    # data, so an index-only view (int8 ones) is not upcast
    n_feature = np.diff(matrix.indptr).astype(np.float64)
    tracer = _telemetry.active_tracer()
    start_ns = time.perf_counter_ns() if tracer is not None else 0
    if resolve_kernels() == "compiled":
        triangles = kernel_table().triangle_counts(matrix)
    else:
        triangles = _oriented_triangle_counts(matrix)
    if tracer is not None:
        tracer.count("kernels.triangle_counts", 1,
                     time.perf_counter_ns() - start_ns)
    return n_feature, n_feature + 0.5 * triangles


def _oriented_triangle_counts(matrix) -> np.ndarray:
    """``diag(A³)`` by the forward count, with sparse products only.

    ``O`` orients every edge from the lower to the higher ``(degree, id)``
    endpoint.  A triangle whose corners rank ``u < v < w`` is one entry
    ``(u, w)`` of ``(O @ O) ⊙ O`` and one entry ``(v, w)`` of
    ``(Oᵀ @ O) ⊙ O``; the three per-corner bincounts credit ``u``, ``w``
    and ``v``.  Both products' fill is bounded by out-degrees, at most
    ``√(2m)`` each.
    """
    n = matrix.shape[0]
    degree = np.diff(matrix.indptr)
    rows = np.repeat(np.arange(n), degree)
    cols = matrix.indices
    forward = (degree[cols] > degree[rows]) | (
        (degree[cols] == degree[rows]) & (cols > rows)
    )
    # int32 entries halve the products' memory; an entry counts the
    # two-step paths between two nodes, so it stays below n
    oriented = sparse.csr_matrix(
        (np.ones(int(forward.sum()), dtype=np.int32),
         (rows[forward], cols[forward])),
        shape=(n, n),
    )
    outer = (oriented @ oriented).multiply(oriented).tocoo()
    middle = (oriented.T @ oriented).multiply(oriented).tocoo()
    corners = (
        np.bincount(outer.row, outer.data, minlength=n)
        + np.bincount(outer.col, outer.data, minlength=n)
        + np.bincount(middle.row, middle.data, minlength=n)
    )
    return 2.0 * corners
