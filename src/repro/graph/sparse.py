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
the store builder and the candidate sets share.  The symmetry test of
:func:`check_csr`, :func:`merge_novel` and the triangle term of
:func:`egonet_features_sparse` run a compiled kernel under the compiled
backend (:mod:`repro.kernels`); their numpy paths are the reference.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.graph.graph import Graph
from repro.kernels import kernel_table, resolve_kernels

#: CSR entries per block of :func:`content_hash`, bounding its workspace.
_HASH_BLOCK = 1 << 16

__all__ = [
    "check_csr",
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
    key, ``limit=0`` none, and a negative ``limit`` raises ``ValueError``.
    ``keys`` is never re-deduplicated.  With the compiled kernel backend
    (the process default, see :mod:`repro.kernels`) the union is one
    linear merge walk, ``CompiledKernels.merge_novel``: O(|keys| + |new|).
    The numpy path, its reference, takes membership and insertion points
    from one :func:`key_positions` call and writes the union by a single
    ``np.insert``: O(|keys| + |new| log |keys|).  Both return int64 keys
    for int64 inputs, equal element for element.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or non-negative, got {limit}")
    if resolve_kernels() == "compiled":
        return kernel_table().merge_novel(keys, new, limit)
    positions, novel = key_positions(keys, new)
    return np.insert(keys, positions[novel][:limit], new[novel][:limit])


def content_hash(adjacency) -> str:
    """Canonical content hash of a binary symmetric adjacency.

    Depends only on the node count and the edge set: a dense array, a CSR
    with sorted or unsorted rows, and a :class:`~repro.store.GraphStore`
    CSR of one graph all hash alike (see :func:`hash_edge_keys`).  The
    rows of :func:`to_sparse` are sorted, so a row-major scan yields the
    upper-triangle keys in ascending order; whole rows of about
    :data:`_HASH_BLOCK` entries are hashed at a time.  O(m).
    """
    matrix = to_sparse(adjacency)
    n = int(matrix.shape[0])
    indptr, indices = matrix.indptr, matrix.indices
    digest = hashlib.sha1(f"{n}:".encode())
    row = 0
    while row < n:
        stop = int(np.searchsorted(indptr, indptr[row] + _HASH_BLOCK, side="right")) - 1
        stop = min(max(stop, row + 1), n)
        rows = np.repeat(
            np.arange(row, stop, dtype=np.int64), np.diff(indptr[row:stop + 1])
        )
        cols = indices[indptr[row]:indptr[stop]].astype(np.int64)
        upper = cols > rows
        digest.update(np.ascontiguousarray(rows[upper] * n + cols[upper], dtype="<i8"))
        row = stop
    return digest.hexdigest()


def check_csr(
    indptr: np.ndarray, indices: np.ndarray, data_blocks, where: "str | None" = None
) -> sparse.csr_matrix:
    """Check a CSR adjacency's arrays; return its structure, tagged validated.

    The one structural check, run by :func:`to_sparse` and by the
    store's builder and ``open(verify=True)``.  The checks run in this
    order, each raising ``ValueError`` (prefixed by ``where`` when given):
    every value in ``data_blocks`` (the data array, in consecutive blocks)
    is 1.0; no row stores its own index; every row's indices rise
    strictly; and every index is a node.  Then symmetry: with binary data
    and canonical rows, the adjacency is symmetric exactly when its
    transposed structure equals its structure, so no float copy or
    ``A != Aᵀ`` workspace is built.  With the compiled kernel backend
    (see :mod:`repro.kernels`) that is one cursor walk over the sorted
    rows, ``CompiledKernels.is_symmetric``: every upper entry ``(r, c)``
    must be row ``c``'s next unconsumed lower entry, and no row may keep
    one unconsumed.  The numpy path, its reference, compares the
    structure with scipy's counting-sort ``tocsc`` (which yields sorted
    rows).  Both give the same verdict and message.  Sortedness is
    checked first so a swapped pair reports its row, not an asymmetry.

    The returned matrix shares ``indptr`` and ``indices``, carries int8
    ones as its data, and is tagged ``_repro_validated`` and
    ``has_sorted_indices``, ready for :func:`egonet_features_sparse` and
    :func:`content_hash`.
    """
    prefix = "" if where is None else f"{where}: "
    n = indptr.size - 1
    if not all(np.all(block == 1.0) for block in data_blocks):
        raise ValueError(f"{prefix}adjacency is not binary")
    structure = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr),
        shape=(n, n), copy=False,
    )
    if structure.diagonal().any():
        raise ValueError(f"{prefix}adjacency has diagonal entries")
    # every step inside a row must rise; the steps across row starts
    # are the only ones allowed to fall
    rising = np.greater(indices[1:], indices[:-1])
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    if not rising.all():
        row = int(np.searchsorted(indptr, np.argmin(rising), side="right")) - 1
        raise ValueError(f"{prefix}row {row} indices are not sorted/unique")
    del rising
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"{prefix}adjacency has indices outside 0..{n - 1}")
    structure.has_sorted_indices = True
    if resolve_kernels() == "compiled":
        symmetric = kernel_table().is_symmetric(structure)
    else:
        transposed = structure.tocsc()
        symmetric = (np.array_equal(transposed.indptr, indptr)
                     and np.array_equal(transposed.indices, indices))
    if not symmetric:
        raise ValueError(f"{prefix}adjacency is not symmetric")
    structure._repro_validated = True
    return structure


def to_sparse(graph: "Graph | np.ndarray | sparse.spmatrix") -> sparse.csr_matrix:
    """Coerce a graph/adjacency into a validated CSR matrix with sorted rows.

    The one way a graph enters the graph, attack, campaign and store
    layers.  A :class:`Graph`, dense array or scipy matrix is copied to a
    float64 CSR (the caller's arrays are never modified); stored zeros
    are dropped, duplicates summed and rows sorted, and the copy must be
    square and pass :func:`check_csr`.  A :class:`~repro.store.GraphStore`
    is read through ``adjacency_csr()``.  The result is tagged
    ``_repro_validated`` with ``has_sorted_indices`` set, and a tagged CSR
    is returned as-is ("validate once"), so a campaign's CSR or a store's
    memory-mapped one is never copied again.  Scipy copies and arithmetic
    drop the tag; only in-place mutation of a tagged matrix could fool it.

    >>> from scipy import sparse
    >>> unsorted = sparse.csr_matrix(
    ...     ([1.0, 1.0, 1.0, 1.0], [2, 1, 0, 0], [0, 2, 3, 4]), shape=(3, 3))
    >>> unsorted.has_sorted_indices
    False
    >>> matrix = to_sparse(unsorted)
    >>> matrix.has_sorted_indices, matrix._repro_validated
    (True, True)
    >>> matrix.indices.tolist(), unsorted.indices.tolist()
    ([1, 2, 0, 0], [2, 1, 0, 0])
    >>> to_sparse(matrix) is matrix
    True
    """
    if isinstance(graph, Graph):
        matrix = sparse.csr_matrix(graph.adjacency_view)
    elif hasattr(graph, "adjacency_csr"):
        return to_sparse(graph.adjacency_csr())
    elif sparse.issparse(graph):
        if getattr(graph, "_repro_validated", False) and sparse.isspmatrix_csr(graph):
            return graph
        # astype copies data and both index arrays, even at float64
        matrix = graph.tocsr().astype(np.float64)
    else:
        matrix = sparse.csr_matrix(np.asarray(graph, dtype=np.float64))
    matrix.eliminate_zeros()
    matrix.sum_duplicates()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got {matrix.shape}")
    check_csr(matrix.indptr, matrix.indices, (matrix.data,))
    matrix.has_sorted_indices = True
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
    (the process default, see :mod:`repro.kernels`) that is a C
    orientation pass and a branch-free count over the out-lists, split
    across threads on graphs of two million stored entries or more (see
    :meth:`~repro.kernels.compiled.CompiledKernels.triangle_counts`); the
    numpy path forms the same orientation as a CSR ``O`` and reads the
    corners off two sparse products (see
    :func:`_oriented_triangle_counts`).  Triangle counts are integers, so
    both paths return features bit-identical to the ``(A @ A) ⊙ A``
    product (the equivalence tests pin this against the dense kernel and
    across kernel backends), whatever the thread count.
    """
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
