"""numpy <-> C marshalling for the compiled kernel backend.

:class:`CompiledKernels` wraps the shared library built by
:mod:`repro.kernels.capi` with numpy-facing methods that mirror the pure
numpy/Python reference implementations exactly:

- ``pair_values``       — batch edge membership against a base CSR
  (:meth:`IncrementalEgonetFeatures.is_edge` / engine ``_pair_values``);
- ``triangle_counts``   — per-node diag(A^3), the triangle term of
  :func:`repro.graph.sparse.egonet_features_sparse`, by the forward count
  (edges oriented by ``(degree, id)``, each triangle found once and
  credited to its three corners): one orientation pass, then a
  branch-free count split into shares by node id, one thread a share on
  graphs of :data:`GRAIN` entries or more, summed exactly;
- ``scatter_pair_gradient`` — the closed-form candidate-pair gradient of
  ``repro.oddball.surrogate._scatter_pair_gradient``, Δ-overlay
  semantics included, over a precomputed hub grouping of the pairs;
- ``merge_novel``       — the sorted-key union of
  :func:`repro.graph.sparse.merge_novel` (store builder rounds, block
  candidate refreshes) as one linear merge walk;
- ``assemble_csr``      — the symmetric CSR of sorted upper-triangle edge
  keys, the store builder's ``_assemble_csr``, by a two-pass counting
  fill;
- ``is_symmetric``      — the symmetry test of
  :func:`repro.graph.sparse.check_csr` as one cursor walk over the
  sorted rows, in place of a ``tocsc`` and an array compare.

Edge flips are not here: ``IncrementalEgonetFeatures`` applies them in
Python on every backend.  Membership, triangle counts, the merged keys,
the assembled CSR and the symmetry verdict are exact, and
the gradient kernel adds the reference's nonzero terms in the reference's
order (see kernels.c; this needs a symmetric CSR), so results are expected
to be bit-identical to the numpy oracle — the property the parity suites
assert.

CSR inputs may be backed by read-only memory maps; this module never
writes to them (``indptr`` is copied to int64 when needed, ``indices`` and
``data`` are passed as const pointers in their native layout).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .capi import load_kernel_lib

#: Stored CSR entries per share of :meth:`CompiledKernels.triangle_counts`.
#: A graph gets one share per ``GRAIN`` entries, up to one per usable
#: CPU.  One share → two, median of 7 calls on blogcatalog-full stores
#: (2-vCPU Xeon VM): 4.2M entries 362 → 218 ms, 2.1M 124 → 89 ms, 1.05M
#: 50 → 36 ms, 473k 23 → 15 ms.  Below ~2M entries a second thread saves
#: tens of milliseconds at most, and the campaign workers, which each
#: count their own graph, would contend for the same CPUs; so the 88.8k
#: store gets two shares, while the 10k sweep graph and the Fig. 4 graphs
#: count on the calling thread alone.
GRAIN = 2_000_000


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has
    one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def triangle_shares(nnz: int) -> int:
    """Shares of a triangle count over ``nnz`` stored entries: one per
    :data:`GRAIN` entries, at least one and at most :func:`usable_cpus`."""
    return max(1, min(usable_cpus(), nnz // GRAIN))


def _require_sorted(csr) -> None:
    """Reject CSRs without sorted column indices (merge kernels need them)."""
    if not csr.has_sorted_indices:
        raise ValueError(
            "compiled kernels require CSR matrices with sorted indices"
        )


class CompiledKernels:
    """Typed numpy front-end over the compiled kernel shared library."""

    def __init__(self):
        """Load (building if necessary) the shared library."""
        self._ffi, self._lib = load_kernel_lib()
        #: ``(n, views)`` of the scatter kernel's zeroed scratch for one
        #: node count (see :meth:`_scatter_scratch`).
        self._scatter_buffers: "tuple[int, tuple] | None" = None

    # -- small marshalling helpers ----------------------------------------

    def _in_i64(self, arr):
        """Const ``long long*`` view of an int64 array (no copy if aligned)."""
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        return self._ffi.from_buffer("long long[]", arr, require_writable=False), arr

    def _in_f64(self, arr):
        """Const ``double*`` view of a float64 array (no copy if aligned)."""
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        return self._ffi.from_buffer("double[]", arr, require_writable=False), arr

    def _out_f64(self, arr):
        """Writable ``double*`` view of a float64 output array."""
        if not (arr.dtype == np.float64 and arr.flags.c_contiguous):
            raise ValueError("output array must be contiguous float64")
        return self._ffi.from_buffer("double[]", arr, require_writable=True)

    def _scratch(self, ctype, arr):
        """Writable ``ctype`` view of a caller-allocated scratch array."""
        return self._ffi.from_buffer(ctype, arr, require_writable=True)

    def _csr_views(self, csr):
        """Return (indptr_ptr, indices_ptr, suffix, keepalive) for a CSR."""
        indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
        indices = csr.indices
        if indices.dtype == np.int32 and indices.flags.c_contiguous:
            suffix = "i32"
            idx_ptr = self._ffi.from_buffer(
                "int[]", indices, require_writable=False
            )
        else:
            indices = np.ascontiguousarray(indices, dtype=np.int64)
            suffix = "i64"
            idx_ptr = self._ffi.from_buffer(
                "long long[]", indices, require_writable=False
            )
        ptr_ptr = self._ffi.from_buffer(
            "long long[]", indptr, require_writable=False
        )
        return ptr_ptr, idx_ptr, suffix, (indptr, indices)

    # -- kernels ----------------------------------------------------------

    def pair_values(self, csr, rows, cols) -> np.ndarray:
        """Base-CSR edge membership (1.0/0.0) for each canonical pair."""
        _require_sorted(csr)
        rows_ptr, rows_keep = self._in_i64(rows)
        cols_ptr, cols_keep = self._in_i64(cols)
        out = np.empty(rows_keep.size, dtype=np.float64)
        if rows_keep.size:
            ptr_ptr, idx_ptr, suffix, keep = self._csr_views(csr)
            fn = getattr(self._lib, f"repro_pair_values_{suffix}")
            fn(ptr_ptr, idx_ptr, rows_ptr, cols_ptr, rows_keep.size,
               self._out_f64(out))
            del keep
        return out

    def triangle_counts(self, csr) -> np.ndarray:
        """``diag(A^3)`` per node — twice the triangle count at each node.

        The forward count of kernels.c: edges oriented by ``(degree, id)``,
        out-lists intersected once per oriented edge, so rows need not be
        sorted.  ``csr`` must be symmetric; a non-symmetric one raises
        ``ValueError`` before any thread starts.  All scratch is allocated
        here, the out-lists sized for ``nnz / 2`` oriented edges.  The
        orientation pass runs in the calling thread.  The count is then
        split into :func:`triangle_shares` shares by node id modulo the
        share count: share 0 runs inline and each other share on its own
        thread (cffi releases the GIL during the C call), with its own
        ``tri`` and ``mark`` arrays (16·n bytes a share).  Every thread is
        joined before this returns, and the shares' int64 counts are
        summed exactly, so the result does not depend on the share count.
        """
        n = csr.shape[0]
        ptr_ptr, idx_ptr, suffix, keep = self._csr_views(csr)
        indptr, indices = keep
        nnz = int(indptr[-1])
        idx_type = "int[]" if suffix == "i32" else "long long[]"
        out_ptr = np.empty(n + 1, dtype=np.int64)
        out_idx = np.empty(nnz // 2, dtype=indices.dtype)
        ptr_view = self._scratch("long long[]", out_ptr)
        idx_view = self._scratch(idx_type, out_idx)
        orient = getattr(self._lib, f"repro_triangle_orient_{suffix}")
        rc = orient(ptr_ptr, idx_ptr, n, ptr_view, idx_view, out_idx.size)
        del keep
        if rc != 0:
            raise ValueError("triangle_counts requires a symmetric CSR")
        shares = triangle_shares(nnz)
        tri = np.empty((shares, n), dtype=np.int64)
        mark = np.empty((shares, n), dtype=np.int64)
        share = getattr(self._lib, f"repro_triangle_share_{suffix}")
        calls = [
            (ptr_view, idx_view, n, t, shares,
             self._scratch("long long[]", tri[t]),
             self._scratch("long long[]", mark[t]))
            for t in range(shares)
        ]
        threads = [threading.Thread(target=share, args=args) for args in calls[1:]]
        started = []
        try:
            for thread in threads:
                thread.start()
                started.append(thread)
            share(*calls[0])
        finally:
            # joined on every path: forked workers must inherit no thread
            for thread in started:
                thread.join()
        return (2 * tri.sum(axis=0)).astype(np.float64)

    def scatter_pair_gradient(
        self,
        csr,
        d_n: np.ndarray,
        d_e: np.ndarray,
        groups,
        delta=(),
    ) -> "tuple[np.ndarray, int]":
        """Compiled twin of ``surrogate._scatter_pair_gradient``.

        ``groups`` is the pairs' hub grouping from
        ``surrogate._group_pairs`` (engines compute it once per candidate
        set).  Returns ``(gradient, entries)``: the per-pair gradient in
        the caller's pair order, and the number of CSR entries the kernel
        walked.  Per hub group the kernel folds the Δ-overlay into the hub
        row and picks the pull walk (each partner's row) or the push walk
        (each row of the hub's two-hop ball), whichever is shorter.  It
        also adds the ``d_n``/``d_e`` endpoint terms and writes each pair
        at its caller position, so a call does no O(|C|) numpy work.

        ``csr`` must be bitwise symmetric (``A == Aᵀ``), as every engine
        matrix is, and ``d_e`` finite: the push walk reads row ``c`` in
        place of column ``c``, which is what makes both walks
        bit-identical to the reference.  See kernels.c for the
        order-equivalence argument.
        """
        _require_sorted(csr)
        npairs = groups.rows.size
        gradient = np.empty(npairs, dtype=np.float64)  # the kernel fills it
        if npairs == 0:
            return gradient, 0
        n = csr.shape[0]
        delta = list(delta)
        ndelta = len(delta)
        du = np.array([u for u, _, _ in delta], dtype=np.int64)
        dv = np.array([v for _, v, _ in delta], dtype=np.int64)
        dd = np.array([d for _, _, d in delta], dtype=np.float64)
        dnext = np.empty(max(2 * ndelta, 1), dtype=np.int64)
        extra = np.empty(max(ndelta, 1), dtype=np.int64)
        dhead, work, acc = self._scatter_scratch(n)
        ptr_ptr, idx_ptr, suffix, keep = self._csr_views(csr)
        inputs = [
            self._in_f64(csr.data), self._in_f64(d_n), self._in_f64(d_e),
            self._in_i64(groups.rows), self._in_i64(groups.cols),
            self._in_i64(groups.order), self._in_i64(groups.hubs),
            self._in_i64(groups.partners),
        ]
        deltas = [self._in_i64(du), self._in_i64(dv), self._in_f64(dd)]
        fn = getattr(self._lib, f"repro_scatter_gradient_{suffix}")
        entries = fn(
            ptr_ptr, idx_ptr, *(ptr for ptr, _ in inputs), npairs,
            *(ptr for ptr, _ in deltas), ndelta, n, dhead,
            self._scratch("long long[]", dnext),
            self._scratch("long long[]", extra),
            work, acc, self._out_f64(gradient),
        )
        del keep, inputs, deltas
        return gradient, int(entries)

    def merge_novel(self, keys, new, limit=None) -> np.ndarray:
        """Compiled twin of :func:`repro.graph.sparse.merge_novel`.

        ``keys`` and ``new`` ascend strictly; the union of ``keys`` with
        the first ``limit`` novel ``new`` keys (every one for ``None``)
        comes back as a new int64 array from one merge walk.
        """
        keys_ptr, keys = self._in_i64(keys)
        new_ptr, new = self._in_i64(new)
        admit = new.size if limit is None else min(int(limit), new.size)
        out = np.empty(keys.size + admit, dtype=np.int64)
        size = self._lib.repro_merge_novel(
            keys_ptr, keys.size, new_ptr, new.size, admit,
            self._scratch("long long[]", out),
        )
        return out[:size]

    def assemble_csr(self, n: int, keys, dtype) -> "tuple[np.ndarray, np.ndarray]":
        """``(indptr, indices)`` in ``dtype`` of the symmetric CSR of
        ``n`` nodes whose ascending upper-triangle keys are ``u·n + v``.

        The twin of the store builder's ``_assemble_csr``: row ``r`` is
        its lower neighbours, then its upper ones, each ascending.
        ``dtype`` is int32 or int64 (the store's index dtype).  Raises
        ``ValueError`` unless the keys ascend strictly and each is a pair
        ``u < v < n``.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.int32, np.int64):
            raise ValueError(f"assemble_csr writes int32 or int64, not {dtype}")
        keys_ptr, keys = self._in_i64(keys)
        ctype = "int[]" if dtype == np.int32 else "long long[]"
        indptr = np.empty(n + 1, dtype=dtype)
        indices = np.empty(2 * keys.size, dtype=dtype)
        cursor = np.empty(n, dtype=np.int64)
        fn = getattr(self._lib, f"repro_assemble_csr_i{dtype.itemsize * 8}")
        rc = fn(
            keys_ptr, keys.size, n, self._scratch("long long[]", cursor),
            self._scratch(ctype, indptr), self._scratch(ctype, indices),
        )
        if rc != 0:
            raise ValueError(
                "assemble_csr requires strictly ascending keys u·n + v "
                "with u < v < n"
            )
        return indptr, indices

    def is_symmetric(self, csr) -> bool:
        """Whether ``csr``'s structure equals its transpose's.

        The rows must already be strictly ascending, without diagonal
        entries and within ``0..n-1``: :func:`repro.graph.sparse.check_csr`
        tests that first and then calls this.  One cursor walk over the
        rows (see kernels.c); the data values are not read.
        """
        _require_sorted(csr)
        n = csr.shape[0]
        ptr_ptr, idx_ptr, suffix, keep = self._csr_views(csr)
        cursor = np.empty(n, dtype=np.int64)
        fn = getattr(self._lib, f"repro_is_symmetric_{suffix}")
        symmetric = fn(ptr_ptr, idx_ptr, n, self._scratch("long long[]", cursor))
        del keep
        return bool(symmetric)

    def _scatter_scratch(self, n: int) -> tuple:
        """C views of the scatter kernel's ``(dhead, work, acc)`` scratch for
        ``n`` nodes: n int64, n and 2n float64 zeros.

        The kernel returns all three to zero (``dhead`` is read only when
        there is a Δ), so the arrays and their views are made once per node
        count, not once per call.  A process runs one scatter at a time:
        the engines are single-threaded.
        """
        if self._scatter_buffers is None or self._scatter_buffers[0] != n:
            # A from_buffer view keeps its array alive.
            self._scatter_buffers = (n, (
                self._scratch("long long[]", np.zeros(n, dtype=np.int64)),
                self._out_f64(np.zeros(n, dtype=np.float64)),
                self._out_f64(np.zeros(2 * n, dtype=np.float64)),
            ))
        return self._scatter_buffers[1]
