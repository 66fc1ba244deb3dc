"""numpy <-> C marshalling for the compiled kernel backend.

:class:`CompiledKernels` wraps the shared library built by
:mod:`repro.kernels.capi` with numpy-facing methods that mirror the pure
numpy/Python reference implementations exactly:

- ``pair_values``       — batch edge membership against a base CSR
  (:meth:`IncrementalEgonetFeatures.is_edge` / engine ``_pair_values``);
- ``triangle_counts``   — per-node diag(A^3), the triangle term of
  :func:`repro.graph.sparse.egonet_features_sparse`, by the forward count
  (edges oriented by ``(degree, id)``, each triangle found once and
  credited to its three corners; the wrapper allocates the scratch);
- ``toggle_batch`` / ``toggle_one`` — apply edge flips to the (N, E)
  feature arrays (``IncrementalEgonetFeatures`` hot loop), driven through
  :class:`ToggleState`, the persistent arena that keeps override rows and
  cffi pointers alive across calls so a single flip costs one C call;
- ``scatter_pair_gradient`` — the closed-form candidate-pair gradient of
  ``repro.oddball.surrogate._scatter_pair_gradient``, Δ-overlay
  semantics included, over a precomputed hub grouping of the pairs.

All integer feature updates are exact in float64, and the gradient kernel
adds the reference's nonzero terms in the reference's order (see
kernels.c; this needs a symmetric CSR), so results are expected to be
bit-identical to the numpy oracle — the property the parity suites assert.

CSR inputs may be backed by read-only memory maps; this module never
writes to them (``indptr`` is copied to int64 when needed, ``indices`` and
``data`` are passed as const pointers in their native layout).
"""

from __future__ import annotations

import numpy as np

from .capi import load_kernel_lib


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
        sorted.  ``csr`` must be symmetric.  The scratch is allocated
        here, the out-lists sized for ``nnz / 2`` oriented edges.
        """
        n = csr.shape[0]
        out = np.empty(n, dtype=np.float64)
        ptr_ptr, idx_ptr, suffix, keep = self._csr_views(csr)
        indptr, indices = keep
        out_ptr = np.empty(n + 1, dtype=np.int64)
        out_idx = np.empty(int(indptr[-1]) // 2, dtype=indices.dtype)
        tri = np.empty(n, dtype=np.int64)
        mark = np.empty(n, dtype=np.int64)
        idx_type = "int[]" if suffix == "i32" else "long long[]"
        fn = getattr(self._lib, f"repro_triangle_counts_{suffix}")
        rc = fn(
            ptr_ptr, idx_ptr, n, self._scratch("long long[]", out_ptr),
            self._scratch(idx_type, out_idx), out_idx.size,
            self._scratch("long long[]", tri),
            self._scratch("long long[]", mark), self._out_f64(out),
        )
        del keep
        if rc != 0:
            raise ValueError("triangle_counts requires a symmetric CSR")
        return out

    def toggle_state(self, base_csr, n_feat, e_feat, registry) -> "ToggleState":
        """Create the persistent flip state backing one feature engine."""
        return ToggleState(self._ffi, self._lib, base_csr, n_feat, e_feat,
                           registry)

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


class ToggleState:
    """Persistent arena backing the compiled flip path of one engine.

    Override neighbour rows (sorted int64 column lists) live in a single
    growing arena; per-slot ``offs``/``lens``/``caps`` tables describe
    each row's window.  All cffi pointers — arena, tables, the (N, E)
    feature arrays, the base CSR — are created once and refreshed only on
    (re)allocation, so the steady-state cost of a flip is one C call with
    zero per-flip numpy marshalling.  Rows get slack capacity
    (``len + 2*occurrences + 2``) when placed, so the canonical
    apply-then-rollback cycle of the attack loop never relocates a row.

    The engine's ``_rows`` dict is passed in as ``registry`` and kept in
    sync (node -> slot index), preserving the membership semantics the
    engine's read paths and the test-suite rely on.
    """

    def __init__(self, ffi, lib, base_csr, n_feat, e_feat, registry):
        """Wrap ``base_csr`` + the engine's feature arrays and rows dict."""
        self._ffi = ffi
        self._lib = lib
        self._registry = registry
        n = int(base_csr.shape[0])
        self._base_indptr = np.ascontiguousarray(base_csr.indptr,
                                                 dtype=np.int64)
        indices = base_csr.indices
        if indices.dtype == np.int32 and indices.flags.c_contiguous:
            self._base_indices = indices
            self._idx_c = ffi.from_buffer("int[]", indices,
                                          require_writable=False)
            self._place = lib.repro_place_rows_i32
        else:
            self._base_indices = np.ascontiguousarray(indices,
                                                      dtype=np.int64)
            self._idx_c = ffi.from_buffer("long long[]", self._base_indices,
                                          require_writable=False)
            self._place = lib.repro_place_rows_i64
        self._ptr_c = ffi.from_buffer("long long[]", self._base_indptr,
                                      require_writable=False)
        self._n_feat = n_feat
        self._e_feat = e_feat
        self._nf_c = ffi.from_buffer("double[]", n_feat,
                                     require_writable=True)
        self._ef_c = ffi.from_buffer("double[]", e_feat,
                                     require_writable=True)
        self.slot_of = np.full(n, -1, dtype=np.int64)
        self._nslots = 0
        self.offs = np.zeros(256, dtype=np.int64)
        self.lens = np.zeros(256, dtype=np.int64)
        self.caps = np.zeros(256, dtype=np.int64)
        self._offs_c = self._wr_i64(self.offs)
        self._lens_c = self._wr_i64(self.lens)
        self._caps_c = self._wr_i64(self.caps)
        self._arena = np.empty(4096, dtype=np.int64)
        self._arena_c = self._wr_i64(self._arena)
        self._free = 0

    # -- pointer helpers ---------------------------------------------------

    def _wr_i64(self, arr):
        """Writable ``long long*`` over a contiguous int64 array."""
        return self._ffi.from_buffer("long long[]", arr,
                                     require_writable=True)

    def _in_i64(self, arr):
        """Const ``long long*`` view plus its keepalive array."""
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        return (
            self._ffi.from_buffer("long long[]", arr,
                                  require_writable=False),
            arr,
        )

    # -- row access (engine read paths) ------------------------------------

    def row(self, slot) -> np.ndarray:
        """Sorted int64 neighbour row stored in slot ``slot`` (a view)."""
        off = int(self.offs[slot])
        return self._arena[off:off + int(self.lens[slot])]

    # -- capacity management -----------------------------------------------

    def _ensure_tables(self, min_slots: int) -> None:
        """Grow the per-slot tables to hold at least ``min_slots`` rows."""
        if min_slots <= self.offs.size:
            return
        new_cap = max(2 * self.offs.size, min_slots)
        for name in ("offs", "lens", "caps"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=np.int64)
            grown[:old.size] = old
            setattr(self, name, grown)
        self._offs_c = self._wr_i64(self.offs)
        self._lens_c = self._wr_i64(self.lens)
        self._caps_c = self._wr_i64(self.caps)

    def _ensure_arena(self, needed: int) -> None:
        """Make room for ``needed`` arena slots, compacting or growing."""
        if needed <= self._arena.size:
            return
        live = int(self.caps[:self._nslots].sum())
        incoming = needed - self._free
        if 2 * (live + incoming) <= self._arena.size:
            self._compact()
            return
        new_size = max(2 * self._arena.size, 2 * (live + incoming))
        grown = np.empty(new_size, dtype=np.int64)
        grown[:self._free] = self._arena[:self._free]
        self._arena = grown
        self._arena_c = self._wr_i64(grown)

    def _compact(self) -> None:
        """Repack every slot's capacity window to the arena's start."""
        ns = self._nslots
        if ns == 0:
            self._free = 0
            return
        caps = self.caps[:ns]
        new_offs = np.zeros(ns, dtype=np.int64)
        np.cumsum(caps[:-1], out=new_offs[1:])
        total = int(caps.sum())
        src = (
            np.repeat(self.offs[:ns] - new_offs, caps)
            + np.arange(total, dtype=np.int64)
        )
        packed = self._arena[src]
        self._arena[:total] = packed
        self.offs[:ns] = new_offs
        self._free = total

    def _ensure_rows(self, uniq: np.ndarray, need: np.ndarray) -> None:
        """Guarantee slots for ``uniq`` nodes with ``need`` spare capacity.

        Creates slots for nodes seen for the first time (materialising
        their base-CSR rows in C), and relocates rows whose spare
        capacity cannot absorb ``need`` additional entries.  New windows
        get ``len + 2*need + 2`` capacity so the subsequent toggles plus
        their rollback fit without another relocation.
        """
        slots = self.slot_of[uniq]
        new_mask = slots < 0
        if new_mask.any():
            new_nodes = uniq[new_mask]
            k = int(new_nodes.size)
            self._ensure_tables(self._nslots + k)
            new_slots = np.arange(self._nslots, self._nslots + k,
                                  dtype=np.int64)
            self.slot_of[new_nodes] = new_slots
            self._nslots += k
            self._registry.update(
                zip(new_nodes.tolist(), new_slots.tolist())
            )
            slots = self.slot_of[uniq]
        cur_len = np.where(
            new_mask,
            self._base_indptr[uniq + 1] - self._base_indptr[uniq],
            self.lens[slots],
        )
        spare = np.where(new_mask, np.int64(-1), self.caps[slots] - cur_len)
        place = spare < need
        if not place.any():
            return
        p_slots = slots[place]
        p_caps = cur_len[place] + 2 * need[place] + 2
        p_src = np.where(new_mask[place], uniq[place], np.int64(-1))
        total = int(p_caps.sum())
        self._ensure_arena(self._free + total)
        dst = self._free + np.concatenate(
            ([np.int64(0)], np.cumsum(p_caps[:-1]))
        )
        self._free += total
        slots_ptr, slots_keep = self._in_i64(p_slots)
        dst_ptr, dst_keep = self._in_i64(dst)
        caps_ptr, caps_keep = self._in_i64(p_caps)
        src_ptr, src_keep = self._in_i64(p_src)
        self._place(
            self._arena_c, self._offs_c, self._lens_c, self._caps_c,
            slots_ptr, dst_ptr, caps_ptr, src_ptr, slots_keep.size,
            self._ptr_c, self._idx_c,
        )
        del slots_keep, dst_keep, caps_keep, src_keep

    # -- flip entry points -------------------------------------------------

    def toggle_one(self, u: int, v: int) -> None:
        """Toggle edge (u, v), updating rows and feature arrays in C."""
        slot_of = self.slot_of
        su = int(slot_of[u])
        sv = int(slot_of[v])
        if (
            su < 0
            or sv < 0
            or self.caps[su] - self.lens[su] < 1
            or self.caps[sv] - self.lens[sv] < 1
        ):
            uniq, counts = np.unique(
                np.array([u, v], dtype=np.int64), return_counts=True
            )
            self._ensure_rows(uniq, counts)
            su = int(slot_of[u])
            sv = int(slot_of[v])
        rc = self._lib.repro_toggle_one(
            self._arena_c, self._offs_c, self._lens_c, self._caps_c,
            su, sv, u, v, self._nf_c, self._ef_c,
        )
        if rc != 0:
            raise RuntimeError("compiled toggle overflowed its arena row")

    def toggle_pairs(
        self, node_u: np.ndarray, node_v: np.ndarray
    ) -> np.ndarray:
        """Toggle every (node_u[k], node_v[k]) edge; return edge deltas.

        The returned float64 array holds the per-pair edge-weight delta
        (+1.0 insert / -1.0 remove), matching what the numpy path derives
        from its per-row membership checks.
        """
        both = np.concatenate([node_u, node_v])
        uniq, counts = np.unique(both, return_counts=True)
        self._ensure_rows(uniq, counts)
        slot_u = self.slot_of[node_u]
        slot_v = self.slot_of[node_v]
        deltas = np.empty(node_u.size, dtype=np.float64)
        su_ptr, su_keep = self._in_i64(slot_u)
        sv_ptr, sv_keep = self._in_i64(slot_v)
        u_ptr, u_keep = self._in_i64(node_u)
        v_ptr, v_keep = self._in_i64(node_v)
        rc = self._lib.repro_toggle_batch(
            self._arena_c, self._offs_c, self._lens_c, self._caps_c,
            su_ptr, sv_ptr, u_ptr, v_ptr, u_keep.size,
            self._nf_c, self._ef_c,
            self._ffi.from_buffer("double[]", deltas,
                                  require_writable=True),
        )
        del su_keep, sv_keep, u_keep, v_keep
        if rc != 0:
            raise RuntimeError("compiled toggle overflowed its arena row")
        return deltas
