"""Incremental egonet features: O(deg) updates per edge flip.

The egonet features OddBall (and the attack surrogate) consume are

* ``N_i`` — the degree of ``i``, and
* ``E_i = N_i + ½ diag(A³)_i`` — the number of edges inside ``i``'s egonet.

Recomputing them from scratch costs a dense ``(A @ A) ⊙ A`` — O(n³) work —
per evaluation, which is what made the seed greedy/search attacks quadratic
in wall-clock at the paper's full dataset scale.  But a single flip of the
pair ``{u, v}`` only perturbs the features *locally*:

* ``N_u`` and ``N_v`` change by ±1;
* ``E_u`` changes by ±(1 + c) where ``c = |Γ(u) ∩ Γ(v)|`` is the number of
  common neighbours (the flipped edge itself plus one edge between ``v`` and
  each common neighbour entering/leaving ``u``'s egonet), and symmetrically
  for ``E_v``;
* ``E_w`` changes by ±1 for every common neighbour ``w`` (the flipped edge
  lies inside ``w``'s egonet);
* every other node is untouched.

:class:`IncrementalEgonetFeatures` maintains ``(N, E)`` under a sequence of
flips at O(deg(u) + deg(v)) per flip.  Initial features come from the sparse
kernels in :mod:`repro.graph.sparse`, so building the engine is O(m) — the
dense matrix is never materialised.  Features are integer-valued and every
update adds integers, so the maintained arrays stay *exactly* equal to a
fresh recomputation (the equivalence tests assert bit-for-bit agreement).

Because a flip is an involution with integer deltas, :meth:`rollback` undoes
the last ``k`` flips *exactly* (flip → score → unflip costs O(deg) per flip
and returns the features to bit-identical state).  This is the primitive the
sparse :class:`~repro.oddball.surrogate.SurrogateEngine` backend builds its
transient evaluations on: BinarizedAttack's PGD loop applies an iterate's
flip set, scores it, and rolls it back thousands of times per λ-sweep.  The
materialised CSR is cached per graph *version*, so rolling back to a state
whose CSR was already built (e.g. the clean graph) costs nothing.

Neighbour storage is **lazy**: the clean graph stays in the (possibly
memory-mapped, read-only) base CSR, and a mutable per-node neighbour set is
materialised only for nodes an edge flip actually touches.  Un-materialised
rows are byte-identical to the base CSR by construction, so membership
queries answer from the CSR with a binary search and construction costs
O(m) numpy work instead of an O(n + m) Python loop building ``n`` sets.
This is what lets a :class:`~repro.store.GraphStore`-backed engine run a
whole attack with per-worker private memory proportional to the *touched*
neighbourhood, not the graph — the mmap is never written (flips live in the
override sets and the Δ-overlay) and never copied.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.graph.sparse import egonet_features_sparse, to_sparse

__all__ = ["IncrementalEgonetFeatures", "toggled_pairs"]

Edge = tuple[int, int]


def toggled_pairs(before: "list[Edge]", after: "list[Edge]") -> "list[Edge]":
    """Pairs whose value differs between two flip stacks over one base graph.

    A stack lists the canonical pairs flipped on top of the base, in order
    (:attr:`IncrementalEgonetFeatures.flips`).  Past the stacks' common
    prefix, a pair toggled an odd number of times in the two suffixes
    together is exactly one whose value changed (toggling is an
    involution).  Pairs come in order of first appearance, ``before``'s
    suffix first.  O(len(before) + len(after)).
    """
    prefix, limit = 0, min(len(before), len(after))
    while prefix < limit and before[prefix] == after[prefix]:
        prefix += 1
    parity: "dict[Edge, int]" = {}
    for pair in before[prefix:] + after[prefix:]:
        parity[pair] = parity.get(pair, 0) ^ 1
    return [pair for pair, odd in parity.items() if odd]


class IncrementalEgonetFeatures:
    """Maintain per-node egonet features ``(N, E)`` under edge flips.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.graph.Graph`, dense adjacency array or scipy
        sparse matrix.  Validated through :func:`repro.graph.sparse.to_sparse`
        (square, symmetric, binary, zero diagonal, sorted rows).

    Flips run in Python on every kernel backend: touched rows are
    neighbour sets over the base CSR, and each flip's common-neighbour
    ``E`` update is one numpy fancy-index add.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.graph.features import egonet_features
    >>> graph = erdos_renyi(30, 0.2, rng=0)
    >>> engine = IncrementalEgonetFeatures(graph)
    >>> engine.flip(0, 1)  # toggle the pair {0, 1}
    >>> n_ref, e_ref = egonet_features(engine.adjacency_csr().toarray())
    >>> bool(np.array_equal(engine.n_feature, n_ref))
    True
    """

    def __init__(self, graph):
        csr = to_sparse(graph)
        self.n = int(csr.shape[0])
        #: Read-only clean-graph CSR: rows not present in ``_rows`` are
        #: exactly this matrix's rows.  May be backed by np.memmap arrays
        #: (a GraphStore); nothing in this class ever writes to it.
        self._base = csr
        #: Mutable neighbour overrides, materialised lazily — only for nodes
        #: a flip has touched.  Invariant: ``u not in _rows`` ⇒ ``u``'s
        #: neighbourhood equals the base CSR row (no flip ever touched it).
        self._rows: "dict[int, set[int]]" = {}
        precomputed = getattr(csr, "_repro_egonet_features", None)
        if precomputed is not None:
            # A GraphStore CSR ships its clean (N, E) precomputed at build
            # time; copying the 2 × n vectors replaces the triangle pass,
            # so engine construction stays O(n).
            n_feature, e_feature = precomputed
        else:
            n_feature, e_feature = egonet_features_sparse(csr)
        # copy=True: the features may arrive as read-only memmap rows, and
        # these arrays are mutated in place by every flip.
        self._n_feature = np.array(n_feature, dtype=np.float64, copy=True)
        self._e_feature = np.array(e_feature, dtype=np.float64, copy=True)
        self._flips: list[Edge] = []
        # Monotone state version: every flip advances it, every rollback
        # restores the pre-flip value.  Because rollback really does return
        # the graph to that earlier state, a version uniquely identifies the
        # structure along the flip/rollback path — which makes it a safe
        # cache key for the materialised CSR.
        self._version = 0
        self._version_counter = 1
        self._prev_versions: list[int] = []
        self._csr_cache: sparse.csr_matrix = csr
        self._csr_version = 0
        # Snapshot of the flip stack at the time the cached CSR was built —
        # the next materialisation folds only the *net* pair toggles since
        # then into the cache instead of rebuilding all n rows.
        self._csr_stack: list[Edge] = []

    # ------------------------------------------------------------------ #
    # Feature access
    # ------------------------------------------------------------------ #
    @property
    def n_feature(self) -> np.ndarray:
        """Current per-node degree vector ``N`` (copy)."""
        return self._n_feature.copy()

    @property
    def e_feature(self) -> np.ndarray:
        """Current per-node egonet edge counts ``E`` (copy)."""
        return self._e_feature.copy()

    def features(self) -> tuple[np.ndarray, np.ndarray]:
        """``(N, E)`` copies, matching :func:`egonet_features` exactly."""
        return self.n_feature, self.e_feature

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def _base_row(self, u: int) -> np.ndarray:
        """``u``'s sorted neighbour ids in the clean base CSR (a view)."""
        base = self._base
        return base.indices[base.indptr[u] : base.indptr[u + 1]]

    def _materialize(self, u: int) -> "set[int]":
        """The mutable neighbour set of ``u``, created from the base row on
        first touch (mutation paths only — reads stay allocation-free)."""
        row = self._rows.get(u)
        if row is None:
            row = set(self._base_row(u).tolist())
            self._rows[u] = row
        return row

    def is_edge(self, u: int, v: int) -> bool:
        row = self._rows.get(u)
        if row is not None:
            return v in row
        row = self._base_row(u)
        index = int(np.searchsorted(row, v))
        return index < row.size and int(row[index]) == v

    def degree(self, u: int) -> int:
        # N *is* the degree feature, maintained exactly as an integer.
        return int(self._n_feature[u])

    def neighbors(self, u: int) -> "set[int]":
        """The neighbour set of ``u`` — treat as read-only.

        Rows no flip has touched are built fresh from the base CSR (read
        access never materialises a mutable override row).
        """
        row = self._rows.get(u)
        if row is None:
            return set(self._base_row(u).tolist())
        return row

    def sorted_neighbors(self, u: int) -> np.ndarray:
        """``u``'s neighbour ids as a fresh sorted ``intp`` array.

        The array twin of :meth:`neighbors`: a copy of the (sorted) base
        CSR row, or the override set sorted by numpy — no Python-level sort.
        """
        row = self._rows.get(u)
        if row is None:
            return self._base_row(u).astype(np.intp)
        return np.sort(np.fromiter(row, dtype=np.intp, count=len(row)))

    def common_neighbors(self, u: int, v: int) -> "set[int]":
        """``Γ(u) ∩ Γ(v)`` (never contains ``u`` or ``v`` — no self-loops)."""
        a, b = self.neighbors(u), self.neighbors(v)
        return (a & b) if len(a) <= len(b) else (b & a)

    @property
    def flips(self) -> list[Edge]:
        """Every flip applied so far, in order (canonical pairs)."""
        return list(self._flips)

    @property
    def version(self) -> int:
        """Identifier of the current graph state (read-only).

        Every flip moves to a fresh version and every rollback restores the
        version it undoes, so along any flip/rollback path equal versions
        mean identical graphs.  The CSR cache keys on it, and so do the
        surrogate engine's objective and iterate memos.
        """
        return self._version

    @property
    def depth(self) -> int:
        """Number of flips currently applied (the rollback stack depth).

        ``rollback(depth - token)`` returns the graph to the state it had
        when ``token = depth`` was read — the primitive
        :class:`~repro.oddball.surrogate.SurrogateEngine` checkpoints build
        on to reset shared state between campaign jobs.
        """
        return len(self._flips)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _check_pair(self, u: int, v: int) -> Edge:
        """Validate one flip pair, returning it in canonical (min, max) form."""
        if u == v:
            raise ValueError(f"cannot flip the diagonal pair ({u}, {u})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) out of range for n={self.n}")
        return (u, v) if u < v else (v, u)

    def _bump_version(self, pair: Edge) -> None:
        """Record one applied flip on the stack and advance the version."""
        self._flips.append(pair)
        self._prev_versions.append(self._version)
        self._version = self._version_counter
        self._version_counter += 1

    def flip(self, u: int, v: int) -> None:
        """Toggle the pair ``{u, v}``, updating features in O(deg)."""
        u, v = int(u), int(v)
        pair = self._check_pair(u, v)
        self._toggle(u, v)
        self._bump_version(pair)

    def flip_batch(self, pairs) -> None:
        """Apply many flips in order, all or none.

        Equivalent to ``for u, v in pairs: self.flip(u, v)`` — flips land
        strictly in sequence, each on the stack with its own version, so a
        pair repeated in one batch is applied and then undone — except
        that every pair is validated first: a bad pair raises
        :meth:`flip`'s error for the first one and leaves the state
        untouched.  While tracing, the loop is timed as the
        ``kernels.toggle_batch`` counter (one count per pair).
        """
        pairs = [self._check_pair(int(u), int(v)) for u, v in pairs]
        tracer = _telemetry.active_tracer()
        start_ns = time.perf_counter_ns() if tracer is not None else 0
        for pair in pairs:
            self._toggle(*pair)
            self._bump_version(pair)
        if tracer is not None:
            tracer.count("kernels.toggle_batch", len(pairs),
                         time.perf_counter_ns() - start_ns)

    def rollback(self, count: int = 1) -> None:
        """Undo the last ``count`` flips exactly (reverse order, O(deg) each).

        Toggling is an involution with integer deltas, so rolling back
        returns ``(N, E)`` and the neighbour rows to *bit-identical* state.
        The state version is restored too, so a CSR cached before the flips
        (e.g. the clean graph's) becomes valid again without a rebuild.
        """
        if count < 0:
            raise ValueError(f"rollback count must be non-negative, got {count}")
        if count > len(self._flips):
            raise ValueError(
                f"cannot roll back {count} flips, only {len(self._flips)} applied"
            )
        for _ in range(count):
            u, v = self._flips.pop()
            self._toggle(u, v)
            self._version = self._prev_versions.pop()

    def _toggle(self, u: int, v: int) -> None:
        """The O(deg) feature/neighbour update shared by flip and rollback."""
        # Mutation materialises the two endpoint rows (and only those): the
        # base CSR stays untouched, so a memory-mapped base is never written.
        row_u = self._materialize(u)
        row_v = self._materialize(v)
        delta = -1.0 if v in row_u else 1.0
        common = (row_u & row_v) if len(row_u) <= len(row_v) else (row_v & row_u)
        self._n_feature[u] += delta
        self._n_feature[v] += delta
        self._e_feature[u] += delta * (1.0 + len(common))
        self._e_feature[v] += delta * (1.0 + len(common))
        # One fancy-index add: each w appears once and the deltas are
        # integers, so this equals the per-neighbour loop exactly.  Most
        # flips share no neighbour, and skipping the empty add there
        # saves the array build.
        if common:
            self._e_feature[np.fromiter(common, np.intp, len(common))] += delta
        if delta > 0:
            row_u.add(v)
            row_v.add(u)
        else:
            row_u.discard(v)
            row_v.discard(u)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def adjacency_csr(self) -> sparse.csr_matrix:
        """Current adjacency as CSR (incrementally folded after flips).

        The result is cached per state *version*: flip → rollback sequences
        that return to a previously materialised state reuse its CSR.  When
        the cache is stale, the *net* pair toggles since the cached state
        are folded into it as a sparse ±1 delta — a vectorised O(m + d)
        sparse addition — instead of rebuilding all ``n`` rows through a
        Python loop.  A greedy attack applying one permanent flip per step
        therefore pays O(m) numpy work per materialisation, not O(n + m)
        Python work (the old rebuild-per-flip loop).
        """
        if self._csr_version == self._version:
            return self._csr_cache
        self._csr_cache = self._fold_csr(self._csr_cache)
        self._csr_version = self._version
        self._csr_stack = list(self._flips)
        return self._csr_cache

    def _net_changes(self) -> "list[tuple[int, int, float]]":
        """Net ``(u, v, ±1)`` toggles between the cached CSR state and now.

        The sign is the *current* value minus the cached one.
        """
        return [
            # Changed pairs were flipped, so their endpoint rows are
            # materialised — this membership test is a set lookup.
            (u, v, 1.0 if self.is_edge(u, v) else -1.0)
            for u, v in toggled_pairs(self._csr_stack, self._flips)
        ]

    def csr_with_delta(
        self, max_delta: int = 64
    ) -> "tuple[sparse.csr_matrix, list[tuple[int, int, float]]]":
        """``(cached CSR, net overlay)`` — the zero-copy materialisation.

        When at most ``max_delta`` pairs differ from the cached CSR, the
        cache is returned untouched together with the ``(u, v, ±1)``
        overlay entries describing the difference — the representation
        :func:`repro.oddball.surrogate._scatter_pair_gradient` folds into
        its mat-vecs in O(|delta|).  A greedy attack's per-step gradient
        therefore costs NO CSR work at all; beyond ``max_delta`` the flips
        are folded in (:meth:`adjacency_csr`) and the overlay is empty.
        """
        if self._csr_version == self._version:
            return self._csr_cache, []
        delta = self._net_changes()
        if len(delta) <= max_delta:
            return self._csr_cache, delta
        return self.adjacency_csr(), []

    def _fold_csr(self, cached: sparse.csr_matrix) -> sparse.csr_matrix:
        """Fold the net flips between the cached state and now into ``cached``."""
        changed = self._net_changes()
        if not changed:
            return cached
        rows = np.fromiter((c[0] for c in changed), dtype=np.intp, count=len(changed))
        cols = np.fromiter((c[1] for c in changed), dtype=np.intp, count=len(changed))
        signs = np.fromiter((c[2] for c in changed), dtype=np.float64, count=len(changed))
        delta = sparse.coo_matrix(
            (
                np.concatenate([signs, signs]),
                (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
            ),
            shape=(self.n, self.n),
        )
        folded = (cached + delta).tocsr()
        folded.eliminate_zeros()
        return folded

    def _rebuild_csr(self) -> sparse.csr_matrix:
        """Full rebuild from base rows + overrides (O(n + m) Python).

        The reference the tests check the folded :meth:`adjacency_csr`
        against; no engine path calls it.

        Degrees come from the base CSR's ``np.diff(indptr)`` with one
        correction per override row — only the touched nodes cost Python
        work, not all ``n`` (the old per-node ``self.degree`` loop).
        """
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        degrees = np.diff(self._base.indptr).astype(np.intp)
        for i, override in self._rows.items():
            degrees[i] = len(override)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.intp)
        for i in range(self.n):
            override = self._rows.get(i)
            row = self._base_row(i) if override is None else sorted(override)
            indices[indptr[i] : indptr[i + 1]] = row
        data = np.ones(len(indices), dtype=np.float64)
        return sparse.csr_matrix((data, indices, indptr), shape=(self.n, self.n))
