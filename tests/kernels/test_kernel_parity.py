"""numpy-vs-compiled kernel parity: every KERNEL_REGISTRY primitive.

The compiled backend's entire contract is *bit-identity* with the numpy
reference paths — same features, same gradients, same flips, down to the
last float64 bit.  Each ``*Parity*`` class below pins one registry kernel
to its oracle; the ``repro.analysis`` kernel-parity audit fails CI if a
registry entry loses its class here.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.incremental import IncrementalEgonetFeatures
from repro.graph.sparse import (
    _oriented_triangle_counts,
    egonet_features_sparse,
    to_sparse,
)
from repro.kernels import compiled_available, kernel_table
from repro.attacks import BinarizedAttack
from repro.oddball.surrogate import (
    SurrogateEngine,
    _group_pairs,
    _scatter_pair_gradient,
)

pytestmark = pytest.mark.skipif(
    not compiled_available(),
    reason="no C toolchain/cffi on this host; compiled backend unavailable",
)


def _graphs():
    return [
        barabasi_albert(80, 3, rng=11),
        erdos_renyi(60, 0.12, rng=7),
    ]


def _pairs(n, rng, count=200):
    rows = rng.integers(0, n, size=count)
    cols = rng.integers(0, n, size=count)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    return np.minimum(rows, cols), np.maximum(rows, cols)


class TestPairValuesParity:
    """``pair_values`` against numpy CSR membership."""

    KERNEL = "pair_values"

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_matches_dense_lookup(self, index_dtype):
        rng = np.random.default_rng(0)
        for graph in _graphs():
            csr = to_sparse(graph)
            csr.indices = csr.indices.astype(index_dtype)
            csr.indptr = csr.indptr.astype(index_dtype)
            rows, cols = _pairs(csr.shape[0], rng)
            dense = csr.toarray()
            expected = dense[rows, cols]
            got = kernel_table().pair_values(
                csr, rows.astype(np.int64), cols.astype(np.int64)
            )
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)

    def test_empty_batch(self):
        csr = to_sparse(_graphs()[0])
        out = kernel_table().pair_values(
            csr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out.size == 0

    def test_unsorted_csr_rejected(self):
        csr = to_sparse(_graphs()[0]).copy()
        csr.indices[:2] = csr.indices[:2][::-1]
        csr.has_sorted_indices = False
        with pytest.raises(ValueError, match="sorted"):
            kernel_table().pair_values(
                csr, np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
            )


def _triangle_cases():
    """Named symmetric CSRs for the triangle counts, degree ties included."""
    def from_edges(n, edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        return sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))

    clique = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    circulant = [(i, (i + k) % 12) for i in range(12) for k in (1, 2)]
    petersen = ([(i, (i + 1) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    return {
        "ba": to_sparse(_graphs()[0]),
        "er": to_sparse(_graphs()[1]),
        "clique": from_edges(7, clique),
        "two-cliques": from_edges(14, clique + [(i + 7, j + 7) for i, j in clique]),
        "circulant": from_edges(12, circulant),  # 4-regular, triangles
        "petersen": from_edges(10, petersen),  # 3-regular, triangle-free
        "isolated": from_edges(9, [(1, 2), (2, 4), (1, 4), (4, 7)]),
        "edgeless": from_edges(5, []),
    }


def _oracle(csr):
    return np.asarray(((csr @ csr).multiply(csr)).sum(axis=1)).ravel()


def _with_index_dtype(csr, dtype):
    csr = csr.copy()
    csr.indices = csr.indices.astype(dtype)
    csr.indptr = csr.indptr.astype(dtype)
    return csr


class TestTriangleCountsParity:
    """``triangle_counts`` against the scipy spgemm triangle term."""

    KERNEL = "triangle_counts"

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", sorted(_triangle_cases()))
    def test_matches_sparse_product(self, case, index_dtype):
        csr = _with_index_dtype(_triangle_cases()[case], index_dtype)
        expected = _oracle(csr)
        compiled = kernel_table().triangle_counts(csr)
        assert compiled.dtype == np.float64
        assert np.array_equal(compiled, expected)
        assert np.array_equal(_oriented_triangle_counts(csr), expected)

    @pytest.mark.parametrize("case", sorted(_triangle_cases()))
    def test_egonet_features_sparse_agrees_across_kernels(self, case):
        csr = _triangle_cases()[case]
        n_np, e_np = egonet_features_sparse(csr, kernels="numpy")
        n_c, e_c = egonet_features_sparse(csr, kernels="compiled")
        assert np.array_equal(n_np, n_c)
        assert np.array_equal(e_np, e_c)

    def test_triangle_free_graph_is_zero(self):
        star = sparse.csr_matrix(
            (np.ones(6), ([0, 0, 0, 1, 2, 3], [1, 2, 3, 0, 0, 0])),
            shape=(4, 4),
        )
        assert np.array_equal(
            kernel_table().triangle_counts(to_sparse(star)), np.zeros(4)
        )

    def test_regular_and_clique_counts(self):
        cases = _triangle_cases()
        # K7: every node closes C(6, 2) = 15 triangles, diag(A³) = 30
        assert np.array_equal(kernel_table().triangle_counts(cases["clique"]),
                              np.full(7, 30.0))
        # C12(1, 2): each node sits in 3 triangles
        assert np.array_equal(kernel_table().triangle_counts(cases["circulant"]),
                              np.full(12, 6.0))
        assert not kernel_table().triangle_counts(cases["petersen"]).any()

    def test_read_only_memmap_store(self, store):
        csr = store.csr()
        assert not csr.indices.flags.writeable  # the mapped store file
        expected = _oracle(store.detached_csr())
        assert np.array_equal(kernel_table().triangle_counts(csr), expected)
        assert np.array_equal(_oriented_triangle_counts(csr), expected)
        n_feature, e_feature = store.features()
        assert np.array_equal(e_feature, n_feature + 0.5 * expected)

    def test_unsorted_rows_are_counted(self):
        csr = to_sparse(_graphs()[0]).copy()
        rng = np.random.default_rng(5)
        for row in range(csr.shape[0]):
            lo, hi = csr.indptr[row], csr.indptr[row + 1]
            csr.indices[lo:hi] = rng.permutation(csr.indices[lo:hi])
        csr.has_sorted_indices = False
        expected = _oracle(to_sparse(_graphs()[0]))
        assert np.array_equal(kernel_table().triangle_counts(csr), expected)

    def test_non_symmetric_csr_rejected(self):
        # every row points at the next two ids: all degrees tie at 2, and
        # 7 of the 10 entries orient forward, past the nnz/2 scratch
        rows = np.repeat(np.arange(5), 2)
        cols = (rows + np.tile([1, 2], 5)) % 5
        csr = sparse.csr_matrix((np.ones(10), (rows, cols)), shape=(5, 5))
        with pytest.raises(ValueError, match="symmetric"):
            kernel_table().triangle_counts(csr)


class TestToggleBatchParity:
    """``toggle_batch`` against the per-flip Python set reference."""

    KERNEL = "toggle_batch"

    def _engines(self, graph):
        return (
            IncrementalEgonetFeatures(graph, kernels="numpy"),
            IncrementalEgonetFeatures(graph, kernels="compiled"),
        )

    def _assert_state_equal(self, ref, fast):
        assert np.array_equal(ref._n_feature, fast._n_feature)
        assert np.array_equal(ref._e_feature, fast._e_feature)
        assert (ref.adjacency_csr() != fast.adjacency_csr()).nnz == 0

    def test_interleaved_flips_batches_rollbacks(self):
        graph = _graphs()[0]
        ref, fast = self._engines(graph)
        assert ref.kernels == "numpy" and fast.kernels == "compiled"
        rng = np.random.default_rng(3)
        rows, cols = _pairs(graph.number_of_nodes, rng, count=40)
        pairs = list(zip(rows.tolist(), cols.tolist()))

        for u, v in pairs[:5]:
            ref.flip(u, v)
            fast.flip(u, v)
        self._assert_state_equal(ref, fast)

        ref.flip_batch(pairs[5:25])
        fast.flip_batch(pairs[5:25])
        self._assert_state_equal(ref, fast)

        ref.rollback(7)
        fast.rollback(7)
        self._assert_state_equal(ref, fast)

        ref.flip_batch(pairs[25:])
        fast.flip_batch(pairs[25:])
        self._assert_state_equal(ref, fast)

        ref.rollback(ref.depth)
        fast.rollback(fast.depth)
        self._assert_state_equal(ref, fast)
        clean_n, clean_e = egonet_features_sparse(graph)
        assert np.array_equal(fast._n_feature, clean_n)
        assert np.array_equal(fast._e_feature, clean_e)

    def test_repeated_pair_in_one_batch_is_apply_then_undo(self):
        graph = _graphs()[1]
        ref, fast = self._engines(graph)
        batch = [(1, 2), (3, 4), (1, 2), (1, 2)]
        ref.flip_batch(batch)
        fast.flip_batch(batch)
        self._assert_state_equal(ref, fast)
        assert fast.is_edge(1, 2) == ref.is_edge(1, 2)

    def test_membership_and_neighbors_match_after_flips(self):
        graph = _graphs()[0]
        ref, fast = self._engines(graph)
        batch = [(0, 1), (0, 2), (5, 9), (0, 1)]
        ref.flip_batch(batch)
        fast.flip_batch(batch)
        for node in (0, 1, 2, 5, 9, 17):
            assert ref.neighbors(node) == fast.neighbors(node)
            assert ref.degree(node) == fast.degree(node)


def _compiled_scatter(csr, d_n, d_e, rows, cols, delta=()):
    """``(gradient, entries walked)`` from the compiled scatter kernel."""
    groups = _group_pairs(rows, cols, csr.shape[0])
    return kernel_table().scatter_pair_gradient(
        csr, d_n, d_e, groups, delta=delta
    )


def _per_hub_scatter(csr, d_n, d_e, rows, cols, delta=()):
    """Per-hub form of ``_scatter_pair_gradient``: two O(m) mat-vecs
    against each dense hub row, with the Δ overlay folded in per hub."""
    gradient = d_n[rows] + d_n[cols] + d_e[rows] + d_e[cols]
    n = csr.shape[0]
    groups = _group_pairs(rows, cols, n)
    for hub in dict.fromkeys(groups.hubs.tolist()):
        in_group = groups.hubs == hub
        hub_row = np.zeros(n)
        start, stop = csr.indptr[hub], csr.indptr[hub + 1]
        hub_row[csr.indices[start:stop]] = csr.data[start:stop]
        for u, v, d in delta:
            if u == hub:
                hub_row[v] += d
            elif v == hub:
                hub_row[u] += d
        counts = csr @ hub_row
        weighted = csr @ (hub_row * d_e)
        for u, v, d in delta:
            counts[u] += d * hub_row[v]
            counts[v] += d * hub_row[u]
            weighted[u] += d * hub_row[v] * d_e[v]
            weighted[v] += d * hub_row[u] * d_e[u]
        partners = groups.partners[in_group]
        gradient[groups.order[in_group]] += (
            (d_e[hub] + d_e[partners]) * counts[partners] + weighted[partners]
        )
    return gradient


def _walks(csr, rows, cols, delta=()):
    """The walk the kernel's cost rule picks for each hub group.

    One ``(branch, cost)`` per group: ``"pull"`` walks the partners' rows
    (Σ deg(p)), ``"push"`` walks the rows of the hub's Δ-folded row
    support (Σ deg(c)); the shorter walk wins, ties go to pull.  A push
    whose accumulators are cleared by re-walking (2·cost ≤ n) is reported
    as ``"push-rewalk"``.
    """
    n = csr.shape[0]
    degree = np.diff(csr.indptr)
    groups = _group_pairs(rows, cols, n)
    walks = []
    for hub in dict.fromkeys(groups.hubs.tolist()):
        support = set(csr.indices[csr.indptr[hub]:csr.indptr[hub + 1]].tolist())
        support |= {v if u == hub else u for u, v, _ in delta if hub in (u, v)}
        push = int(sum(degree[c] for c in support))
        pull = int(degree[groups.partners[groups.hubs == hub]].sum())
        if push >= pull:
            walks.append(("pull", pull))
        else:
            walks.append(("push" if 2 * push > n else "push-rewalk", push))
    return walks


def _incident_pairs(hub, partners):
    """Canonical pairs joining ``hub`` to each of ``partners``."""
    partners = np.asarray([p for p in partners if p != hub], dtype=np.int64)
    hubs = np.full(partners.size, hub, dtype=np.int64)
    return np.minimum(hubs, partners), np.maximum(hubs, partners)


def _with_index_dtype(csr, index_dtype):
    csr = csr.copy()
    csr.indices = csr.indices.astype(index_dtype)
    csr.indptr = csr.indptr.astype(index_dtype)
    return csr


class TestScatterGradientParity:
    """``scatter_gradient`` against ``_scatter_pair_gradient``.

    The kernel picks a pull or a push walk per hub group; the cases below
    are built so that each walk (and both ways of clearing the push
    accumulators) runs, which the walked-entry count returned by the
    kernel confirms against :func:`_walks`.
    """

    KERNEL = "scatter_gradient"

    def _inputs(self, graph, rng):
        csr = to_sparse(graph)
        n = csr.shape[0]
        rows, cols = _pairs(n, rng, count=300)
        d_n = rng.standard_normal(n)
        d_e = rng.standard_normal(n)
        return csr, d_n, d_e, rows.astype(np.int64), cols.astype(np.int64)

    def _check(self, csr, d_n, d_e, rows, cols, delta=()):
        """Assert bit-identity of the kernel, the blocked numpy scatter and
        the per-hub loop; return the walks the kernel took."""
        expected = _scatter_pair_gradient(csr, d_n, d_e, rows, cols, delta=delta)
        assert np.array_equal(
            expected, _per_hub_scatter(csr, d_n, d_e, rows, cols, delta)
        )
        got, entries = _compiled_scatter(csr, d_n, d_e, rows, cols, delta)
        assert np.array_equal(got, expected)
        walks = _walks(csr, rows, cols, delta)
        assert entries == sum(cost for _, cost in walks)
        return {branch for branch, _ in walks}

    def _mixed_pairs(self, csr, rng):
        """A push group (top hub, all partners), two re-walk push groups
        (the two lowest-degree hubs, 60 partners each) and random pairs
        (pull groups).  Push groups share the accumulators, so one that
        failed to clear them would corrupt the next."""
        n = csr.shape[0]
        degree = np.diff(csr.indptr)
        top = int(np.argmax(degree))
        lows = np.argsort(
            np.where(degree > 0, degree, degree.max() + 1), kind="stable"
        )[:2].tolist()
        parts = [_incident_pairs(top, range(n))]
        parts += [
            _incident_pairs(low, rng.choice(n, size=60, replace=False))
            for low in lows
        ]
        parts.append(_pairs(n, rng, count=300))
        rows = np.concatenate([r for r, _ in parts]).astype(np.int64)
        cols = np.concatenate([c for _, c in parts]).astype(np.int64)
        return rows, cols, top, lows[0]

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(5)
        for graph in _graphs():
            csr, d_n, d_e, rows, cols = self._inputs(graph, rng)
            assert "pull" in self._check(csr, d_n, d_e, rows, cols)

    def test_matches_numpy_reference_with_delta_overlay(self):
        rng = np.random.default_rng(6)
        for graph in _graphs():
            csr, d_n, d_e, rows, cols = self._inputs(graph, rng)
            delta = [
                (int(rows[0]), int(cols[0]), 1.0),
                (int(rows[1]), int(cols[1]), -1.0),
                (3, 7, 1.0),
            ]
            self._check(csr, d_n, d_e, rows, cols, delta)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_one_target_all_partners_pushes(self, index_dtype):
        rng = np.random.default_rng(7)
        for graph in _graphs():
            csr = _with_index_dtype(to_sparse(graph), index_dtype)
            n = csr.shape[0]
            hub = int(np.argmax(np.diff(csr.indptr)))
            rows, cols = _incident_pairs(hub, range(n))
            d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
            assert self._check(csr, d_n, d_e, rows, cols) == {"push"}

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_mixed_push_and_pull_in_one_call(self, index_dtype):
        rng = np.random.default_rng(8)
        csr = _with_index_dtype(
            to_sparse(barabasi_albert(400, 2, rng=3)), index_dtype
        )
        n = csr.shape[0]
        rows, cols, _, _ = self._mixed_pairs(csr, rng)
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        assert self._check(csr, d_n, d_e, rows, cols) == {
            "push", "push-rewalk", "pull"
        }

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_delta_overlays_on_both_walks(self, index_dtype):
        rng = np.random.default_rng(9)
        csr = _with_index_dtype(
            to_sparse(barabasi_albert(400, 2, rng=3)), index_dtype
        )
        n = csr.shape[0]
        rows, cols, top, low = self._mixed_pairs(csr, rng)
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        adjacency = csr.toarray()
        non_nbr, nbr = [], []
        for hub in (top, low):
            nbr.append(int(np.flatnonzero(adjacency[hub])[0]))
            row = adjacency[hub].copy()
            row[hub] = 1.0  # never pair a hub with itself
            non_nbr.append(int(np.flatnonzero(row == 0)[-1]))
        delta = [
            (top, non_nbr[0], 1.0),    # new hub neighbour
            (top, nbr[0], -1.0),       # delete a hub neighbour
            (low, non_nbr[1], 1.0),
            (low, nbr[1], -1.0),
            (int(rows[-1]), int(cols[-1]), 1.0),  # partners only
            (int(rows[-2]), int(cols[-2]), -1.0),
            (top, non_nbr[0], 1.0),    # repeated: d accumulates
            (int(rows[-1]), int(cols[-1]), -1.0),
        ]
        delta = [(min(u, v), max(u, v), d) for u, v, d in delta]
        assert self._check(csr, d_n, d_e, rows, cols, delta) == {
            "push", "push-rewalk", "pull"
        }

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_numpy_blocks_with_delta_on_several_blocks(self, index_dtype):
        """More hubs than one numpy block holds, with Δ entries on hubs in
        different blocks (one entry joins two of them)."""
        rng = np.random.default_rng(12)
        csr = _with_index_dtype(
            to_sparse(barabasi_albert(400, 2, rng=3)), index_dtype
        )
        n = csr.shape[0]
        rows, cols = _pairs(n, rng, count=600)
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        hubs = list(dict.fromkeys(_group_pairs(rows, cols, n).hubs.tolist()))
        width = max(1, (rows.size + n) // n)  # _scatter_pair_gradient's block
        picked = [hubs[0], hubs[len(hubs) // 2], hubs[-1]]
        assert len({hubs.index(h) // width for h in picked}) == 3
        adjacency = csr.toarray()

        def toggle(u, v):
            u, v = min(u, v), max(u, v)
            return (u, v, -1.0 if adjacency[u, v] else 1.0)

        nbr = int(csr.indices[csr.indptr[picked[2]]])
        delta = [
            toggle(picked[0], picked[1]),
            toggle(picked[2], nbr),
            toggle(picked[1], (picked[1] + 7) % n),
            toggle(picked[0], picked[1]),  # repeated: d accumulates
        ]
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        self._check(csr, d_n, d_e, rows, cols, delta)

    def test_readonly_mmap_store_csr(self, store):
        csr = store.csr()
        assert not csr.indices.flags.writeable
        rng = np.random.default_rng(10)
        n = csr.shape[0]
        rows, cols, top, _ = self._mixed_pairs(csr, rng)
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        other = int(csr.indices[csr.indptr[top]])
        delta = [(min(top, other), max(top, other), -1.0)]
        branches = self._check(csr, d_n, d_e, rows, cols, delta)
        assert "pull" in branches and branches & {"push", "push-rewalk"}

    def test_empty_candidates(self):
        csr = to_sparse(_graphs()[0])
        n = csr.shape[0]
        out, entries = _compiled_scatter(
            csr,
            np.zeros(n),
            np.zeros(n),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert out.size == 0 and entries == 0

    def test_relaxed_step_on_push_walk(self):
        """The fractional base + overlay matrix is symmetric, so the push
        walk over it matches the numpy engine bit for bit."""
        for graph in _graphs():
            csr = to_sparse(graph)
            n = csr.shape[0]
            hub = int(np.argmax(np.diff(csr.indptr)))
            rows, cols = _incident_pairs(hub, range(n))
            engines = [
                SurrogateEngine.create(csr, [hub], (rows, cols), kernels=kernels)
                for kernels in ("numpy", "compiled")
            ]
            base = engines[0].edge_values
            values = np.clip(
                base + np.linspace(-0.4, 0.4, rows.size), 0.0, 1.0
            )
            loss_ref, grad_ref = engines[0].relaxed_step(values)
            loss_fast, grad_fast = engines[1].relaxed_step(values)
            assert loss_ref == loss_fast
            assert np.array_equal(grad_ref, grad_fast)
            # The matrix relaxed_step scatters over, as the engine builds
            # it on its CSR branch: the frozen base plus the values.
            overlay = sparse.coo_matrix(
                (np.concatenate([values, values]),
                 (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                shape=(n, n),
            )
            frozen = engines[0]._frozen_base(dense=False)
            matrix = (frozen + overlay).tocsr()
            assert matrix.has_sorted_indices
            assert (matrix != matrix.T).nnz == 0
            assert {b for b, _ in _walks(matrix, rows, cols)} == {"push"}


class TestEngineKernelParity:
    """End-to-end: the sparse engine is bit-identical under both backends."""

    def _engine(self, graph, kernels):
        csr = to_sparse(graph)
        n = csr.shape[0]
        rng = np.random.default_rng(9)
        rows, cols = _pairs(n, rng, count=250)
        return SurrogateEngine.create(
            csr,
            [0, 3, 5],
            (rows, cols),
            kernels=kernels,
        )

    def test_gradients_and_steps_match(self):
        for graph in _graphs():
            ref = self._engine(graph, "numpy")
            fast = self._engine(graph, "compiled")
            assert ref.kernels == "numpy" and fast.kernels == "compiled"
            assert np.array_equal(
                ref.candidate_gradient(), fast.candidate_gradient()
            )
            values = np.clip(
                ref.edge_values + 0.25 * np.sign(0.5 - ref.edge_values), 0, 1
            )
            loss_ref, grad_ref = ref.relaxed_step(values)
            loss_fast, grad_fast = fast.relaxed_step(values)
            assert loss_ref == loss_fast
            assert np.array_equal(grad_ref, grad_fast)
            for u, v in [(0, 1), (3, 9), (5, 12)]:
                ref.apply_flip(u, v)
                fast.apply_flip(u, v)
            assert ref.current_loss() == fast.current_loss()
            assert np.array_equal(
                ref.candidate_gradient(), fast.candidate_gradient()
            )

    def test_binarized_attack_on_store_graph(self, store):
        """target_incident candidates put every node in one group per
        target — the push walk's regime — on a memory-mapped store CSR."""
        targets = store.top_targets(2)
        results = [
            BinarizedAttack(
                iterations=10, lambdas=(0.2, 0.05),
                kernels=kernels,
            ).attack(store, targets, 3, candidates="target_incident")
            for kernels in ("numpy", "compiled")
        ]
        assert results[0].flips_by_budget == results[1].flips_by_budget
        assert results[0].surrogate_by_budget == results[1].surrogate_by_budget
        assert len(results[1].flips()) == 3
