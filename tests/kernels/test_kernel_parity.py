"""numpy-vs-compiled kernel parity: every public ``CompiledKernels`` method.

The compiled backend's entire contract is *bit-identity* with the numpy
reference paths — same features, same gradients, same flips, down to the
last float64 bit.  ``test_every_compiled_kernel_matches_its_oracle`` is
parametrised over ``CompiledKernels``' public methods, so a kernel added
without an entry in ``ORACLE_CHECKS`` fails there, by name; the
``*Parity*`` classes below pin each kernel's edge cases.
"""

import inspect
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.sparse import (
    _oriented_triangle_counts,
    egonet_features_sparse,
    to_sparse,
)
from repro.kernels import compiled as compiled_kernels
from repro.kernels import compiled_available, kernel_table
from repro.kernels.compiled import CompiledKernels
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
    """``pair_values`` edge cases; its oracle check is in ``ORACLE_CHECKS``."""

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


INDEX_DTYPES = (np.int32, np.int64)


def _with_index_dtype(csr, dtype):
    csr = csr.copy()
    csr.indices = csr.indices.astype(dtype)
    csr.indptr = csr.indptr.astype(dtype)
    return csr


@pytest.fixture(params=(1, 2, 3, 7), ids=lambda count: f"{count}-shares")
def triangle_shares(request, monkeypatch):
    """Split every compiled triangle count into ``request.param`` shares
    (fewer when the graph has fewer stored entries); returns the list of
    share threads each call starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(compiled_kernels, "GRAIN", 1)
    monkeypatch.setattr(compiled_kernels, "usable_cpus", lambda: request.param)
    monkeypatch.setattr(compiled_kernels, "threading", SimpleNamespace(Thread=Recorded))
    return started


def _shared_triangle_counts(started, csr):
    """``triangle_counts`` under the ``triangle_shares`` fixture; checks
    that the call started one thread per share past the first and left
    none running."""
    before = threading.active_count()
    started.clear()
    counts = kernel_table().triangle_counts(csr)
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in started)
    assert len(started) == compiled_kernels.triangle_shares(csr.nnz) - 1
    return counts


class TestTriangleCountsParity:
    """``triangle_counts`` against the scipy spgemm triangle term, beyond
    the named cases of its ``ORACLE_CHECKS`` entry, on 1, 2, 3 and 7
    shares."""

    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("case", sorted(_triangle_cases()))
    def test_share_count_changes_nothing(self, case, index_dtype, triangle_shares):
        csr = _with_index_dtype(_triangle_cases()[case], index_dtype)
        assert np.array_equal(
            _shared_triangle_counts(triangle_shares, csr), _oracle(csr)
        )

    def test_more_shares_than_nodes(self, triangle_shares):
        k4 = to_sparse(sparse.csr_matrix(np.ones((4, 4)) - np.eye(4)))
        counts = _shared_triangle_counts(triangle_shares, k4)
        assert np.array_equal(counts, np.full(4, 6.0))  # 3 triangles a node

    @pytest.mark.parametrize("case", sorted(_triangle_cases()))
    def test_egonet_features_sparse_agrees_across_kernels(self, case, use_kernels):
        csr = _triangle_cases()[case]
        use_kernels("numpy")
        n_np, e_np = egonet_features_sparse(csr)
        use_kernels("compiled")
        n_c, e_c = egonet_features_sparse(csr)
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

    def test_read_only_memmap_store(self, store, triangle_shares):
        csr = store.csr()
        assert not csr.indices.flags.writeable  # the mapped store file
        expected = _oracle(store.detached_csr())
        assert np.array_equal(_shared_triangle_counts(triangle_shares, csr), expected)
        assert np.array_equal(_oriented_triangle_counts(csr), expected)
        n_feature, e_feature = store.features()
        assert np.array_equal(e_feature, n_feature + 0.5 * expected)

    def test_unsorted_rows_are_counted(self, triangle_shares):
        csr = to_sparse(_graphs()[0]).copy()
        rng = np.random.default_rng(5)
        for row in range(csr.shape[0]):
            lo, hi = csr.indptr[row], csr.indptr[row + 1]
            csr.indices[lo:hi] = rng.permutation(csr.indices[lo:hi])
        csr.has_sorted_indices = False
        expected = _oracle(to_sparse(_graphs()[0]))
        assert np.array_equal(_shared_triangle_counts(triangle_shares, csr), expected)

    def test_non_symmetric_csr_rejected(self, triangle_shares):
        # every row points at the next two ids: all degrees tie at 2, and
        # 7 of the 10 entries orient forward, past the nnz/2 scratch
        rows = np.repeat(np.arange(5), 2)
        cols = (rows + np.tile([1, 2], 5)) % 5
        csr = sparse.csr_matrix((np.ones(10), (rows, cols)), shape=(5, 5))
        before = threading.active_count()
        with pytest.raises(ValueError, match="symmetric"):
            kernel_table().triangle_counts(csr)
        assert triangle_shares == []  # raised before any thread started
        assert threading.active_count() == before


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


def _scatter_inputs(graph, rng):
    csr = to_sparse(graph)
    n = csr.shape[0]
    rows, cols = _pairs(n, rng, count=300)
    d_n = rng.standard_normal(n)
    d_e = rng.standard_normal(n)
    return csr, d_n, d_e, rows.astype(np.int64), cols.astype(np.int64)


def _check_scatter(csr, d_n, d_e, rows, cols, delta=()):
    """Assert bit-identity of the kernel, the blocked numpy scatter and the
    per-hub loop; return the walks the kernel took."""
    expected = _scatter_pair_gradient(csr, d_n, d_e, rows, cols, delta=delta)
    assert np.array_equal(
        expected, _per_hub_scatter(csr, d_n, d_e, rows, cols, delta)
    )
    got, entries = _compiled_scatter(csr, d_n, d_e, rows, cols, delta)
    assert np.array_equal(got, expected)
    walks = _walks(csr, rows, cols, delta)
    assert entries == sum(cost for _, cost in walks)
    return {branch for branch, _ in walks}


class TestScatterGradientParity:
    """``scatter_pair_gradient`` against ``_scatter_pair_gradient``.

    The kernel picks a pull or a push walk per hub group; the cases below
    are built so that each walk (and both ways of clearing the push
    accumulators) runs, which the walked-entry count returned by the
    kernel confirms against :func:`_walks`; the plain pull-walk check is
    in ``ORACLE_CHECKS``.
    """

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

    def test_matches_numpy_reference_with_delta_overlay(self):
        rng = np.random.default_rng(6)
        for graph in _graphs():
            csr, d_n, d_e, rows, cols = _scatter_inputs(graph, rng)
            delta = [
                (int(rows[0]), int(cols[0]), 1.0),
                (int(rows[1]), int(cols[1]), -1.0),
                (3, 7, 1.0),
            ]
            _check_scatter(csr, d_n, d_e, rows, cols, delta)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_one_target_all_partners_pushes(self, index_dtype):
        rng = np.random.default_rng(7)
        for graph in _graphs():
            csr = _with_index_dtype(to_sparse(graph), index_dtype)
            n = csr.shape[0]
            hub = int(np.argmax(np.diff(csr.indptr)))
            rows, cols = _incident_pairs(hub, range(n))
            d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
            assert _check_scatter(csr, d_n, d_e, rows, cols) == {"push"}

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_mixed_push_and_pull_in_one_call(self, index_dtype):
        rng = np.random.default_rng(8)
        csr = _with_index_dtype(
            to_sparse(barabasi_albert(400, 2, rng=3)), index_dtype
        )
        n = csr.shape[0]
        rows, cols, _, _ = self._mixed_pairs(csr, rng)
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        assert _check_scatter(csr, d_n, d_e, rows, cols) == {
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
        assert _check_scatter(csr, d_n, d_e, rows, cols, delta) == {
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
        _check_scatter(csr, d_n, d_e, rows, cols, delta)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_full_set_under_a_heavy_delta(self, index_dtype):
        """A ``full`` candidate set under 49 Δ entries, close to
        ``csr_with_delta``'s ``max_delta=64``.  A full set groups every
        pair under its row, so node n-1 is a partner only.  12 entries join
        it to other nodes, 13 toggle edges of the top hub (two deletions),
        random pairs fill the Δ to 48 entries, and one pair repeats (d
        accumulates to zero).  Hub folds and partner fixups then each
        follow multi-entry Δ lists, on all three walks."""
        rng = np.random.default_rng(13)
        csr = _with_index_dtype(
            to_sparse(barabasi_albert(120, 3, rng=5)), index_dtype
        )
        n = csr.shape[0]
        rows, cols = np.triu_indices(n, k=1)
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        adjacency = csr.toarray()
        top, last = int(np.argmax(np.diff(csr.indptr))), n - 1
        pairs = {}  # canonical pair -> toggle direction, in insertion order

        def add(u, v):
            u, v = min(u, v), max(u, v)
            if u != v:
                pairs.setdefault((u, v), -1.0 if adjacency[u, v] else 1.0)

        for u in rng.choice(last, size=12, replace=False):
            add(int(u), last)
        for v in rng.permutation(n)[:13]:
            add(top, int(v))
        while len(pairs) < 48:
            add(*map(int, rng.integers(0, n, size=2)))
        delta = [(u, v, d) for (u, v), d in pairs.items()]
        u, v, d = delta[5]
        delta.append((u, v, -d))
        assert len(delta) == 49
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        assert _check_scatter(csr, d_n, d_e, rows, cols, delta) == {
            "push", "push-rewalk", "pull"
        }

    def test_readonly_mmap_store_csr(self, store):
        csr = store.csr()
        assert not csr.indices.flags.writeable
        rng = np.random.default_rng(10)
        n = csr.shape[0]
        rows, cols, top, _ = self._mixed_pairs(csr, rng)
        d_n, d_e = rng.standard_normal(n), rng.standard_normal(n)
        other = int(csr.indices[csr.indptr[top]])
        delta = [(min(top, other), max(top, other), -1.0)]
        branches = _check_scatter(csr, d_n, d_e, rows, cols, delta)
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

    def test_relaxed_step_on_push_walk(self, use_kernels):
        """The fractional base + overlay matrix is symmetric, so the push
        walk over it matches the numpy engine bit for bit."""
        for graph in _graphs():
            csr = to_sparse(graph)
            n = csr.shape[0]
            hub = int(np.argmax(np.diff(csr.indptr)))
            rows, cols = _incident_pairs(hub, range(n))
            engines = []
            for kernels in ("numpy", "compiled"):
                use_kernels(kernels)
                engines.append(SurrogateEngine.create(csr, [hub], (rows, cols)))
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

    def _engine(self, graph):
        csr = to_sparse(graph)
        n = csr.shape[0]
        rng = np.random.default_rng(9)
        rows, cols = _pairs(n, rng, count=250)
        return SurrogateEngine.create(csr, [0, 3, 5], (rows, cols))

    def test_gradients_and_steps_match(self, use_kernels):
        for graph in _graphs():
            use_kernels("numpy")
            ref = self._engine(graph)
            use_kernels("compiled")
            fast = self._engine(graph)
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

    def test_binarized_attack_on_store_graph(self, store, use_kernels):
        """target_incident candidates put every node in one group per
        target — the push walk's regime — on a memory-mapped store CSR."""
        targets = store.top_targets(2)
        results = []
        for kernels in ("numpy", "compiled"):
            use_kernels(kernels)
            results.append(BinarizedAttack(iterations=20).attack(
                store, targets, 3, candidates="target_incident"
            ))
        assert results[0].flips_by_budget == results[1].flips_by_budget
        assert results[0].surrogate_by_budget == results[1].surrogate_by_budget
        assert len(results[1].flips()) == 3


def _pair_values_oracle(index_dtype):
    """``pair_values`` against the dense adjacency's entries."""
    rng = np.random.default_rng(0)
    for graph in _graphs():
        csr = _with_index_dtype(to_sparse(graph), index_dtype)
        rows, cols = _pairs(csr.shape[0], rng)
        got = kernel_table().pair_values(
            csr, rows.astype(np.int64), cols.astype(np.int64)
        )
        assert got.dtype == np.float64
        assert np.array_equal(got, csr.toarray()[rows, cols])


def _triangle_counts_oracle(case, index_dtype):
    """``triangle_counts`` and the numpy oriented counts against the spgemm
    triangle term."""
    csr = _with_index_dtype(_triangle_cases()[case], index_dtype)
    expected = _oracle(csr)
    compiled = kernel_table().triangle_counts(csr)
    assert compiled.dtype == np.float64
    assert np.array_equal(compiled, expected)
    assert np.array_equal(_oriented_triangle_counts(csr), expected)


def _scatter_pair_gradient_oracle():
    """``scatter_pair_gradient`` on random (pull-walk) pairs."""
    rng = np.random.default_rng(5)
    for graph in _graphs():
        csr, d_n, d_e, rows, cols = _scatter_inputs(graph, rng)
        assert "pull" in _check_scatter(csr, d_n, d_e, rows, cols)


def _merge_novel_oracle():
    """``merge_novel`` against numpy's ``union1d``/``setdiff1d``."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        keys = np.unique(rng.integers(0, 500, size=rng.integers(0, 200)))
        new = np.unique(rng.integers(0, 500, size=rng.integers(0, 200)))
        limit = int(rng.integers(0, 100))
        fresh = np.setdiff1d(new, keys, assume_unique=True)
        got = kernel_table().merge_novel(keys, new)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.union1d(keys, new))
        assert np.array_equal(
            kernel_table().merge_novel(keys, new, limit),
            np.union1d(keys, fresh[:limit]),
        )


def _upper_keys(csr):
    """Sorted upper-triangle keys ``u·n + v`` of a symmetric CSR."""
    upper = sparse.triu(csr, k=1).tocoo()
    return np.sort(upper.row.astype(np.int64) * csr.shape[0] + upper.col)


def _assemble_csr_oracle(index_dtype):
    """``assemble_csr`` against the graph's sorted CSR and the builder's
    numpy reference."""
    from repro.store.builder import _assemble_csr

    for case, csr in sorted(_triangle_cases().items()):
        csr = to_sparse(csr)
        n, keys = csr.shape[0], _upper_keys(csr)
        indptr, indices = kernel_table().assemble_csr(n, keys, index_dtype)
        assert indptr.dtype == indices.dtype == index_dtype, case
        assert np.array_equal(indptr, csr.indptr), case
        assert np.array_equal(indices, csr.indices), case
        ref_indptr, ref_indices = _assemble_csr(n, keys, index_dtype)
        assert np.array_equal(indptr, ref_indptr), case
        assert np.array_equal(indices, ref_indices), case


def _is_symmetric_oracle(index_dtype):
    """``is_symmetric`` against the structure-equals-``tocsc`` test, on
    each graph and on each with one lower entry moved to a free column."""
    def oracle(csr):
        transposed = csr.tocsc()
        return (np.array_equal(transposed.indptr, csr.indptr)
                and np.array_equal(transposed.indices, csr.indices))

    for case, csr in sorted(_triangle_cases().items()):
        csr = _with_index_dtype(to_sparse(csr), index_dtype)
        assert kernel_table().is_symmetric(csr) is oracle(csr) is True, case
        n = csr.shape[0]
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        for k in np.flatnonzero(csr.indices < rows)[:5]:
            row = rows[k]
            taken = set(csr.indices[csr.indptr[row]:csr.indptr[row + 1]].tolist())
            free = [c for c in range(n) if c != row and c not in taken]
            if not free:
                continue
            broken = csr.copy()
            broken.indices[k] = free[0]
            broken.sort_indices()
            assert kernel_table().is_symmetric(broken) is oracle(broken) is False, case


#: Public ``CompiledKernels`` method -> {case id: its check against the
#: numpy oracle}.  Each kernel's basic oracle check lives here only.
ORACLE_CHECKS = {
    "assemble_csr": {
        dtype.__name__: partial(_assemble_csr_oracle, dtype) for dtype in INDEX_DTYPES
    },
    "is_symmetric": {
        dtype.__name__: partial(_is_symmetric_oracle, dtype) for dtype in INDEX_DTYPES
    },
    "merge_novel": {"random": _merge_novel_oracle},
    "pair_values": {
        dtype.__name__: partial(_pair_values_oracle, dtype) for dtype in INDEX_DTYPES
    },
    "scatter_pair_gradient": {"pull": _scatter_pair_gradient_oracle},
    "triangle_counts": {
        f"{case}-{dtype.__name__}": partial(_triangle_counts_oracle, case, dtype)
        for case in sorted(_triangle_cases())
        for dtype in INDEX_DTYPES
    },
}


def _kernel_cases():
    """One param per oracle case of each public ``CompiledKernels`` method,
    and one failing ``<method>-unchecked`` param for a method with none."""
    for kernel, _ in inspect.getmembers(CompiledKernels, inspect.isfunction):
        if kernel.startswith("_"):
            continue
        cases = ORACLE_CHECKS.get(kernel) or {"unchecked": None}
        for case in cases:
            yield pytest.param(kernel, case, id=f"{kernel}-{case}")


@pytest.mark.parametrize(("kernel", "case"), _kernel_cases())
def test_every_compiled_kernel_matches_its_oracle(kernel, case):
    assert kernel in ORACLE_CHECKS, (
        f"CompiledKernels.{kernel} has no numpy-oracle check in ORACLE_CHECKS"
    )
    ORACLE_CHECKS[kernel][case]()
