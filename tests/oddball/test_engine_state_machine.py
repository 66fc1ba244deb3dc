"""Hypothesis state machine over the sparse engine's lifecycle and memos.

One :class:`~repro.oddball.surrogate.SparseSurrogateEngine` is driven
through random sequences of ``binarized_step``, ``push_flip``/
``pop_flips``, ``apply_flip`` (on free and on candidate pairs),
``checkpoint``/``restore``, ``set_candidates``, ``retarget`` and real
candidate refreshes: an ``adaptive_gradient`` set growing through
``AdaptiveCandidateSet.refresh`` and a ``block`` set evicting through
``BlockCandidateSet.refresh``, each optionally after applying the landed
candidate flip.  A dense 0/1 array models the graph the engine should
hold.  After every ``binarized_step``, ``current_loss`` and
``candidate_gradient`` the answer is compared bit for bit with a freshly
built engine on that modelled graph (for the gradient, held as the same
cached CSR plus overlay of unfolded flips), so every memo the engine keeps
(the objective per graph version, the iterate LRU per version and flip
set) must return exactly what a recomputation would.

The per-pair cache (``edge_values``, ``flip_direction``) and the hub
grouping describe the graph as of the last ``set_candidates``,
``retarget``, refresh or ``restore``; a second model array holds that
graph.  After every rule they are compared bit for bit with a fresh
engine's on it, so a cache carried along a refresh's lineage or fixed up
by ``restore`` must equal a full re-read.

Ż vectors come from a small pool per candidate set, so flip sets repeat
(memo hits) and more distinct sets than the LRU holds occur (evictions).
Two Ż vectors of the pool share one flip set with different values.
Transient probes never touch a pair of the current candidate set, the
candidates change only while no transient flip is pending, and
``binarized_step`` runs only while no candidate pair has been flipped
since the cache was built, so its ``flip_direction`` describes the
current graph and the fresh engine is an exact reference.  The machine
runs on both kernel backends and on an engine backed by a memory-mapped
store.

Each machine runs ``$REPRO_STATE_MACHINE_EXAMPLES`` examples (50 by
default); CI also runs them at 300, deep enough to reach rare sequences
such as candidate flip → checkpoint → refresh → restore.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from scipy import sparse

from repro.attacks.candidates import AdaptiveCandidateSet, BlockCandidateSet
from repro.oddball.surrogate import (
    ITERATE_MEMO_SIZE,
    SparseSurrogateEngine,
    _group_pairs,
)
from repro.store import build_store

#: Distinct flip sets in each candidate set's Ż pool (more than the LRU holds).
POOL_FLIP_SETS = ITERATE_MEMO_SIZE + 3
TARGET_SETS = ([0, 1, 2], [5, 17], [3, 40, 41, 60])
FLOORS = (1.0, 0.5)

KERNELS = ["numpy", "compiled"]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return build_store(
        "er", cache_dir=tmp_path_factory.mktemp("machine-store"), scale=0.1, seed=3
    )


def _candidate_set(n: int, targets: "list[int]", seed: int):
    """Seeds 0-2 as :func:`_candidate_pool` arrays; seed 3 an
    ``adaptive_gradient`` set (admitting at most 8 pairs a refresh),
    seed 4 a ``block`` of 150 pairs."""
    if seed == 3:
        return AdaptiveCandidateSet.start(n, targets, admit_cap=8)
    if seed == 4:
        return BlockCandidateSet.start(n, block_size=150, seed=5)
    return _candidate_pool(n, targets, seed)


def _candidate_pool(n: int, targets: "list[int]", seed: int):
    """Canonical candidate pairs: target-incident (seed 0) or 120 random pairs."""
    if seed == 0:
        pairs = {(min(t, v), max(t, v)) for t in targets for v in range(n) if v != t}
        keys = np.array(sorted(u * n + v for u, v in pairs), dtype=np.intp)
    else:
        rows, cols = np.triu_indices(n, k=1)
        chosen = np.random.default_rng(seed).choice(rows.size, 120, replace=False)
        keys = np.sort(rows[chosen] * n + cols[chosen])
    return keys // n, keys % n


def _zdot_pool(size: int) -> "list[np.ndarray]":
    """Ż vectors: the empty flip set first, then sets of 1-3 flips.

    Entry 1 and entry 2 flip the same pairs with different Ż values.
    """
    rng = np.random.default_rng(size)
    pool = [np.zeros(size)]
    for _ in range(POOL_FLIP_SETS - 1):
        zdot = rng.uniform(0.0, 0.49, size)
        zdot[rng.choice(size, int(rng.integers(1, 4)), replace=False)] = 0.75
        pool.append(zdot)
    twin = pool[1].copy()
    twin[twin >= 0.5] = 1.0
    twin[twin < 0.5] *= 0.5
    pool.insert(2, twin)
    return pool


def make_machine(graph, dense: np.ndarray):
    """A state-machine class driving one engine built on ``graph``."""
    n = dense.shape[0]

    class EngineMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.adj = dense.copy()
            self.cache_adj = dense.copy()  # the graph the pair cache describes
            self.pending: "list[tuple[int, int]]" = []
            self.snapshots: "dict[int, np.ndarray]" = {}
            self.targets, self.floor, self.weights = TARGET_SETS[0], 1.0, None
            self._use_candidates(0)
            self.engine = SparseSurrogateEngine(graph, self.targets, self.candidates)

        # -- model helpers ----------------------------------------------
        def _use_candidates(self, seed: int) -> None:
            self._track(_candidate_set(n, self.targets, seed))

        def _track(self, candidates) -> None:
            """Model the engine's candidates (a CandidateSet or arrays);
            the pair cache now describes the current graph."""
            self.candidates = candidates
            if isinstance(candidates, tuple):
                self.rows, self.cols = candidates
            else:
                self.rows, self.cols = candidates.rows, candidates.cols
            self.pool = _zdot_pool(self.rows.size)
            self.candidate_keys = set((self.rows * n + self.cols).tolist())
            self.cache_adj = self.adj.copy()

        def _cache_current(self) -> bool:
            """No candidate pair has flipped since the pair cache was built."""
            return np.array_equal(
                self.adj[self.rows, self.cols], self.cache_adj[self.rows, self.cols]
            )

        def _toggle(self, u: int, v: int) -> None:
            self.adj[u, v] = self.adj[v, u] = 1.0 - self.adj[u, v]

        def _candidate_pair(self, data) -> "tuple[int, int]":
            k = data.draw(st.integers(0, self.rows.size - 1), label="k")
            return int(self.rows[k]), int(self.cols[k])

        def _free_pair(self, data) -> "tuple[int, int]":
            """A pair outside the candidate set (keeps flip_direction exact)."""
            while True:
                u = data.draw(st.integers(0, n - 2), label="u")
                v = data.draw(st.integers(u + 1, n - 1), label="v")
                if u * n + v not in self.candidate_keys:
                    return u, v

        def _reference(self, adj: "np.ndarray | None" = None) -> SparseSurrogateEngine:
            return SparseSurrogateEngine(
                sparse.csr_matrix(self.adj if adj is None else adj), self.targets,
                (self.rows, self.cols),
                floor=self.floor, weights=self.weights,
            )

        def _overlay_reference(self) -> SparseSurrogateEngine:
            """A fresh engine holding the current graph in the form the
            engine under test evaluates gradients on: its cached CSR plus
            the overlay of flips not yet folded into it, pushed in the same
            order.  The overlay changes the summation order of the scatter
            (by round-off), not the graph.
            """
            base, delta = self.engine._features.csr_with_delta()
            reference = SparseSurrogateEngine(
                sparse.csr_matrix(base, copy=True), self.targets,
                (self.rows, self.cols),
                floor=self.floor, weights=self.weights,
            )
            graph = _dense(base)
            for u, v, _ in delta:
                reference.push_flip(u, v)
                graph[u, v] = graph[v, u] = 1.0 - graph[u, v]
            assert np.array_equal(graph, self.adj)
            return reference

        # -- evaluations --------------------------------------------------
        @precondition(lambda self: self._cache_current())
        @rule(indices=st.lists(st.integers(0, POOL_FLIP_SETS), min_size=1, max_size=8))
        def binarized_steps(self, indices):
            """A run of PGD-like steps at one graph state."""
            for index in indices:
                zdot = self.pool[index]
                loss, gradient, mask = self.engine.binarized_step(zdot)
                ref_loss, ref_gradient, ref_mask = self._reference().binarized_step(zdot)
                assert loss == ref_loss
                assert np.array_equal(gradient, ref_gradient)
                assert np.array_equal(mask, ref_mask)
                # A caller may scribble over what it got back.
                gradient[:] = np.nan

        @rule()
        def current_loss(self):
            assert self.engine.current_loss() == self._reference().current_loss()

        @rule()
        def candidate_gradient(self):
            reference = self._overlay_reference()
            gradient = self.engine.candidate_gradient()
            assert np.array_equal(gradient, reference.candidate_gradient())
            gradient[:] = np.nan

        # -- graph edits ----------------------------------------------------
        @rule(data=st.data())
        def push_flip(self, data):
            u, v = self._free_pair(data)
            self.engine.push_flip(u, v)
            self._toggle(u, v)
            self.pending.append((u, v))

        @precondition(lambda self: self.pending)
        @rule(data=st.data())
        def pop_flips(self, data):
            count = data.draw(st.integers(1, len(self.pending)), label="count")
            self.engine.pop_flips(count)
            for _ in range(count):
                self._toggle(*self.pending.pop())

        @precondition(lambda self: not self.pending)
        @rule(data=st.data())
        def apply_flip(self, data):
            u, v = self._free_pair(data)
            self.engine.apply_flip(u, v)
            self._toggle(u, v)

        @precondition(lambda self: not self.pending and self.rows.size)
        @rule(data=st.data())
        def apply_candidate_flip(self, data):
            """A greedy step: the flipped pair's cached value goes stale."""
            u, v = self._candidate_pair(data)
            self.engine.apply_flip(u, v)
            self._toggle(u, v)

        @precondition(lambda self: not self.pending)
        @rule()
        def checkpoint(self):
            self.snapshots[self.engine.checkpoint()] = self.adj.copy()

        @precondition(lambda self: self.snapshots)
        @rule(data=st.data())
        def restore(self, data):
            token = data.draw(st.sampled_from(sorted(self.snapshots)), label="token")
            self.engine.restore(token)
            self.adj = self.snapshots[token].copy()
            self.cache_adj = self.adj.copy()
            self.pending = []
            self.snapshots = {t: a for t, a in self.snapshots.items() if t <= token}

        # -- reconfiguration -----------------------------------------------
        @precondition(lambda self: not self.pending)
        @rule(seed=st.integers(0, 4))
        def set_candidates(self, seed):
            self._use_candidates(seed)
            self.engine.set_candidates(self.candidates)

        @precondition(lambda self: not self.pending)
        @rule(
            target_set=st.sampled_from(TARGET_SETS),
            seed=st.integers(0, 4),
            floor=st.sampled_from(FLOORS),
            weighted=st.booleans(),
        )
        def retarget(self, target_set, seed, floor, weighted):
            self.targets, self.floor = target_set, floor
            self.weights = [1.0 + i for i in range(len(target_set))] if weighted else None
            self._use_candidates(seed)
            self.engine.retarget(
                self.targets, self.candidates,
                floor=self.floor, weights=self.weights,
            )

        def _refresh(self, data) -> None:
            """Land a candidate pair (applied to the graph or not, as an
            attack's recorded iterate is not), refresh the set through the
            engine and hand the result over along its lineage."""
            flip = self._candidate_pair(data)
            if data.draw(st.booleans(), label="apply"):
                self.engine.apply_flip(*flip)
                self._toggle(*flip)
            refreshed = self.candidates.refresh([flip], self.engine)
            if refreshed is not self.candidates:
                assert refreshed.lineage.parent() is self.candidates
                self.engine.set_candidates(refreshed)
                self._track(refreshed)

        @precondition(lambda self: not self.pending and isinstance(
            self.candidates, AdaptiveCandidateSet))
        @rule(data=st.data())
        def grow(self, data):
            self._refresh(data)

        @precondition(lambda self: not self.pending and isinstance(
            self.candidates, BlockCandidateSet))
        @rule(data=st.data())
        def resample(self, data):
            self._refresh(data)

        @invariant()
        def pair_cache_matches_a_fresh_engine(self):
            """Values, directions and hub groups equal a fresh engine's on
            the graph the cache describes."""
            reference = self._reference(self.cache_adj)
            assert np.array_equal(self.engine.edge_values, reference.edge_values)
            assert np.array_equal(self.engine.flip_direction, reference.flip_direction)
            for mine, fresh in zip(self.engine._groups, reference._groups):
                assert np.array_equal(mine, fresh)

    return EngineMachine


def _run(machine) -> None:
    examples = int(os.environ.get("REPRO_STATE_MACHINE_EXAMPLES", "50"))
    run_state_machine_as_test(machine, settings=settings(
        max_examples=examples, stateful_step_count=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow], derandomize=True,
    ))


def _dense(csr) -> np.ndarray:
    # the test's model of a 64-node graph
    return csr.toarray()


@pytest.mark.parametrize("kernels", KERNELS)
def test_in_memory_engine_matches_fresh_engines(store, kernels, use_kernels):
    use_kernels(kernels)
    graph = store.detached_csr()
    _run(make_machine(graph, _dense(graph)))


@pytest.mark.parametrize("kernels", KERNELS)
def test_store_backed_engine_matches_fresh_engines(store, kernels, use_kernels):
    use_kernels(kernels)
    _run(make_machine(store.csr(), _dense(store.detached_csr())))


def _single_flip_stepper(engine, size: int):
    """``step(k)`` runs the iterate flipping candidate ``k`` alone and
    reports whether it was evaluated (a scatter ran) or served from the memo."""
    scatters = []
    scatter = engine._scatter

    def counted(*args, **kwargs):
        scatters.append(1)
        return scatter(*args, **kwargs)

    engine._scatter = counted

    def step(k: int) -> bool:
        zdot = np.zeros(size)
        zdot[k] = 1.0
        before = len(scatters)
        engine.binarized_step(zdot)
        return len(scatters) > before

    return step


@pytest.mark.parametrize("kernels", KERNELS)
def test_iterate_memo_is_a_fixed_size_lru(store, kernels, use_kernels):
    use_kernels(kernels)
    graph = store.detached_csr()
    rows, cols = _candidate_pool(graph.shape[0], TARGET_SETS[0], 0)
    engine = SparseSurrogateEngine(graph, TARGET_SETS[0], (rows, cols))
    step = _single_flip_stepper(engine, rows.size)
    size = ITERATE_MEMO_SIZE
    assert all(step(k) for k in range(size))
    assert not any(step(k) for k in range(size))
    assert step(size)  # evicts the least recently used set, iterate 0
    assert step(0)  # ... so iterate 0 is evaluated again (evicting 1)
    assert not step(size)
    assert step(1)


@pytest.mark.parametrize("kernels", KERNELS)
def test_memo_hits_return_fresh_arrays(store, kernels, use_kernels):
    use_kernels(kernels)
    graph = store.detached_csr()
    rows, cols = _candidate_pool(graph.shape[0], TARGET_SETS[0], 0)
    engine = SparseSurrogateEngine(graph, TARGET_SETS[0], (rows, cols))
    zdot = _zdot_pool(rows.size)[1]
    loss, first, _ = engine.binarized_step(zdot)
    expected = first.copy()
    first[:] = np.nan
    again_loss, again, _ = engine.binarized_step(zdot)
    assert again_loss == loss
    assert np.array_equal(again, expected)


@pytest.mark.parametrize("kernels", KERNELS)
def test_restore_fixes_up_a_carried_pair_cache(store, kernels, use_kernels):
    """``restore`` leaves the pair cache equal to a fresh engine's: after a
    rollback past a refresh that carried a flipped candidate pair, and at
    the checkpoint's own depth after a candidate flip."""
    use_kernels(kernels)
    graph = store.detached_csr()
    clean = _dense(graph)
    n, targets = clean.shape[0], TARGET_SETS[0]
    candidates = AdaptiveCandidateSet.start(n, targets, admit_cap=8)
    engine = SparseSurrogateEngine(graph, targets, candidates)

    def check(adj, pairs):
        reference = SparseSurrogateEngine(sparse.csr_matrix(adj), targets, pairs)
        assert np.array_equal(engine.edge_values, reference.edge_values)
        assert np.array_equal(engine.flip_direction, reference.flip_direction)

    k = int(np.flatnonzero(~np.isin(candidates.cols, targets))[0])
    u, v = int(candidates.rows[k]), int(candidates.cols[k])
    flipped = clean.copy()
    flipped[u, v] = flipped[v, u] = 1.0 - clean[u, v]
    token = engine.checkpoint()
    engine.apply_flip(u, v)
    grown = candidates.refresh([(u, v)], engine)
    assert grown.lineage.parent() is candidates
    engine.set_candidates(grown)
    check(flipped, grown)
    engine.restore(token)
    check(clean, grown)
    engine.apply_flip(u, v)
    engine.restore(engine.checkpoint())
    check(flipped, grown)


@pytest.mark.parametrize("kernels", KERNELS)
def test_refresh_regroups_pairs_whose_hub_changed(kernels, use_kernels):
    """An admission that raises an endpoint's pair count moves existing
    pairs to that endpoint's group, ties going to the row: the engine's
    grouping after the handover is exactly a fresh grouping of the new set."""
    use_kernels(kernels)
    n = 10
    edges = [(2, 4), (2, 6), (2, 7), (2, 8), (0, 1), (1, 3), (3, 5), (5, 9),
             (0, 9), (4, 5), (6, 9), (7, 9), (8, 9), (1, 5)]
    adjacency = np.zeros((n, n))
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    pairs = [(1, 2), (1, 3), (2, 5), (3, 5), (5, 6), (5, 7), (5, 8), (5, 9)]
    candidates = AdaptiveCandidateSet(
        n=n, rows=np.array([u for u, _ in pairs]), cols=np.array([v for _, v in pairs]),
        strategy="adaptive_gradient", ball=frozenset({1}),
    )
    engine = SparseSurrogateEngine(sparse.csr_matrix(adjacency), [1], candidates)

    def hubs(engine):
        groups = engine._groups
        grouped = zip(groups.rows[groups.order].tolist(), groups.cols[groups.order].tolist())
        return dict(zip(grouped, groups.hubs.tolist()))

    # 1 and 2 are in two pairs each (a tie, so the row), 5 in six
    assert hubs(engine)[(1, 2)] == 1 and hubs(engine)[(2, 5)] == 5
    engine.apply_flip(1, 2)
    grown = candidates.refresh([(1, 2)], engine)
    assert grown.lineage.parent() is candidates
    engine.set_candidates(grown)
    # four admissions put 2 in six pairs: it outnumbers 1, and ties with 5
    assert hubs(engine)[(1, 2)] == 2 and hubs(engine)[(2, 5)] == 2
    for mine, fresh in zip(engine._groups, _group_pairs(grown.rows, grown.cols, n)):
        assert np.array_equal(mine, fresh)
