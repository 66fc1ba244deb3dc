"""Store-backed engines: bit-identical to in-memory engines, and the mmap
is never touched — flips live entirely in the Δ-overlay/override rows.

The no-write contract is enforced by the :func:`assert_readonly_mmap` runtime
guard (writability check on entry, checksum comparison on exit), not just by
after-the-fact array comparison."""

import numpy as np
import pytest

from repro.analysis import assert_readonly_mmap
from repro.attacks import BinarizedAttack, GradMaxSearch
from repro.graph.incremental import IncrementalEgonetFeatures
from repro.oddball.surrogate import DenseSurrogateEngine, SurrogateEngine
from repro.store import build_store


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    cache = tmp_path_factory.mktemp("engine-store-cache")
    return build_store("wikivote", cache_dir=cache, scale=0.3, seed=5)


@pytest.fixture(scope="module")
def memory_graph(store):
    return store.detached_csr()


def top_targets(store, k=3):
    order = np.argsort(-store.degrees(), kind="stable")
    return [int(v) for v in order[:k]]


class TestEngineParity:
    def test_losses_bit_identical(self, store, memory_graph):
        targets = top_targets(store)
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        on_store = SurrogateEngine.create(store, targets, empty)
        in_memory = SurrogateEngine.create(memory_graph, targets, empty)
        assert on_store.current_loss() == in_memory.current_loss()
        for u, v in [(0, 5), (1, 9), (0, 5)]:
            on_store.push_flip(u, v)
            in_memory.push_flip(u, v)
            assert on_store.current_loss() == in_memory.current_loss()
        on_store.pop_flips(3)
        in_memory.pop_flips(3)
        assert on_store.current_loss() == in_memory.current_loss()

    def test_candidate_gradient_identical(self, store, memory_graph):
        targets = top_targets(store)
        from repro.attacks.candidates import CandidateSet

        cs = CandidateSet.target_incident(store.number_of_nodes, targets)
        on_store = SurrogateEngine.create(store, targets, cs)
        in_memory = SurrogateEngine.create(memory_graph, targets, cs)
        assert np.array_equal(
            on_store.candidate_gradient(), in_memory.candidate_gradient()
        )

    @pytest.mark.parametrize("attack_cls", [GradMaxSearch, BinarizedAttack])
    def test_attack_flips_identical(self, store, memory_graph, attack_cls):
        targets = top_targets(store)
        kwargs = {"iterations": 30} if attack_cls is BinarizedAttack else {}
        with assert_readonly_mmap(store, context="store-backed attack"):
            a = attack_cls(**kwargs).attack(
                store.csr(), targets, budget=4, candidates="target_incident"
            )
        b = attack_cls(**kwargs).attack(
            memory_graph, targets, budget=4, candidates="target_incident"
        )
        assert a.flips() == b.flips()
        assert a.surrogate_by_budget == b.surrogate_by_budget

    def test_dense_engine_densifies_store(self, store):
        targets = top_targets(store)
        dense = DenseSurrogateEngine(store, targets)
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        sparse_engine = SurrogateEngine.create(store, targets, empty)
        assert dense.current_loss() == pytest.approx(
            sparse_engine.current_loss(), rel=0, abs=0
        )


class TestMmapNeverWritten:
    def test_attack_leaves_mmap_untouched(self, store):
        csr = store.csr()
        before = (
            np.array(csr.data), np.array(csr.indices), np.array(csr.indptr)
        )
        targets = top_targets(store)
        with assert_readonly_mmap(store, context="gradmax over store"):
            GradMaxSearch().attack(
                store, targets, budget=5, candidates="adaptive"
            )
        assert np.array_equal(before[0], np.asarray(csr.data))
        assert np.array_equal(before[1], np.asarray(csr.indices))
        assert np.array_equal(before[2], np.asarray(csr.indptr))
        for array in (csr.data, csr.indices, csr.indptr):
            assert not array.flags.writeable


class TestLazyNeighbourRows:
    def test_no_rows_materialised_on_construction(self, store):
        features = IncrementalEgonetFeatures(store)
        assert features._rows == {}

    def test_only_touched_rows_materialise(self, store):
        features = IncrementalEgonetFeatures(store)
        features.flip(0, 5)
        features.flip(1, 9)
        assert set(features._rows) == {0, 5, 1, 9}
        # reads do not materialise
        features.neighbors(20)
        assert features.is_edge(21, 22) in (True, False)
        assert 20 not in features._rows and 21 not in features._rows

    def test_precomputed_features_consumed(self, store):
        features = IncrementalEgonetFeatures(store)
        n_mm, e_mm = store.features()
        assert np.array_equal(features.n_feature, np.asarray(n_mm))
        assert np.array_equal(features.e_feature, np.asarray(e_mm))
        # and they are private copies: flips must not touch the store
        features.flip(0, 5)
        features.rollback(1)
        assert np.array_equal(features.n_feature, np.asarray(n_mm))

    def test_queries_match_dense_reference(self, store):
        features = IncrementalEgonetFeatures(store)
        dense = store.csr().toarray()
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, store.number_of_nodes, size=20)
        for u in nodes:
            u = int(u)
            assert features.degree(u) == int(dense[u].sum())
            assert features.neighbors(u) == set(np.flatnonzero(dense[u]).tolist())
        for u, v in zip(nodes[:10], nodes[10:]):
            u, v = int(u), int(v)
            if u != v:
                assert features.is_edge(u, v) == bool(dense[u, v])
