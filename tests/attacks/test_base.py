"""Tests for the attack framework (AttackResult, apply_flips, validation)."""

import numpy as np
import pytest
from scipy import sparse

from repro.attacks.base import AttackResult, apply_flips, validate_targets
from repro.graph import Graph
from repro.graph.sparse import check_csr


class TestValidateTargets:
    def test_passes_valid(self):
        assert validate_targets([2, 0, 1], 5) == [2, 0, 1]

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_targets([], 5)

    def test_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            validate_targets([1, 1], 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            validate_targets([5], 5)
        with pytest.raises(ValueError, match="range"):
            validate_targets([-1], 5)


def _unsorted(csr):
    """``csr`` with every row's indices reversed (same graph)."""
    indices = csr.indices.copy()
    for row in range(csr.shape[0]):
        start, stop = csr.indptr[row], csr.indptr[row + 1]
        indices[start:stop] = indices[start:stop][::-1]
    matrix = sparse.csr_matrix(
        (csr.data.copy(), indices, csr.indptr.copy()), shape=csr.shape
    )
    assert not matrix.has_sorted_indices
    return matrix


#: Every input form apply_flips takes: ``(graph, dense adjacency)`` of a
#: Graph, a dense array, a sorted CSR, an unsorted CSR and a store's
#: read-only memory-mapped CSR.
INPUT_FORMS = {
    "graph": lambda graph, store: (graph, graph.adjacency),
    "dense": lambda graph, store: (graph.adjacency, graph.adjacency),
    "sorted-csr": lambda graph, store: (
        sparse.csr_matrix(graph.adjacency), graph.adjacency),
    "unsorted-csr": lambda graph, store: (
        _unsorted(sparse.csr_matrix(graph.adjacency)), graph.adjacency),
    "store-csr": lambda graph, store: (store.csr(), store.csr().toarray()),
}


def _arrays(form):
    """Copies of every array a form holds, to prove it untouched."""
    if isinstance(form, Graph):
        return [form.adjacency]
    if sparse.issparse(form):
        return [np.array(form.data), np.array(form.indices), np.array(form.indptr)]
    return [np.array(form)]


def _flips(dense):
    """Two deletions and two insertions, some given as (v, u)."""
    rows, cols = np.nonzero(np.triu(dense, k=1))
    absent_rows, absent_cols = np.nonzero(np.triu(dense == 0, k=1))
    return [
        (int(cols[0]), int(rows[0])),
        (int(rows[-1]), int(cols[-1])),
        (int(absent_rows[0]), int(absent_cols[0])),
        (int(absent_cols[-1]), int(absent_rows[-1])),
    ]


class TestApplyFlips:
    @pytest.mark.parametrize("form", sorted(INPUT_FORMS))
    def test_every_input_form_gives_the_one_validated_csr(
        self, form, small_er_graph, store
    ):
        graph, dense = INPUT_FORMS[form](small_er_graph, store)
        before = _arrays(graph)
        flips = _flips(dense)
        reference = dense.copy()
        for u, v in flips:
            reference[u, v] = reference[v, u] = 1.0 - reference[u, v]

        poisoned = apply_flips(graph, flips)

        assert sparse.isspmatrix_csr(poisoned)
        assert poisoned.dtype == np.float64
        np.testing.assert_array_equal(poisoned.toarray(), reference)
        assert poisoned._repro_validated and poisoned.has_sorted_indices
        check_csr(poisoned.indptr, poisoned.indices, [poisoned.data])  # sorted
        for kept, now in zip(before, _arrays(graph)):
            np.testing.assert_array_equal(kept, now)
        if form == "store-csr":
            assert not graph.indices.flags.writeable

    @pytest.mark.parametrize("form", sorted(INPUT_FORMS))
    def test_bad_pairs_raise_the_same_messages(self, form, small_er_graph, store):
        graph, dense = INPUT_FORMS[form](small_er_graph, store)
        n = dense.shape[0]
        with pytest.raises(ValueError, match=r"pair \(1, 2\) flipped twice"):
            apply_flips(graph, [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match=r"diagonal pair \(3, 3\)"):
            apply_flips(graph, [(3, 3)])
        with pytest.raises(ValueError, match=rf"pair \(3, {n}\) is outside"):
            apply_flips(graph, [(n, 3)])
        with pytest.raises(ValueError, match=r"pair \(-1, 3\) is outside"):
            apply_flips(graph, [(3, -1)])

    def test_no_flips_copy_the_graph(self, small_er_graph):
        csr = sparse.csr_matrix(small_er_graph.adjacency)
        poisoned = apply_flips(csr, [])
        assert poisoned is not csr
        np.testing.assert_array_equal(poisoned.toarray(), small_er_graph.adjacency)

    def test_add_and_delete(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        poisoned = apply_flips(adjacency, [(0, 1), (1, 2)])
        assert poisoned[0, 1] == 0.0 and poisoned[1, 0] == 0.0
        assert poisoned[1, 2] == 1.0 and poisoned[2, 1] == 1.0

    def test_original_untouched(self):
        adjacency = np.zeros((2, 2))
        apply_flips(adjacency, [(0, 1)])
        assert adjacency[0, 1] == 0.0

    def test_double_flip_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            apply_flips(np.zeros((3, 3)), [(0, 1), (1, 0)])

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            apply_flips(np.zeros((3, 3)), [(1, 1)])


class TestAttackResult:
    def _result(self, graph):
        return AttackResult(
            method="test",
            original=graph.adjacency,
            flips_by_budget={0: [], 1: [(0, 1)], 2: [(0, 1), (2, 3)]},
        )

    def test_budgets_sorted(self, small_er_graph):
        result = self._result(small_er_graph)
        assert result.budgets == [0, 1, 2]
        assert result.max_budget == 2

    def test_flips_default_max(self, small_er_graph):
        result = self._result(small_er_graph)
        assert result.flips() == [(0, 1), (2, 3)]
        assert result.flips(1) == [(0, 1)]

    def test_unknown_budget(self, small_er_graph):
        with pytest.raises(KeyError):
            self._result(small_er_graph).flips(7)

    def test_poisoned_adjacency_valid(self, small_er_graph):
        adjacency = self._result(small_er_graph).poisoned().toarray()
        assert np.array_equal(adjacency, adjacency.T)

    def test_overbudget_flips_rejected(self, small_er_graph):
        with pytest.raises(ValueError, match="budget"):
            AttackResult(
                method="bad",
                original=small_er_graph.adjacency,
                flips_by_budget={1: [(0, 1), (1, 2)]},
            )

    def test_edges_changed_fraction(self, small_er_graph):
        result = self._result(small_er_graph)
        expected = 2 / small_er_graph.number_of_edges
        assert result.edges_changed_fraction() == pytest.approx(expected)

    def test_score_decrease_zero_for_empty_flips(self, small_er_graph):
        result = self._result(small_er_graph)
        assert result.score_decrease([0, 1], budget=0) == pytest.approx(0.0)

    def test_invalid_original_rejected(self):
        with pytest.raises(ValueError):
            AttackResult(method="bad", original=np.ones((3, 3)), flips_by_budget={0: []})


class TestPoisonedRepresentation:
    """poisoned() is a CSR whichever form the original arrived in, and
    dense and sparse originals give the same graphs and scores."""

    FLIPS = {0: [], 1: [(0, 1)], 2: [(0, 1), (2, 3)]}

    def _dense_result(self, graph):
        return AttackResult(
            method="test", original=graph.adjacency, flips_by_budget=self.FLIPS
        )

    def _sparse_result(self, graph):
        csr = sparse.csr_matrix(graph.adjacency)
        return AttackResult(method="test", original=csr, flips_by_budget=self.FLIPS)

    def test_sparse_original_stays_sparse(self, small_er_graph):
        poisoned = self._sparse_result(small_er_graph).poisoned()
        assert sparse.isspmatrix_csr(poisoned)

    def test_sparse_and_dense_agree(self, small_er_graph):
        dense = self._dense_result(small_er_graph)
        csr = self._sparse_result(small_er_graph)
        for budget in dense.budgets:
            np.testing.assert_array_equal(
                csr.poisoned(budget).toarray(), dense.poisoned(budget).toarray()
            )
        targets = [0, 1, 2]
        assert csr.score_decrease(targets) == dense.score_decrease(targets)

    def test_sparse_per_budget(self, small_er_graph):
        result = self._sparse_result(small_er_graph)
        baseline = result.poisoned(0)
        assert Graph(baseline.toarray()).edge_set() == Graph(small_er_graph.adjacency).edge_set()
        assert result.poisoned(1)[0, 1] != baseline[0, 1]


class TestSharedPlumbing:
    """The ``StructuralAttack`` helpers every attack's one path goes through."""

    def test_none_candidates_resolve_to_full(self, small_er_graph):
        from repro.attacks.base import StructuralAttack
        from repro.attacks.candidates import CandidateSet

        n = small_er_graph.number_of_nodes
        resolved = StructuralAttack._resolve_candidates(None, small_er_graph, [0], n)
        full = CandidateSet.full(n)
        assert resolved.strategy == "full"
        assert resolved.is_full
        assert np.array_equal(resolved.rows, full.rows)
        assert np.array_equal(resolved.cols, full.cols)

    def test_unknown_candidates_type_rejected(self, small_er_graph):
        from repro.attacks.base import StructuralAttack

        with pytest.raises(TypeError, match="strategy name or a CandidateSet"):
            StructuralAttack._resolve_candidates(
                [(0, 1)], small_er_graph, [0], small_er_graph.number_of_nodes
            )

    def test_engine_for_builds_a_sparse_engine_holding_the_set(self, small_er_graph):
        from repro.attacks.base import StructuralAttack
        from repro.attacks.candidates import CandidateSet

        candidates = CandidateSet.build("target_incident", small_er_graph, [0, 1])
        engine = StructuralAttack._engine_for(
            None, small_er_graph.adjacency, [0, 1], candidates
        )
        assert engine.backend == "sparse"
        assert engine._candidates is candidates
        assert np.array_equal(engine.targets, [0, 1])
        assert np.array_equal(engine.rows, candidates.rows)

    def test_engine_for_retargets_the_injected_engine(self, small_er_graph):
        from repro.attacks.base import StructuralAttack
        from repro.attacks.candidates import CandidateSet
        from repro.oddball.surrogate import SurrogateEngine

        injected = SurrogateEngine.create(small_er_graph, [0])
        candidates = CandidateSet.build("target_incident", small_er_graph, [2, 3])
        engine = StructuralAttack._engine_for(
            injected, small_er_graph.adjacency, [2, 3], candidates, floor=2.0
        )
        assert engine is injected
        assert engine._candidates is candidates
        assert np.array_equal(engine.targets, [2, 3])
        assert engine.floor == 2.0
