"""Attack framework: problem definition, result container, shared plumbing.

A structural attack takes a clean graph, a target set ``T`` and a budget
``B`` and returns, for every intermediate budget ``b ≤ B``, a set of edge
flips (Eq. 4c allows up to ``B`` modified pairs).  Keeping the whole
budget-indexed family around is what the paper's Fig. 4 sweeps need.

Every attack additionally accepts a *candidate set* restricting the pairs
it may flip (see :mod:`repro.attacks.candidates`): ``candidates`` may be a
strategy name (``"full"``, ``"target_incident"``, ``"two_hop"``), a
prebuilt :class:`~repro.attacks.candidates.CandidateSet`, or ``None`` for
the legacy full-pair behaviour.  Large graphs may be passed as scipy sparse
matrices to every engine-backed attack (GradMaxSearch, BinarizedAttack,
ContinuousA — see :mod:`repro.oddball.surrogate`); sparse inputs stay
sparse end to end: :class:`AttackResult` keeps the original in whichever
representation it was given and derives poisoned graphs/scores in the
same one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.attacks.candidates import CandidateSet
from repro.graph.graph import Graph
from repro.graph.sparse import SparseGraphView, anomaly_scores_sparse, to_sparse
from repro.oddball.scores import anomaly_scores
from repro.utils.validation import check_adjacency, check_budget

__all__ = ["AttackResult", "StructuralAttack", "apply_flips", "validate_targets"]

Edge = tuple[int, int]


def validate_targets(targets: Sequence[int], n: int) -> list[int]:
    """Validate a target node set against a graph of ``n`` nodes."""
    targets = [int(t) for t in targets]
    if not targets:
        raise ValueError("target set must not be empty")
    if len(set(targets)) != len(targets):
        raise ValueError("target ids must be unique")
    out_of_range = [t for t in targets if not 0 <= t < n]
    if out_of_range:
        raise ValueError(f"target ids out of range [0, {n}): {out_of_range}")
    return targets


def apply_flips(adjacency, flips: Sequence[Edge]):
    """Return a copy of ``adjacency`` with each (u, v) pair toggled.

    Dense arrays stay dense; scipy sparse matrices are toggled through a
    LIL scratch copy and returned as CSR.
    """
    if sparse.issparse(adjacency):
        poisoned = adjacency.tolil(copy=True)
    else:
        poisoned = np.array(adjacency, dtype=np.float64, copy=True)
    seen: set[Edge] = set()
    for u, v in flips:
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise ValueError(f"pair {pair} flipped twice")
        if u == v:
            raise ValueError(f"cannot flip the diagonal pair ({u}, {u})")
        seen.add(pair)
        new_value = 1.0 - poisoned[u, v]
        poisoned[u, v] = poisoned[v, u] = new_value
    if sparse.issparse(poisoned):
        poisoned = poisoned.tocsr()
        poisoned.eliminate_zeros()
    return poisoned


@dataclass
class AttackResult:
    """Budget-indexed family of poisoned graphs produced by one attack run.

    ``flips_by_budget[b]`` is the flip set the attack recommends when allowed
    exactly ``b`` modifications (``len(...) <= b``; an attack may decline to
    spend its whole budget if extra flips would hurt the objective).

    ``original`` may be a dense adjacency array or a scipy sparse matrix;
    derived artefacts (:meth:`poisoned`, :meth:`score_decrease`) stay in the
    same representation so large-graph results never densify accidentally.
    """

    method: str
    original: "np.ndarray | sparse.spmatrix"
    flips_by_budget: dict[int, list[Edge]]
    surrogate_by_budget: dict[int, float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if sparse.issparse(self.original):
            self.original = to_sparse(self.original)
        else:
            self.original = check_adjacency(self.original)
        for budget, flips in self.flips_by_budget.items():
            if len(flips) > budget:
                raise ValueError(
                    f"{len(flips)} flips recorded for budget {budget} (> budget)"
                )

    @property
    def budgets(self) -> list[int]:
        """Evaluated budgets in increasing order."""
        return sorted(self.flips_by_budget)

    @property
    def max_budget(self) -> int:
        return max(self.flips_by_budget, default=0)

    def flips(self, budget: "int | None" = None) -> list[Edge]:
        """Flip set for ``budget`` (default: the largest evaluated budget)."""
        if budget is None:
            budget = self.max_budget
        if budget not in self.flips_by_budget:
            raise KeyError(f"budget {budget} not evaluated; available: {self.budgets}")
        return list(self.flips_by_budget[budget])

    def poisoned(self, budget: "int | None" = None):
        """Poisoned adjacency (same dense/sparse representation) at ``budget``."""
        return apply_flips(self.original, self.flips(budget))

    def poisoned_graph(self, budget: "int | None" = None) -> "Graph | SparseGraphView":
        """Poisoned graph object at ``budget``, same representation as input.

        Dense originals yield a dense-backed :class:`Graph`; sparse
        originals yield a read-only
        :class:`~repro.graph.sparse.SparseGraphView` over the poisoned
        CSR, so large-graph results never densify implicitly.  The view
        mirrors Graph's query API and plugs into every sparse-aware
        consumer via ``adjacency_csr()``; call its ``to_graph()`` when a
        small graph genuinely needs the dense API.
        """
        poisoned = self.poisoned(budget)
        if sparse.issparse(poisoned):
            return SparseGraphView(poisoned)
        return Graph(poisoned)

    def edges_changed_fraction(self, budget: "int | None" = None) -> float:
        """Attack power ``B / |E|`` (x-axis of Fig. 4)."""
        edges = int(self.original.sum()) // 2
        return len(self.flips(budget)) / max(edges, 1)

    def score_decrease(
        self,
        targets: Sequence[int],
        budget: "int | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> float:
        """τ_as = (S⁰_T − S^B_T) / S⁰_T, the paper's Fig. 4 metric.

        With ``weights`` the sums are κ-weighted (Section IV-B's general
        objective ``Σ κ_i S_i``).
        """
        targets = validate_targets(targets, self.original.shape[0])
        kappa = np.ones(len(targets)) if weights is None else np.asarray(list(weights))
        if kappa.shape != (len(targets),):
            raise ValueError("weights must align with targets")
        scorer = (
            anomaly_scores_sparse if sparse.issparse(self.original) else anomaly_scores
        )
        before = float((scorer(self.original)[targets] * kappa).sum())
        after = float((scorer(self.poisoned(budget))[targets] * kappa).sum())
        if before <= 0.0:
            return 0.0
        return (before - after) / before


class StructuralAttack(abc.ABC):
    """Interface of the three attack methods (plus baselines).

    ``target_weights`` (optional, aligned with ``targets``) are the κ
    importances of the paper's general objective; every attack treats them
    as multipliers on the per-target squared residuals.

    ``candidates`` restricts the decision variables to a candidate pair set
    (strategy name, :class:`CandidateSet` or ``None`` = legacy full-pair).
    """

    name: str = "structural-attack"

    @abc.abstractmethod
    def attack(
        self,
        graph: "Graph | np.ndarray | sparse.spmatrix",
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None" = None,
        candidates: "CandidateSet | str | None" = None,
    ) -> AttackResult:
        """Poison ``graph`` to hide ``targets`` using at most ``budget`` flips."""

    @staticmethod
    def _adjacency_of(
        graph: "Graph | np.ndarray | sparse.spmatrix", allow_sparse: bool = False
    ) -> "np.ndarray | sparse.csr_matrix":
        """Validated adjacency in the cheapest usable representation.

        With ``allow_sparse`` a scipy sparse input stays a validated CSR —
        the sparse-engine attacks thread it straight into the
        :class:`~repro.oddball.surrogate.SparseSurrogateEngine` and into
        :class:`AttackResult`, so large graphs are never densified.
        Without it (attacks whose algorithms genuinely index dense
        matrices) sparse inputs are densified, which is only sensible at
        small n.
        """
        if isinstance(graph, Graph):
            return graph.adjacency
        if hasattr(graph, "adjacency_csr"):
            # store-backed graphs: the tagged memory-mapped CSR, zero-copy
            graph = graph.adjacency_csr()
        if sparse.issparse(graph):
            csr = to_sparse(graph)
            # repro: allow-densify(documented dense fallback for algorithms that index dense matrices — small n only)
            return csr if allow_sparse else csr.toarray()
        return check_adjacency(np.asarray(graph, dtype=np.float64))

    @staticmethod
    def _resolve_candidates(
        candidates: "CandidateSet | str | None",
        graph,
        targets: Sequence[int],
        n: int,
        budget: "int | None" = None,
        block_size: "int | None" = None,
        block_seed: int = 0,
    ) -> "CandidateSet | None":
        """Normalise the ``candidates`` argument of :meth:`attack`.

        ``None`` stays ``None`` (the attack keeps its legacy full-pair code
        path); a strategy name is built against ``graph``/``targets``; a
        prebuilt :class:`CandidateSet` is checked for size agreement.
        ``budget`` and the ``block_*`` knobs feed the budget-aware sizing
        policies of the ``adaptive_gradient`` and ``block`` strategies
        (ignored for prebuilt sets and the static strategies).
        """
        if candidates is None:
            return None
        if isinstance(candidates, str):
            return CandidateSet.build(
                candidates, graph, targets,
                budget=budget, block_size=block_size, block_seed=block_seed,
            )
        if not isinstance(candidates, CandidateSet):
            raise TypeError(
                "candidates must be None, a strategy name or a CandidateSet, "
                f"got {type(candidates).__name__}"
            )
        if candidates.n != n:
            raise ValueError(
                f"candidate set addresses {candidates.n} nodes but the graph has {n}"
            )
        return candidates

    @staticmethod
    def _prefix_result(
        method: str,
        original,
        ordered_flips: Sequence[Edge],
        budget: int,
        surrogate_by_budget: "Mapping[int, float] | None" = None,
        metadata: "dict | None" = None,
    ) -> AttackResult:
        """Build a result whose budget-b flip set is the first b ordered flips."""
        check_budget(budget)
        flips_by_budget = {
            b: [tuple(f) for f in ordered_flips[: min(b, len(ordered_flips))]]
            for b in range(budget + 1)
        }
        return AttackResult(
            method=method,
            original=original,
            flips_by_budget=flips_by_budget,
            surrogate_by_budget=dict(surrogate_by_budget or {}),
            metadata=metadata or {},
        )
