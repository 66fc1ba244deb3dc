"""Attack framework: problem definition, result container, shared plumbing.

A structural attack takes a clean graph, a target set ``T`` and a budget
``B`` and returns, for every intermediate budget ``b ≤ B``, a set of edge
flips (Eq. 4c allows up to ``B`` modified pairs).  Keeping the whole
budget-indexed family around is what the paper's Fig. 4 sweeps need.

Every attack additionally accepts a *candidate set* restricting the pairs
it may flip (see :mod:`repro.attacks.candidates`): ``candidates`` may be a
strategy name (one of
:data:`~repro.attacks.candidates.CANDIDATE_STRATEGIES`), a
prebuilt :class:`~repro.attacks.candidates.CandidateSet`, or ``None``,
which means ``"full"``.  Every attack runs on a
:class:`~repro.oddball.surrogate.SurrogateEngine` and reads its graph
through :func:`~repro.graph.sparse.to_sparse`: a :class:`Graph`, dense
array, scipy sparse matrix or store all become one validated CSR with
sorted rows, which :class:`AttackResult` keeps as its original and
derives every poisoned adjacency from, so no graph is densified.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.attacks.candidates import CandidateSet
from repro.graph.graph import Graph
from repro.graph.sparse import key_positions, to_sparse
from repro.oddball.detector import OddBall
from repro.oddball.scores import tau_as
from repro.oddball.surrogate import SurrogateEngine
from repro.utils.validation import check_budget

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


def apply_flips(adjacency, flips: Sequence[Edge]) -> sparse.csr_matrix:
    """A validated CSR of ``adjacency`` with each (u, v) pair toggled.

    ``adjacency`` is anything :func:`~repro.graph.sparse.to_sparse`
    takes, and is never modified.  The flips become sorted upper-triangle
    keys ``u·n + v``; :func:`~repro.graph.sparse.key_positions` finds
    which the graph holds (removed) and where the rest go (inserted), and
    each toggled key ``u·n + v`` becomes the entries (u, v) and (v, u).
    The result has sorted rows and is tagged validated.  A pair flipped
    twice, a diagonal pair or a pair outside the graph raises
    ``ValueError``.
    """
    matrix = to_sparse(adjacency)
    n = int(matrix.shape[0])
    seen: set[Edge] = set()
    for u, v in flips:
        pair = (int(u), int(v)) if u < v else (int(v), int(u))
        if pair in seen:
            raise ValueError(f"pair {pair} flipped twice")
        if u == v:
            raise ValueError(f"cannot flip the diagonal pair ({u}, {u})")
        if pair[0] < 0 or pair[1] >= n:
            raise ValueError(f"pair {pair} is outside the graph's {n} nodes")
        seen.add(pair)
    flipped = np.array(sorted(u * n + v for u, v in seen), dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    cols = matrix.indices.astype(np.int64)
    upper = cols > rows
    keys = rows[upper] * n + cols[upper]
    positions, novel = key_positions(keys, flipped)
    removed = positions[~novel]
    # each insertion point shifts left by the removed keys before it
    inserted = positions[novel] - np.searchsorted(removed, positions[novel])
    keys = np.insert(np.delete(keys, removed), inserted, flipped[novel])
    lower, higher = np.divmod(keys, n)
    # COO → CSR sums duplicates, which sorts every row
    poisoned = sparse.csr_matrix(
        (np.ones(2 * keys.size),
         (np.concatenate([lower, higher]), np.concatenate([higher, lower]))),
        shape=(n, n),
    )
    poisoned.has_sorted_indices = True
    poisoned._repro_validated = True
    return poisoned


@dataclass
class AttackResult:
    """Budget-indexed family of poisoned graphs produced by one attack run.

    ``flips_by_budget[b]`` is the flip set the attack recommends when allowed
    exactly ``b`` modifications (``len(...) <= b``; an attack may decline to
    spend its whole budget if extra flips would hurt the objective).

    ``original`` may be given as anything
    :func:`~repro.graph.sparse.to_sparse` takes and is held as the
    validated CSR it returns; :meth:`poisoned` returns a CSR too, and
    :meth:`score_decrease` scores both through OddBall's sparse features,
    so no result ever densifies.  A consumer that needs a dense array
    densifies at its call.
    """

    method: str
    original: sparse.csr_matrix
    flips_by_budget: dict[int, list[Edge]]
    surrogate_by_budget: dict[int, float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.original = to_sparse(self.original)
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

    def poisoned(self, budget: "int | None" = None) -> sparse.csr_matrix:
        """Poisoned adjacency at ``budget``, a validated CSR (:func:`apply_flips`).

        >>> import numpy as np
        >>> path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        >>> result = AttackResult("demo", path, {1: [(0, 2)]})
        >>> poisoned = result.poisoned(1)
        >>> type(poisoned).__name__, poisoned.nnz, float(poisoned[0, 2])
        ('csr_matrix', 6, 1.0)
        """
        return apply_flips(self.original, self.flips(budget))

    def edges_changed_fraction(self, budget: "int | None" = None) -> float:
        """Attack power ``B / |E|`` (x-axis of Fig. 4)."""
        edges = self.original.nnz // 2
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
        detector = OddBall()
        before = float((detector.scores(self.original)[targets] * kappa).sum())
        after = float((detector.scores(self.poisoned(budget))[targets] * kappa).sum())
        return tau_as(before, after)


class StructuralAttack(abc.ABC):
    """Interface of the three attack methods (plus baselines).

    ``target_weights`` (optional, aligned with ``targets``) are the κ
    importances of the paper's general objective; every attack treats them
    as multipliers on the per-target squared residuals.

    ``candidates`` restricts the decision variables to a candidate pair set
    (strategy name, :class:`CandidateSet` or ``None``, which means
    ``"full"``).

    ``engine`` is an optional pre-built :class:`SurrogateEngine` of the same
    graph to run on (the campaign passes its shared engine to every attack).
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
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        """Poison ``graph`` to hide ``targets`` using at most ``budget`` flips."""

    @staticmethod
    def _resolve_candidates(
        candidates: "CandidateSet | str | None",
        graph,
        targets: Sequence[int],
        n: int,
        budget: "int | None" = None,
        block_size: "int | None" = None,
        block_seed: int = 0,
    ) -> CandidateSet:
        """Normalise the ``candidates`` argument of :meth:`attack`.

        ``None`` means every upper-triangle pair (:meth:`CandidateSet.full`);
        a strategy name is built against ``graph``/``targets``; a prebuilt
        :class:`CandidateSet` is checked for size agreement.  ``budget`` and
        the ``block_*`` knobs feed the budget-aware sizing policies of the
        ``adaptive_gradient`` and ``block`` strategies (ignored for prebuilt
        sets and the static strategies).
        """
        if candidates is None:
            return CandidateSet.full(n)
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
    def _engine_for(
        engine: "SurrogateEngine | None",
        adjacency,
        targets: Sequence[int],
        candidates: CandidateSet,
        *,
        floor: float = 1.0,
        weights: "Sequence[float] | None" = None,
    ) -> SurrogateEngine:
        """The engine an attack runs on, pointed at ``candidates``.

        An injected ``engine`` (a campaign's shared engine, or the dense
        test oracle) is retargeted in place instead of rebuilt; otherwise a
        sparse engine is built for this call.  Either way the engine holds
        the :class:`CandidateSet` itself, so a refresh whose lineage names
        it carries the engine's per-pair cache instead of re-reading it.
        """
        if engine is None:
            return SurrogateEngine.create(
                adjacency, targets, candidates, floor=floor, weights=weights
            )
        engine.retarget(targets, candidates, floor=floor, weights=weights)
        return engine

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
