"""BinarizedAttack (Section V-B, Algorithm 1) — the paper's contribution.

Inspired by Binarized Neural Networks, the attack keeps **two** decision
variables per candidate pair (upper-triangle entry of the adjacency matrix):

* a continuous ``Ż ∈ [0, 1]`` used in the backward pass, and
* a discrete dummy ``Z = −binarized(2Ż − 1) ∈ {±1}`` used in the forward
  pass, where ``Z = −1`` means "flip this pair".

The forward pass therefore evaluates the surrogate loss on a **discrete**
graph — measuring the true effect of discrete updates — while gradients flow
to ``Ż`` through a straight-through estimator.

The budget enters through a projection, not through Eq. 8a's LASSO
penalty ``λ‖Ż‖₁``: every step is projected onto the budget set
``{Ż ∈ [0, 1] : ΣŻ ≤ ℓ}`` (:func:`project_budget`, the projected step of
PRBCD, Geisler et al., NeurIPS 2021).  The PGD runs at two budget levels,
``ℓ = ⌈B/2⌉`` and then ``ℓ = B`` (one level when ``B = 1``), and
``iterations`` is the total step count, split evenly between them.  The
first level starts from ``Ż = 0`` (the clean graph); the second continues
from the first level's ``Ż``, which is already feasible for the larger ``ℓ``.
Each step is ``Ż ← project(Ż − η·g / max|g|, ℓ)``.

Implementation notes
--------------------
* The PGD loop runs through a
  :class:`~repro.oddball.surrogate.SurrogateEngine`: the sparse engine
  evaluates each discrete iterate by applying its flip set to
  incrementally-maintained egonet features, scoring in O(n), scattering
  the closed-form straight-through gradient onto the candidate pairs only,
  and rolling the flips back — O(Σ deg + n + |C|) per iteration instead of
  O(n³), which is what makes the attack feasible on sparse 10k+-node
  graphs.  Both levels reuse ONE engine instance; no adjacency is ever
  rebuilt between iterates.  The dense autograd oracle the parity suite
  injects (instead of Eq. 6's ``A = (A0 − ½) ⊙ Z + ½``, which would
  corrupt the diagonal when ``Z`` is scattered with a zero diagonal, it
  uses the exactly equivalent off-diagonal form ``A = A0 + (1 − 2·A0) ⊙ F``
  with the flip indicator ``F = (1 − Z)/2 ∈ {0, 1}``) selects the same
  flips.
* Alg. 1 lines 16–19 ("pick out Ż = min L satisfying ΣZ = −b"): every
  iterate's discrete flip set (validated against the no-singleton rule)
  is recorded with its surrogate loss, and so is each level's *rounding*:
  the valid pairs among the top ``4ℓ`` entries of the level's last ``Ż``,
  every prefix of which is recorded, scored in one
  :meth:`~SurrogateEngine.score_prefixes` pass.  The budget-``b`` answer
  is the best recorded set of size ≤ b, found for every b in one pass
  over the pool (best per size, then a running minimum over sizes), so
  the surrogate is non-increasing in b.  The projection keeps an iterate
  small by construction: ``ΣŻ ≤ ℓ`` leaves at most ``2ℓ`` entries at or
  above the flip threshold ½.
* The adversarial gradient is normalised to unit max-magnitude before the
  projected update.  The raw surrogate's gradient scale varies by orders of
  magnitude across graphs (it is quadratic in egonet edge counts), so plain
  PGD with any fixed ``η`` either stalls or saturates everything in one
  step; normalised, one ``η`` default (0.1) works on every dataset in the
  paper.
* ``candidates`` restricts the decision variables to a
  :class:`~repro.attacks.candidates.CandidateSet`: ``Ż`` then has one entry
  per candidate pair instead of n(n−1)/2, shrinking both the optimiser
  state and the per-iteration scatter.  ``None`` means ``full``: every
  upper-triangle pair, in ``np.triu_indices`` order.
* Recorded sets are re-scored at ``self.floor`` whenever the validity
  pass trims them, so every entry of the per-budget argmin is measured on
  the same objective (mixing floors here silently corrupted the selection
  when ``floor != 1.0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet, adopt_refresh
from repro.attacks.constraints import filter_valid_flips_engine
from repro.graph.sparse import to_sparse
from repro.oddball.surrogate import SurrogateEngine
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget

__all__ = ["BinarizedAttack", "project_budget"]

_log = get_logger("attacks.binarized")

Edge = tuple[int, int]


@dataclass
class _Candidate:
    """One recorded (validated) discrete solution."""

    flips: tuple[Edge, ...]
    surrogate: float

    @property
    def size(self) -> int:
        return len(self.flips)


class BinarizedAttack(StructuralAttack):
    """Gradient-descent attack with binarized decision variables (Alg. 1).

    The PGD projects every step onto ``ΣŻ ≤ ℓ`` at two budget levels ``ℓ``;
    each level's last ``Ż`` is rounded to its top pairs, and every budget
    is answered by the best recorded set of at most that size (see the
    module docstring).

    Parameters
    ----------
    iterations:
        Total number of PGD steps, split evenly between the two budget
        levels ``⌈B/2⌉`` and ``B``.
    lr:
        Step size η of the normalised projected step (default 0.1).
    floor:
        Log-clamp floor of the surrogate (the forward graph is discrete, so
        the default of 1.0 only guards transient singleton states).
    block_size, block_seed:
        Parameters of the ``candidates="block"`` strategy (PRBCD): the
        random block's size cap (default:
        :func:`~repro.attacks.candidates.default_block_size` of the
        budget) and its sampling seed.  Part of the attack's campaign-job
        identity, so block runs checkpoint/resume deterministically.
        Ignored for every other strategy.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.oddball import OddBall
    >>> graph = erdos_renyi(40, 0.15, rng=3)
    >>> targets = OddBall().analyze(graph).top_k(2).tolist()
    >>> attack = BinarizedAttack(iterations=30)
    >>> result = attack.attack(graph, targets, budget=4)
    >>> 0 <= len(result.flips()) <= 4
    True
    """

    name = "binarizedattack"

    def __init__(
        self,
        iterations: int = 200,
        lr: float = 0.1,
        floor: float = 1.0,
        block_size: "int | None" = None,
        block_seed: int = 0,
    ):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self.lr = lr
        self.floor = floor
        self.block_size = None if block_size is None else int(block_size)
        self.block_seed = int(block_seed)

    # ------------------------------------------------------------------ #
    def attack(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None" = None,
        candidates: "CandidateSet | str | None" = None,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        adjacency = to_sparse(graph)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)

        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n,
            budget=budget, block_size=self.block_size, block_seed=self.block_seed,
        )
        rows, cols = candidate_set.rows, candidate_set.cols
        engine = self._engine_for(
            engine, adjacency, targets, candidate_set,
            floor=self.floor, weights=target_weights,
        )
        recorded = [_Candidate(flips=(), surrogate=engine.current_loss())]

        zdot = np.zeros(len(rows), dtype=np.float64)
        for level, steps in _schedule(budget, self.iterations):
            shift = 0.0  # the projection's μ, warm-started step to step
            for step in range(steps + 1):
                # Forward on the DISCRETE graph + straight-through backward
                # (Alg. 1 lines 5-11), delegated to the engine.
                adversarial, gradient, flip_mask = engine.binarized_step(zdot)
                landed = self._record(
                    recorded, engine, zdot, flip_mask, rows, cols, adversarial, budget
                )
                if step == steps:
                    break  # the level's last iterate is recorded, not stepped
                # Normalised, budget-projected update (Alg. 1 line 12).  The
                # engine's gradient may be memoised, so it is never written:
                # the step is a fresh array, and Ż is subtracted into it.
                scale = float(np.max(np.abs(gradient)))
                if scale > 0.0:
                    update = gradient * (self.lr / scale)
                    zdot = np.subtract(zdot, update, out=update)
                zdot, shift = project_budget(zdot, level, shift)
                # Per-step adaptation: a recorded (validated) iterate counts
                # as landed flips.  Refresh runs every step — an
                # adaptive_gradient set only reacts to landed flips (and
                # returns ``self`` otherwise), while a block set resamples
                # its low-gradient half each step, PRBCD-style.  Ż migrates
                # along the refresh's lineage: surviving pairs keep their
                # state, admitted pairs start at 0.
                refreshed = candidate_set.refresh(landed or [], engine)
                if refreshed is not candidate_set:
                    zdot = adopt_refresh(engine, refreshed, zdot, 0.0)
                    candidate_set = refreshed
                    rows, cols = refreshed.rows, refreshed.cols
            self._round(recorded, engine, zdot, rows, cols, level)

        flips_by_budget, surrogate_by_budget = self._select(recorded, budget)
        return AttackResult(
            method=self.name,
            original=adjacency,
            flips_by_budget=flips_by_budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "iterations": self.iterations,
                "lr": self.lr,
                "candidates_recorded": len(recorded),
                "candidate_strategy": candidate_set.strategy,
                "decision_variables": len(rows),
                "backend": engine.backend,
            },
        )

    # ------------------------------------------------------------------ #
    def _record(
        self,
        recorded: list[_Candidate],
        engine: SurrogateEngine,
        zdot_values: np.ndarray,
        flip_mask: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        adversarial_loss: float,
        budget: int,
    ) -> "list[Edge] | None":
        """Validate and store the current iterate's discrete flip set.

        Returns the validated flips (the attack's per-step adaptive
        candidate hook treats them as "landed"), or ``None`` when the
        iterate flips nothing valid.
        """
        flipped = np.flatnonzero(flip_mask)
        if len(flipped) == 0:
            return None  # the empty set is pre-seeded
        # Most-confident-first ordering for the validity pass.
        order = flipped[np.argsort(-zdot_values[flipped], kind="stable")]
        raw_flips = [(int(rows[k]), int(cols[k])) for k in order]
        valid_flips = filter_valid_flips_engine(engine, raw_flips, limit=budget)
        if not valid_flips:
            return None
        if len(valid_flips) == len(raw_flips):
            surrogate = adversarial_loss  # forward value still exact
        else:
            # Re-score the trimmed flip set at the SAME floor the forward
            # pass uses.
            surrogate = engine.score_flips(valid_flips)
        recorded.append(_Candidate(flips=tuple(valid_flips), surrogate=surrogate))
        return valid_flips

    @staticmethod
    def _round(
        recorded: list[_Candidate],
        engine: SurrogateEngine,
        zdot: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        level: int,
    ) -> None:
        """Record every prefix of the level's rounding.

        The rounding is the greedy valid subset, of at most ``level``
        pairs, of the top ``4·level`` positive entries of ``Ż``.
        """
        positive = np.flatnonzero(zdot > 0.0)
        top = positive[_top_k(zdot[positive], 4 * level)]
        ranked = [(int(rows[k]), int(cols[k])) for k in top]
        rounded = filter_valid_flips_engine(engine, ranked, limit=level)
        for size, loss in enumerate(engine.score_prefixes(rounded), start=1):
            recorded.append(_Candidate(flips=tuple(rounded[:size]), surrogate=loss))

    @staticmethod
    def _select(
        recorded: list[_Candidate], budget: int
    ) -> tuple[dict[int, list[Edge]], dict[int, float]]:
        """Per-budget best recorded solution (Alg. 1 lines 16-19)."""
        _telemetry.count("attacks.binarized.recorded", len(recorded) - 1)
        # Budget b's answer is the min over sizes <= b by (surrogate, size),
        # first occurrence on ties: the best set of each size, then a
        # running minimum in which a larger set must be strictly better.
        best_of_size: dict[int, _Candidate] = {}
        for candidate in recorded:
            held = best_of_size.get(candidate.size)
            if held is None or candidate.surrogate < held.surrogate:
                best_of_size[candidate.size] = candidate
        flips_by_budget: dict[int, list[Edge]] = {}
        surrogate_by_budget: dict[int, float] = {}
        best = recorded[0]  # the seeded empty set, the only one of size 0
        for b in range(budget + 1):
            candidate = best_of_size.get(b)
            if candidate is not None and candidate.surrogate < best.surrogate:
                best = candidate
            flips_by_budget[b] = list(best.flips)
            surrogate_by_budget[b] = best.surrogate
        return flips_by_budget, surrogate_by_budget


def _schedule(budget: int, iterations: int) -> list[tuple[int, int]]:
    """``(level, steps)`` per budget level: ``⌈B/2⌉`` then ``B``.

    One level when ``B = 1``, none when ``B = 0``.  The ``iterations``
    steps are split evenly, the first level taking an odd one.
    """
    levels = sorted({-(-budget // 2), budget} - {0})
    return [
        (level, iterations // len(levels) + (i < iterations % len(levels)))
        for i, level in enumerate(levels)
    ]


def project_budget(
    values: np.ndarray, level: float, guess: float = 0.0
) -> tuple[np.ndarray, float]:
    """Euclidean projection of ``values`` onto ``{x ∈ [0, 1]^m : Σx ≤ level}``.

    Returns the projection and its shift ``μ ≥ 0``: the projection is
    ``clip(values − μ, 0, 1)``, with ``μ = 0`` when the plain clip is
    feasible and otherwise the ``μ > 0`` at which its sum is ``level``.
    ``guess`` warm-starts the search for ``μ`` (pass the previous step's
    shift); every guess gives the same projection.

    ``Σ clip(v − μ, 0, 1)`` is piecewise linear and non-increasing in ``μ``,
    with slope ``−#{μ < v < μ + 1}``.  Newton steps on it, safeguarded by
    bisection inside a bracket around the root, land on the root as soon
    as they reach its linear piece.  Once a step lands below the root,
    later steps read only the entries above it (the rest are 0 at every
    ``μ`` past it): a warm start near the root reads the full vector once
    and then only the few entries the projection keeps positive.

    >>> x, mu = project_budget(np.array([0.9, 0.7, 0.2, -0.3]), 1.0)
    >>> x.round(12).tolist(), round(mu, 12)
    ([0.6, 0.4, 0.0, 0.0], 0.3)
    """
    projected = np.clip(values, 0.0, 1.0)
    if projected.sum() <= level:
        return projected, 0.0
    live = values
    lo, hi = 0.0, float(values.max())
    mu = guess if lo < guess < hi else lo
    while True:
        above = live[live > mu]
        inside = above[above < mu + 1.0]
        excess = above.size - inside.size + float(inside.sum()) - mu * inside.size - level
        if excess > 0.0:
            lo, live = mu, above
        elif excess < 0.0:
            hi = mu
        else:
            break
        if inside.size:
            newton = mu + excess / inside.size
            if newton == mu:
                break  # a root to within one ulp of μ
        if not inside.size or not lo < newton <= hi:
            newton = 0.5 * (lo + hi)
            if not lo < newton < hi:
                break  # the bracket is two adjacent floats
        mu = newton
    return np.clip(np.subtract(values, mu, out=projected), 0.0, 1.0, out=projected), mu


def _top_k(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-values, kind="stable")[:k]`` without sorting all of it.

    One ``np.partition`` finds the k-th smallest key; every index whose
    key is not above it (ties and NaNs included) is stable-sorted, so the
    order, ties broken by ascending index, is the full sort's.
    """
    keys = -values
    if k >= keys.size:
        return np.argsort(keys, kind="stable")
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    threshold = np.partition(keys, k - 1)[k - 1]
    head = np.flatnonzero(~(keys > threshold))
    return head[np.argsort(keys[head], kind="stable")][:k]
