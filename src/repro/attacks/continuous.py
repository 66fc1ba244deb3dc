"""ContinuousA (Section V-A-2): full continuous relaxation then rounding.

The adjacency matrix is relaxed to ``Ã ∈ [0, 1]^{n×n}`` and the surrogate
loss is minimised with projected gradient descent.  The final discrete
attack flips the ``B`` pairs with the largest ``|A0 − Ã*|``.

The paper uses this method to demonstrate that ignoring discreteness during
optimisation yields erratic attacks — the rounding step can map a good
fractional solution to an arbitrarily bad discrete one.

The relaxation is parametrised per candidate pair by a flip fraction
``p ∈ [0, 1]``: ``Ã = A0 + (1 − 2·A0) ⊙ p`` on the candidate pairs, so
``Ã`` is symmetric by construction and ``|A0 − Ã| = p``, and the paper's
rounding is the top ``B`` pairs by ``p``.  The PGD takes BinarizedAttack's
step (:func:`~repro.attacks.binarized.projected_step`): the gradient
normalised to unit max-magnitude, then a projection onto the budget set
``{p ∈ [0, 1] : Σp ≤ B}``.  It starts from ``p = 0`` (the clean graph) and
stops after ``max_iter`` evaluations, or once :data:`PATIENCE` evaluations
in a row fail to beat the best relaxed loss by a relative ``tol``: on a
projected iterate the loss oscillates, so a rule on consecutive
differences would never fire.  The rounding reads the last p evaluated,
the final ``Ã*`` of the paper's method, and ``final_relaxed_loss`` is its
loss.  That p is not always the best one: rounding the best instead
raises the surrogate above the clean loss in 7 of the 192 Fig. 4
job × budget cells at ci, seed 0.

The PGD loop runs through a
:class:`~repro.oddball.surrogate.SurrogateEngine`, whose
:meth:`~repro.oddball.surrogate.SurrogateEngine.relaxed_step` takes ``p``
as :meth:`~repro.oddball.surrogate.SurrogateEngine.binarized_step` takes
``Ż``.  The sparse engine evaluates it in CSR, the current graph plus an
overlay on the support of ``p``, so the relaxation also runs on graphs
the dense oracle cannot hold in memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.binarized import projected_step
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import filter_valid_flips_engine
from repro.graph.sparse import to_sparse
from repro.oddball.surrogate import SurrogateEngine
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget

__all__ = ["ContinuousA"]

_log = get_logger("attacks.continuous")

#: Evaluations in a row that may fail to beat the best relaxed loss by a
#: relative ``tol`` before the PGD stops.
PATIENCE = 10


class ContinuousA(StructuralAttack):
    """Continuous-relaxation attack with top-``B`` rounding.

    Parameters
    ----------
    lr:
        Step size η of the normalised projected step (default 0.3).
    max_iter:
        Cap on the PGD steps evaluated.
    tol:
        Relative improvement of the best relaxed loss that counts as
        progress: the PGD stops once :data:`PATIENCE` evaluations in a row
        make none.
    floor:
        Log-clamp floor inside the surrogate; the relaxed graph can have
        fractional degrees, so this defaults lower than the discrete methods.
    block_size, block_seed:
        Parameters of the ``candidates="block"`` strategy.  The
        relaxation's decision variables are fixed for the whole PGD run,
        so a block here means *one* seeded random draw optimised to
        convergence (no per-step resampling) — the same static-variable
        treatment ``adaptive_gradient`` gets.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.oddball import OddBall
    >>> graph = erdos_renyi(40, 0.15, rng=3)
    >>> targets = OddBall().analyze(graph).top_k(2).tolist()
    >>> result = ContinuousA(max_iter=30).attack(graph, targets, budget=4)
    >>> result.metadata["fractional_mass"] <= 4 + 1e-9
    True
    """

    name = "continuousa"

    def __init__(self, lr: float = 0.3, max_iter: int = 200, tol: float = 1e-6,
                 floor: float = 0.5, block_size: "int | None" = None, block_seed: int = 0):
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.lr = lr
        self.max_iter = max_iter
        self.tol = tol
        self.floor = floor
        self.block_size = None if block_size is None else int(block_size)
        self.block_seed = int(block_seed)

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
        # The relaxation's decision variables are fixed for the whole PGD
        # run, so adaptive growth does not apply here: ``adaptive_gradient``
        # simply optimises over its initial (target-incident) pairs.
        engine = self._engine_for(
            engine, adjacency, targets, candidate_set,
            floor=self.floor, weights=target_weights,
        )

        flips = np.zeros(len(rows), dtype=np.float64)
        shift = 0.0  # the projection's μ, warm-started step to step
        best, stale = np.inf, 0
        for iterations in range(1, self.max_iter + 1):
            loss, gradient = engine.relaxed_step(flips)
            if iterations > 1 and not loss < best - self.tol * abs(best):
                stale += 1
            else:
                stale = 0
            best = min(best, loss)
            if stale == PATIENCE:
                _log.debug("no progress for %d steps, stopped at %d", PATIENCE, iterations)
                break
            if iterations == self.max_iter:
                break  # round the p just evaluated, not one step past it
            flips, shift = projected_step(flips, gradient, self.lr, budget, shift)
        _telemetry.count("attacks.continuous.steps", iterations)

        # |A0 − Ã| = p: the rounding ranks the pairs of the last p by p.
        positive = np.flatnonzero(flips > 0.0)
        order = positive[np.argsort(-flips[positive], kind="stable")]
        ranked = ((int(rows[k]), int(cols[k])) for k in order)
        ordered_flips = filter_valid_flips_engine(engine, ranked, limit=budget)

        surrogate_by_budget = {0: engine.current_loss()}
        for b, score in enumerate(engine.score_prefixes(ordered_flips), start=1):
            surrogate_by_budget[b] = score

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "iterations": iterations,
                "final_relaxed_loss": loss,
                "fractional_mass": float(flips.sum()),
                "candidate_strategy": candidate_set.strategy,
                "decision_variables": len(rows),
                "backend": engine.backend,
            },
        )
