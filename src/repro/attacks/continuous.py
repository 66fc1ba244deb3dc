"""ContinuousA (Section V-A-2): full continuous relaxation then rounding.

The adjacency matrix is relaxed to ``Ã ∈ [0, 1]^{n×n}`` (parametrised on the
upper triangle so symmetry holds by construction) and the surrogate loss is
minimised to convergence with projected gradient descent.  The final discrete
attack flips the ``B`` pairs with the largest ``|A0 − Ã*|``.

The paper uses this method to demonstrate that ignoring discreteness during
optimisation yields erratic attacks — the rounding step can map a good
fractional solution to an arbitrarily bad discrete one.

The PGD loop runs through a
:class:`~repro.oddball.surrogate.SurrogateEngine`.  The fractional graph is
the clean graph with the candidate entries frozen at zero plus a symmetric
scatter of the relaxed variables.  The sparse engine computes weighted
egonet features and the closed-form pair gradient: on a dense n×n array
when the candidates fill at least half the matrix (the ``full`` strategy),
where its loss is bit-identical to the dense autograd oracle's, and in CSR
otherwise, so the relaxation also runs on graphs the oracle cannot hold in
memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import filter_valid_flips_engine
from repro.kernels import validate_kernels
from repro.oddball.surrogate import SurrogateEngine
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget

__all__ = ["ContinuousA"]

_log = get_logger("attacks.continuous")


class ContinuousA(StructuralAttack):
    """Continuous-relaxation attack with top-``B`` rounding.

    Parameters
    ----------
    lr:
        Projected-gradient-descent step size.
    max_iter:
        Iteration cap for the continuous optimisation.
    tol:
        Convergence threshold on the relative loss improvement.
    floor:
        Log-clamp floor inside the surrogate; the relaxed graph can have
        fractional degrees, so this defaults lower than the discrete methods.
    block_size, block_seed:
        Parameters of the ``candidates="block"`` strategy.  The
        relaxation's decision variables are fixed for the whole PGD run,
        so a block here means *one* seeded random draw optimised to
        convergence (no per-step resampling) — the same static-variable
        treatment the adaptive strategies get.
    """

    name = "continuousa"

    def __init__(self, lr: float = 0.01, max_iter: int = 200, tol: float = 1e-6,
                 floor: float = 0.5, kernels: str = "auto",
                 block_size: "int | None" = None, block_seed: int = 0):
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.lr = lr
        self.max_iter = max_iter
        self.tol = tol
        self.floor = floor
        self.kernels = validate_kernels(kernels)
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
        adjacency = self._adjacency_of(graph, allow_sparse=True)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)

        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n,
            budget=budget, block_size=self.block_size, block_seed=self.block_seed,
        )
        if candidate_set is None:
            rows, cols = np.triu_indices(n, k=1)
        else:
            rows, cols = candidate_set.rows, candidate_set.cols
        if engine is None:
            engine = SurrogateEngine.create(
                adjacency,
                targets,
                (rows, cols),
                floor=self.floor,
                weights=target_weights,
                kernels=self.kernels,
            )
        else:
            # Shared (campaign) engine: repoint instead of rebuilding.  The
            # relaxation's decision variables are fixed for the whole PGD
            # run, so adaptive growth does not apply here — an "adaptive"
            # strategy simply optimises over its initial (target-incident)
            # pairs.
            engine.retarget(
                targets, (rows, cols), floor=self.floor, weights=target_weights
            )
        a0_vector = engine.edge_values
        relaxed = a0_vector.copy()

        previous_loss = np.inf
        iterations_run = 0
        for iteration in range(self.max_iter):
            current_loss, gradient = engine.relaxed_step(relaxed)
            relaxed = np.clip(relaxed - self.lr * gradient, 0.0, 1.0)
            iterations_run = iteration + 1
            # Guard the sentinel: ``inf <= inf`` is true, so comparing against
            # the initial ∞ tripped "convergence" on the very first iteration
            # (and left final_relaxed_loss = inf in the metadata).
            if np.isfinite(previous_loss) and abs(previous_loss - current_loss) <= (
                self.tol * max(abs(previous_loss), 1.0)
            ):
                _log.debug("converged after %d iterations", iterations_run)
                break
            previous_loss = current_loss

        difference = np.abs(relaxed - a0_vector)
        order = np.argsort(-difference, kind="stable")
        ranked = ((int(rows[k]), int(cols[k])) for k in order if difference[k] > 0.0)
        ordered_flips = filter_valid_flips_engine(engine, ranked, limit=budget)

        surrogate_by_budget = {0: engine.current_loss()}
        for b, loss in enumerate(engine.score_prefixes(ordered_flips), start=1):
            surrogate_by_budget[b] = loss

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "iterations": iterations_run,
                "final_relaxed_loss": previous_loss,
                "fractional_mass": float(difference.sum()),
                "candidate_strategy": (
                    "legacy-full" if candidate_set is None else candidate_set.strategy
                ),
                "decision_variables": len(rows),
                "backend": engine.backend,
            },
        )
