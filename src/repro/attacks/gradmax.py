"""GradMaxSearch (Section V-A-1): greedy gradient-guided edge flipping.

At each of the ``B`` steps the surrogate loss is differentiated w.r.t. the
*current* (discrete) adjacency matrix; among the sign-valid pairs (add needs a
negative gradient, delete a positive one) that neither repeat an earlier
modification nor create a singleton, the pair with the largest absolute
gradient is flipped.  This is the standard greedy baseline most prior
structural attacks use.

Two execution paths back the greedy loop:

* the **legacy dense loop** (``candidates=None`` with ``backend="dense"``)
  — the seed implementation: a full autograd backward pass over all
  ``n²`` entries per step, O(n³) work, exact;
* the **engine loop** (any ``candidates``, or the default backend) —
  the greedy search runs through the shared
  :class:`~repro.oddball.surrogate.SurrogateEngine`.  With the sparse
  backend, egonet features are maintained incrementally at O(deg) per flip
  and the gradient is scattered onto candidate pairs only, so one greedy
  step costs O(m + |C|) instead of O(n³); with the dense backend the engine
  gathers the full autograd gradient at the candidate pairs (the reference
  the parity suite checks against).  With the ``full`` strategy the engine
  reproduces the dense path's flips bit-for-bit (equivalence-tested; both
  loops break round-off ties alike, see :data:`TIE_RTOL`); with
  ``target_incident``/``two_hop`` it prunes the search Nettack-style.
  Sparse adjacency inputs are supported and never densified by this path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import no_singleton_mask, sign_valid_mask
from repro.kernels import validate_kernels
from repro.oddball.surrogate import (
    SurrogateEngine,
    adjacency_gradient,
    resolve_backend,
    surrogate_loss_numpy,
    validate_backend,
)
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget

__all__ = ["GradMaxSearch"]

_log = get_logger("attacks.gradmax")

#: Relative gap below which two gradient magnitudes count as tied.  Pairs
#: that are interchangeable in exact arithmetic get gradients that differ
#: only in the last bits, and the dense and sparse engines sum them in
#: different orders; far above that round-off, far below a real gap.
TIE_RTOL = 1e-9


def _first_best(magnitude: np.ndarray) -> int:
    """Flat index of the first entry tied (within :data:`TIE_RTOL`) with
    the largest, so round-off cannot decide between tied pairs."""
    best = magnitude.max()
    return int(np.argmax(magnitude >= best - TIE_RTOL * best))


class GradMaxSearch(StructuralAttack):
    """Greedy structural attack driven by per-step adjacency gradients.

    Parameters
    ----------
    floor:
        Clamp floor for the log-features inside the surrogate (see
        :mod:`repro.oddball.surrogate`); used consistently for both the
        gradients and the per-budget surrogate bookkeeping.
    backend:
        Surrogate engine backend.  ``"auto"`` (like ``"sparse"``) runs the
        sparse-incremental engine, over every pair when no ``candidates``
        are given; ``"dense"`` without ``candidates`` runs the legacy
        dense loop.
    block_size, block_seed:
        Parameters of the ``candidates="block"`` strategy (PRBCD random
        block with gradient resampling); part of the attack's campaign-job
        identity.  Ignored for every other strategy.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.oddball import OddBall
    >>> graph = erdos_renyi(40, 0.15, rng=3)
    >>> targets = OddBall().analyze(graph).top_k(2).tolist()
    >>> result = GradMaxSearch().attack(graph, targets, budget=4)
    >>> len(result.flips()) <= 4
    True
    >>> fast = GradMaxSearch().attack(graph, targets, budget=4,
    ...                               candidates="target_incident")
    >>> len(fast.flips()) <= 4
    True
    """

    name = "gradmaxsearch"

    def __init__(self, floor: float = 1.0, backend: str = "auto",
                 kernels: str = "auto", block_size: "int | None" = None,
                 block_seed: int = 0):
        self.floor = floor
        self.backend = validate_backend(backend)
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
        # An injected shared engine (campaign path) is retargeted in place
        # and always drives the engine loop.  Otherwise only an explicit
        # dense backend without candidates keeps the legacy dense loop.
        if engine is not None:
            return self._attack_engine(
                graph, targets, budget, target_weights, candidates,
                engine.backend, engine=engine,
            )
        backend = resolve_backend(self.backend)
        if candidates is None and backend == "dense":
            return self._attack_dense(graph, targets, budget, target_weights)
        return self._attack_engine(
            graph, targets, budget, target_weights, candidates, backend
        )

    # ------------------------------------------------------------------ #
    def _attack_dense(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None",
    ) -> AttackResult:
        """Legacy full-matrix loop (the seed implementation, kept as oracle)."""
        adjacency = self._adjacency_of(graph)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)

        current = adjacency.copy()
        ordered_flips: list[tuple[int, int]] = []
        surrogate_by_budget = {
            0: surrogate_loss_numpy(adjacency, targets, target_weights, floor=self.floor)
        }
        modified = np.zeros((n, n), dtype=bool)  # the "pool" of used pairs

        for step in range(budget):
            gradient = adjacency_gradient(
                current, targets, floor=self.floor, weights=target_weights
            )
            valid = (
                sign_valid_mask(current, gradient)
                & no_singleton_mask(current)
                & ~modified
            )
            if not valid.any():
                _log.debug("no valid flip left after %d steps", step)
                break
            magnitude = np.where(valid, np.abs(gradient), -np.inf)
            flat = _first_best(magnitude)
            u, v = divmod(flat, n)
            pair = (u, v) if u < v else (v, u)
            new_value = 1.0 - current[u, v]
            current[u, v] = current[v, u] = new_value
            modified[u, v] = modified[v, u] = True
            ordered_flips.append(pair)
            surrogate_by_budget[len(ordered_flips)] = surrogate_loss_numpy(
                current, targets, target_weights, floor=self.floor
            )

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={"steps_taken": len(ordered_flips), "engine": "dense"},
        )

    # ------------------------------------------------------------------ #
    def _attack_engine(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None",
        candidates: "CandidateSet | str | None",
        backend: str,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        """Greedy loop through the (possibly shared) surrogate engine."""
        adjacency = self._adjacency_of(graph, allow_sparse=True)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)
        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n,
            budget=budget, block_size=self.block_size, block_seed=self.block_seed,
        )
        if candidate_set is None:
            candidate_set = CandidateSet.full(n)
        rows, cols = candidate_set.rows, candidate_set.cols

        if engine is None:
            engine = SurrogateEngine.create(
                adjacency,
                targets,
                candidate_set,
                backend=backend,
                floor=self.floor,
                weights=target_weights,
                kernels=self.kernels,
            )
        else:
            engine.retarget(
                targets, candidate_set, floor=self.floor, weights=target_weights
            )
        ordered_flips: list[tuple[int, int]] = []
        surrogate_by_budget = {0: engine.current_loss()}
        modified = np.zeros(len(candidate_set), dtype=bool)
        # A pair's adjacency value only changes when the pair itself flips,
        # and flipped pairs leave the pool through ``modified`` — so the
        # per-pair edge values are only recomputed when the candidate set
        # itself adapts.
        edge_values = engine.edge_values

        for step in range(budget):
            gradient = engine.candidate_gradient()
            degrees = engine.degrees()
            sign_valid = ((edge_values == 0.0) & (gradient < 0.0)) | (
                (edge_values == 1.0) & (gradient > 0.0)
            )
            unsafe_delete = (edge_values == 1.0) & (
                (degrees[rows] <= 1.0) | (degrees[cols] <= 1.0)
            )
            valid = sign_valid & ~unsafe_delete & ~modified
            if not valid.any():
                _log.debug("no valid candidate flip left after %d steps", step)
                break
            magnitude = np.where(valid, np.abs(gradient), -np.inf)
            k = _first_best(magnitude)
            u, v = int(rows[k]), int(cols[k])
            engine.apply_flip(u, v)
            modified[k] = True
            ordered_flips.append((u, v))
            surrogate_by_budget[len(ordered_flips)] = engine.current_loss()
            # Per-step adaptation: the landed flip may grow the ball
            # (adaptive) or trigger a resample of the low-gradient half
            # (block).  The greedy state (``modified``) migrates via
            # ``transfer_positions`` — flipped pairs are never evicted by
            # any strategy, so no used-pair flag is ever lost; membership
            # can change at constant |C|, so equality is checked on the
            # pairs themselves.
            refreshed = candidate_set.refresh([(u, v)], engine)
            if refreshed is not candidate_set:
                if not refreshed.same_pairs(candidate_set):
                    migrated = np.zeros(len(refreshed), dtype=bool)
                    positions = refreshed.transfer_positions(rows, cols)
                    survived = positions >= 0
                    migrated[positions[survived]] = modified[survived]
                    modified = migrated
                    engine.set_candidates(refreshed)
                    rows, cols = refreshed.rows, refreshed.cols
                    edge_values = engine.edge_values
                candidate_set = refreshed

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "steps_taken": len(ordered_flips),
                "engine": "candidates",
                "backend": engine.backend,
                "candidate_strategy": candidate_set.strategy,
                "candidate_count": len(candidate_set),
            },
        )
