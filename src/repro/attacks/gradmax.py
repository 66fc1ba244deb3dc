"""GradMaxSearch (Section V-A-1): greedy gradient-guided edge flipping.

At each of the ``B`` steps the surrogate loss is differentiated w.r.t. the
*current* (discrete) adjacency matrix; among the sign-valid pairs (add needs a
negative gradient, delete a positive one) that neither repeat an earlier
modification nor create a singleton, the pair with the largest absolute
gradient is flipped.  This is the standard greedy baseline most prior
structural attacks use.

The greedy loop runs through a
:class:`~repro.oddball.surrogate.SurrogateEngine` — the sparse engine
unless one is injected: egonet features are maintained incrementally at
O(deg) per flip and the gradient is scattered onto the candidate pairs
only, so one greedy step costs O(m + |C|) instead of the O(n³) autograd
backward of the seed implementation.  Without ``candidates`` the search
covers every pair; ``target_incident``/``two_hop`` prune it Nettack-style.
Sparse adjacency inputs are supported and never densified.

The parity suite injects the dense autograd oracle
(:class:`~repro.oddball.surrogate.DenseSurrogateEngine`) into this same
loop and checks that it picks the same flips as the sparse engine.  The two
engines sum gradients in different orders, so pairs that tie in exact
arithmetic can differ in their last bits; :data:`TIE_RTOL` makes both
engines break such ties alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.kernels import validate_kernels
from repro.oddball.surrogate import SurrogateEngine
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget

__all__ = ["GradMaxSearch"]

_log = get_logger("attacks.gradmax")

#: Relative gap below which two gradient magnitudes count as tied.  Pairs
#: that are interchangeable in exact arithmetic get gradients that differ
#: only in the last bits, and the sparse engine and the dense test oracle
#: sum them in different orders, so without this rule the two pick
#: different flips on some graphs.  Far above that round-off, far below a
#: real gap.
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

    def __init__(self, floor: float = 1.0, kernels: str = "auto",
                 block_size: "int | None" = None, block_seed: int = 0):
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
        """Greedy loop through the (possibly shared) surrogate engine.

        An injected ``engine`` (the campaign's shared engine, or the dense
        test oracle) is retargeted in place; otherwise a sparse engine is
        built for this call.
        """
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
                "backend": engine.backend,
                "candidate_strategy": candidate_set.strategy,
                "candidate_count": len(candidate_set),
            },
        )
