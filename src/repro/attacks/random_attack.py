"""Random-flip baseline.

Not part of the paper's comparison, but used by the ablation benchmarks to
show how much of the attacks' power comes from the gradient guidance rather
than from mere structural perturbation.
"""

from __future__ import annotations

from typing import Sequence

from scipy import sparse

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import filter_valid_flips, filter_valid_flips_engine
from repro.oddball.surrogate import (
    SurrogateEngine,
    surrogate_loss_from_features,
    surrogate_loss_numpy,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_budget

__all__ = ["RandomAttack"]


class RandomAttack(StructuralAttack):
    """Flip uniformly-random valid pairs.

    ``target_biased=True`` restricts flips to pairs incident to a target
    node — a slightly stronger baseline matching what a naive attacker with
    knowledge of the target set would do.  It is exactly equivalent to
    passing ``candidates="target_incident"``; an explicit ``candidates``
    argument takes precedence over the flag.

    Scipy sparse adjacencies stay sparse end-to-end: the validity pass and
    the surrogate bookkeeping run through a
    :class:`~repro.oddball.surrogate.SparseSurrogateEngine` (O(deg) probes,
    O(n) scoring) instead of a dense scratch matrix, and produce the exact
    same flips/losses as the dense path on the same graph (parity-tested).

    An injected shared ``engine`` (the campaign/executor path) is used as a
    pure *graph-state backend* — O(deg) validity probes and O(n)
    feature-space loss bookkeeping, with every transient flip popped before
    returning — so campaign workers amortise the per-job feature rebuild
    for this baseline exactly as they do for the gradient attacks, with
    flips and losses identical to a standalone call (parity-tested).
    """

    name = "random"

    def __init__(self, rng=None, target_biased: bool = False):
        self.rng = rng
        self.target_biased = target_biased

    def attack(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None" = None,
        candidates: "CandidateSet | str | None" = None,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        """Flip uniformly-random valid pairs from the candidate set."""
        adjacency = self._adjacency_of(graph, allow_sparse=True)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)
        generator = as_generator(self.rng)

        if candidates is None:
            candidates = "target_incident" if self.target_biased else "full"
        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n, budget=budget
        )
        assert candidate_set is not None
        pairs = candidate_set.pairs()
        order = generator.permutation(len(pairs))
        shuffled = [pairs[i] for i in order]

        if engine is not None:
            ordered_flips, surrogate_by_budget = self._via_engine(
                engine, shuffled, budget, targets, target_weights
            )
        elif sparse.issparse(adjacency):
            engine = SurrogateEngine.create(
                adjacency, targets, candidate_set, weights=target_weights,
            )
            ordered_flips = filter_valid_flips_engine(engine, shuffled, limit=budget)
            surrogate_by_budget = {0: engine.current_loss()}
            for b, loss in enumerate(engine.score_prefixes(ordered_flips), start=1):
                surrogate_by_budget[b] = loss
        else:
            ordered_flips = filter_valid_flips(adjacency, shuffled, limit=budget)
            surrogate_by_budget = {
                0: surrogate_loss_numpy(adjacency, targets, target_weights)
            }
            scratch = adjacency.copy()
            for b, (u, v) in enumerate(ordered_flips, start=1):
                scratch[u, v] = scratch[v, u] = 1.0 - scratch[u, v]
                surrogate_by_budget[b] = surrogate_loss_numpy(
                    scratch, targets, target_weights
                )

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "target_biased": self.target_biased,
                "candidate_strategy": candidate_set.strategy,
                "candidate_count": len(candidate_set),
            },
        )

    @staticmethod
    def _via_engine(
        engine: SurrogateEngine,
        shuffled,
        budget: int,
        targets: Sequence[int],
        target_weights: "Sequence[float] | None",
    ) -> "tuple[list, dict[int, float]]":
        """Validity pass + prefix losses on an injected shared engine.

        Losses come from :func:`surrogate_loss_from_features` at the
        default floor/ridge, independent of whatever configuration a
        previous campaign job left on the engine — bit-identical to the
        standalone dense and sparse paths on the same graph.
        """
        ordered_flips = filter_valid_flips_engine(engine, shuffled, limit=budget)
        surrogate_by_budget = {
            0: surrogate_loss_from_features(
                *engine.node_features(), targets, weights=target_weights
            )
        }
        for b, (u, v) in enumerate(ordered_flips, start=1):
            engine.push_flip(u, v)
            surrogate_by_budget[b] = surrogate_loss_from_features(
                *engine.node_features(), targets, weights=target_weights
            )
        engine.pop_flips(len(ordered_flips))
        return ordered_flips, surrogate_by_budget
