"""Random-flip baseline.

Not part of the paper's comparison, but used by the ablation benchmarks to
show how much of the attacks' power comes from the gradient guidance rather
than from mere structural perturbation.
"""

from __future__ import annotations

from typing import Sequence

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import filter_valid_flips_engine
from repro.graph.sparse import to_sparse
from repro.oddball.surrogate import SurrogateEngine, surrogate_loss_from_features
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

    The validity pass and the per-budget losses run on a surrogate engine
    used as a pure *graph-state backend*: O(deg) validity probes and O(n)
    feature-space loss bookkeeping, with every transient flip popped before
    returning.  An injected engine (the campaign/executor path) is used as
    it is, so campaign workers amortise the per-job feature rebuild for
    this baseline exactly as they do for the gradient attacks; otherwise a
    sparse engine with no candidate pairs is built for the call.  Losses
    come from :func:`surrogate_loss_from_features` at the default
    floor/ridge, independent of whatever configuration a previous campaign
    job left on the engine, so flips and losses match across engines
    (parity-tested).
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
        adjacency = to_sparse(graph)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)
        generator = as_generator(self.rng)

        if candidates is None and self.target_biased:
            candidates = "target_incident"
        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n, budget=budget
        )
        # Walk a permutation of candidate indices lazily: the filter stops
        # after ``budget`` accepted flips, so only those pairs are read.
        order = generator.permutation(len(candidate_set))
        rows, cols = candidate_set.rows, candidate_set.cols
        shuffled = ((int(rows[i]), int(cols[i])) for i in order)

        if engine is None:
            engine = SurrogateEngine.create(
                adjacency, targets, CandidateSet.from_pairs(n, ())
            )
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
