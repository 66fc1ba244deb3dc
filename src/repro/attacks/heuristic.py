"""A gradient-free, OddBall-specific heuristic baseline (reproduction
extension, not in the paper).

Rationale: OddBall flags a node when its egonet point (N, E) sits far from
the power-law line ``E ≈ e^{β0} N^{β1}`` (Fig. 2b).  An attacker who knows
this can move each target's point back toward the line directly:

* **above the line** (near-clique, too many egonet edges): delete edges
  *between the target's neighbours* — each removal decreases E by 1 while
  leaving N unchanged;
* **below the line** (near-star, too few egonet edges): add edges between
  pairs of the target's neighbours — each insertion increases E by 1 while
  leaving N unchanged.

This is the strongest attack one can design without gradients, and the
ablation benches use it to show what the gradient machinery adds: the
heuristic ignores the bi-level effect (moving points also moves the fitted
line) and cross-target interactions, both of which the gradient-based
attacks exploit.

The whole loop runs on a
:class:`~repro.oddball.surrogate.SparseSurrogateEngine`'s maintained egonet
features — O(deg) per flip, O(n) per re-fit — so scipy sparse adjacencies
are supported natively (and stay sparse in the :class:`AttackResult`);
dense inputs take the same path and produce bit-identical flips to the
historical dense scratch-matrix implementation, because the maintained
features are exactly the integers a fresh ``egonet_features``
recomputation yields.
"""

from __future__ import annotations

from typing import Sequence

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.graph.sparse import to_sparse
from repro.oddball.regression import fit_power_law
from repro.oddball.surrogate import SurrogateEngine, surrogate_loss_from_features
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator
from repro.utils.validation import check_budget

__all__ = ["OddBallHeuristic"]

_log = get_logger("attacks.heuristic")

Edge = tuple[int, int]


class OddBallHeuristic(StructuralAttack):
    """Move each target's (N, E) point toward the regression line.

    The budget is spent round-robin across targets, largest |residual|
    first; each step flips the neighbour-pair edge of the current target
    that moves E one unit toward the line.  Residuals are re-evaluated
    against the *re-fitted* line after every flip, so the heuristic is not
    entirely blind to poisoning effects — it just cannot anticipate them.
    """

    name = "oddball-heuristic"

    #: Every flip this heuristic makes is between two *neighbours* of a
    #: target — by construction such pairs never touch the target itself,
    #: so the ``target_incident`` candidate strategy filters out essentially
    #: all of them (only pairs whose endpoint happens to be another target
    #: survive).  Use ``full`` or a custom
    #: :meth:`~repro.attacks.candidates.CandidateSet.from_pairs` set that
    #: holds the neighbour pairs when restricting this attack; a warning is
    #: logged when a restriction leaves the heuristic with nothing to flip.

    def __init__(self, rng=None):
        self.rng = rng

    def attack(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None" = None,
        candidates: "CandidateSet | str | None" = None,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        """Greedily move each target's (N, E) point toward the fitted line."""
        adjacency = to_sparse(graph)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)
        generator = as_generator(self.rng)
        # The heuristic only ever flips neighbour pairs of a target, so a
        # full candidate set imposes no restriction: ``None`` and ``"full"``
        # skip the membership tests and never build the n(n−1)/2 pairs.
        if candidates is None or candidates == "full":
            strategy, allowed = "full", None
        else:
            candidate_set = self._resolve_candidates(
                candidates, adjacency, targets, n, budget=budget
            )
            strategy = candidate_set.strategy
            allowed = None if candidate_set.is_full else candidate_set.pair_set()

        # An injected shared SPARSE engine (campaign/executor path) replaces
        # the per-call feature build: its maintained (N, E) cost O(deg) per
        # flip.  A dense engine is declined: its node_features() is a full
        # recompute per step, and this gradient-free heuristic gains nothing
        # else from it.  Every flip is transient, so an injected engine
        # leaves the attack exactly as it entered.
        if engine is None or engine.backend != "sparse":
            engine = SurrogateEngine.create(
                adjacency, targets, CandidateSet.from_pairs(n, ())
            )
        modified: set[Edge] = set()
        ordered_flips: list[Edge] = []
        surrogate_by_budget = {
            0: surrogate_loss_from_features(
                *engine.node_features(), targets, weights=target_weights
            )
        }

        try:
            for _ in range(budget):
                flip = self._best_step(engine, targets, modified, generator, allowed)
                if flip is None:
                    if not ordered_flips and allowed is not None:
                        _log.warning(
                            "candidate restriction (%s, %d pairs) excludes every "
                            "neighbour-pair flip the heuristic can make; use "
                            "'full' or a custom from_pairs set instead",
                            strategy,
                            len(allowed),
                        )
                    break
                engine.push_flip(*flip)
                modified.add(flip)
                ordered_flips.append(flip)
                surrogate_by_budget[len(ordered_flips)] = surrogate_loss_from_features(
                    *engine.node_features(), targets, weights=target_weights
                )
        finally:
            engine.pop_flips(len(ordered_flips))

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "steps_taken": len(ordered_flips),
                "candidate_strategy": strategy,
            },
        )

    # ------------------------------------------------------------------ #
    def _best_step(
        self,
        engine: SurrogateEngine,
        targets: Sequence[int],
        modified: "set[Edge]",
        generator,
        allowed: "frozenset[Edge] | None" = None,
    ) -> "Edge | None":
        """One heuristic flip: fix the worst-residual target's egonet."""
        n_feature, e_feature = engine.node_features()
        fit = fit_power_law(n_feature, e_feature)
        expected = fit.predict_e(n_feature)
        residuals = e_feature - expected

        # visit targets by decreasing |residual|
        order = sorted(targets, key=lambda t: -abs(residuals[t]))
        for target in order:
            neighbors = engine.neighbors(target).tolist()
            if len(neighbors) < 2:
                continue
            # neighbours are ascending, so every pair is already canonical
            pairs = [
                (a, b)
                for i, a in enumerate(neighbors)
                for b in neighbors[i + 1 :]
            ]
            generator.shuffle(pairs)
            if allowed is not None:
                pairs = [pair for pair in pairs if pair in allowed]
            if residuals[target] > 0:  # near-clique: delete a neighbour edge
                for u, v in pairs:
                    if (
                        engine.is_edge(u, v)
                        and (u, v) not in modified
                        and engine.degree(u) > 1
                        and engine.degree(v) > 1
                    ):
                        return (u, v)
            else:  # near-star: add a neighbour-pair edge
                for u, v in pairs:
                    if not engine.is_edge(u, v) and (u, v) not in modified:
                        return (u, v)
        return None
