"""OddBall anomaly scores (Eq. 3), their ranks, and the attack metric τ_as.

The *true* score used for every evaluation in the paper is

.. math::

    S_i(A) = \\frac{\\max(E_i, \\hat E_i)}{\\min(E_i, \\hat E_i)}
             \\, \\ln(|E_i − \\hat E_i| + 1),
    \\qquad \\hat E_i = e^{β0} N_i^{β1}.

The attack never optimises this directly; it optimises the squared-residual
surrogate ``(E_i − \\hat E_i)²`` (Section IV-B), implemented in
:mod:`repro.oddball.surrogate`.
"""

from __future__ import annotations

import numpy as np

from repro.oddball.regression import PowerLawFit

__all__ = [
    "rank_nodes",
    "rank_positions",
    "score_from_features",
    "tau_as",
]

_EPS = 1e-12


def rank_positions(
    scores: np.ndarray, order: "np.ndarray | None" = None
) -> np.ndarray:
    """``rank[i]`` = position of node ``i`` in descending score order.

    Stable ties (``kind="stable"``), 0 = most anomalous.  The single
    definition of ranking semantics shared by the detector, the attack
    campaign's rank-shift bookkeeping and the benchmarks — a divergence in
    tie-breaking between those would silently change reported rank shifts.
    ``order`` may supply an already-computed descending argsort of
    ``scores`` (the detector caches one) to skip the sort.
    """
    if order is None:
        order = np.argsort(-np.asarray(scores), kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(order))
    return ranks


def rank_nodes(scores: np.ndarray, nodes) -> np.ndarray:
    """``rank_positions(scores)[nodes]``, by counting instead of sorting.

    Node ``i`` ranks behind every strictly higher score and every equal
    score at a lower index, and NaN scores rank behind all others, as the
    stable argsort puts them: O(n) per node, so O(n·|nodes|) against the
    sort's O(n log n) for callers that read a few ranks.
    """
    scores = np.asarray(scores)
    missing = np.isnan(scores)
    ranks = np.empty(len(nodes), dtype=np.intp)
    for k, i in enumerate(nodes):
        if missing[i]:
            ranks[k] = scores.size - np.count_nonzero(missing) + np.count_nonzero(
                missing[:i]
            )
        else:
            ranks[k] = np.count_nonzero(scores > scores[i]) + np.count_nonzero(
                scores[:i] == scores[i]
            )
    return ranks


def score_from_features(
    n_feature: np.ndarray, e_feature: np.ndarray, fit: PowerLawFit
) -> np.ndarray:
    """Eq. 3 scores given features and a fitted power law.

    Nodes with ``N < 1`` (isolated) receive score 0 — they have no egonet to
    deviate with and the paper's pre-processing keeps graphs singleton-free.
    """
    n_feature = np.asarray(n_feature, dtype=np.float64)
    e_feature = np.asarray(e_feature, dtype=np.float64)
    expected = fit.predict_e(n_feature)
    high = np.maximum(e_feature, expected)
    low = np.minimum(e_feature, expected)
    ratio = high / np.maximum(low, _EPS)
    distance = np.log(np.abs(e_feature - expected) + 1.0)
    scores = ratio * distance
    scores[n_feature < 1.0] = 0.0
    return scores


def tau_as(before: float, after: float) -> float:
    """τ_as = (S⁰_T − S^B_T) / S⁰_T, the paper's attack metric.

    ``before`` and ``after`` are a target set's summed Eq. 3 scores on the
    clean and the poisoned graph.  A set that scores 0 on the clean graph
    has nothing to lose, so its τ_as is 0.
    """
    if before <= 0.0:
        return 0.0
    return (before - after) / before
