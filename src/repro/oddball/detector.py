"""The OddBall detector — the paper's target GAD system (Section III).

Given a graph, :class:`OddBall` extracts egonet features, fits the Egonet
Density Power Law with a chosen estimator (OLS by default, Huber/RANSAC for
the robust countermeasure variants) and assigns each node the Eq. 3 anomaly
score.  Nodes exceeding a threshold (or in the top-k) are flagged anomalous.

:meth:`OddBall.analyze_features` is the one place features become scores:
every Eq. 3 score in the package, clean or poisoned, comes from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graph.graph import Graph
from repro.graph.sparse import egonet_features_sparse
from repro.oddball.regression import PowerLawFit
from repro.oddball.robust import check_estimator, fit_with_estimator
from repro.oddball.scores import score_from_features

__all__ = ["DetectionReport", "OddBall"]


@dataclass(frozen=True)
class DetectionReport:
    """Everything OddBall computed for one graph.

    The score ordering backing :meth:`top_k` and :meth:`rank_of` is computed
    lazily on first use and cached — callers that look up many ranks (the
    Fig. 5 case study walks every target at every budget) previously paid a
    fresh O(n log n) ``argsort`` per call.
    """

    scores: np.ndarray
    n_feature: np.ndarray
    e_feature: np.ndarray
    fit: PowerLawFit

    @property
    def _order(self) -> np.ndarray:
        """Node ids sorted by descending score (stable ties), cached."""
        cached = self.__dict__.get("_order_cache")
        if cached is None:
            cached = np.argsort(-self.scores, kind="stable")
            cached.flags.writeable = False
            object.__setattr__(self, "_order_cache", cached)
        return cached

    @property
    def _ranks(self) -> np.ndarray:
        """Inverse permutation of :attr:`_order` (node id -> rank), cached."""
        cached = self.__dict__.get("_ranks_cache")
        if cached is None:
            from repro.oddball.scores import rank_positions

            cached = rank_positions(self.scores, order=self._order)
            cached.flags.writeable = False
            object.__setattr__(self, "_ranks_cache", cached)
        return cached

    def top_k(self, k: int) -> np.ndarray:
        """Node ids of the k highest scores (descending, stable ties)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self._order[:k].copy()

    def rank_of(self, node: int) -> int:
        """Zero-based rank of ``node`` (0 = most anomalous)."""
        if not 0 <= node < len(self.scores):
            raise IndexError(
                f"node {node} out of range for {len(self.scores)} scored nodes"
            )
        return int(self._ranks[node])


class OddBall:
    """Regression-based egonet anomaly detector.

    Parameters
    ----------
    estimator:
        One of :data:`~repro.oddball.robust.ESTIMATORS`: ``"ols"`` (the
        paper's default target), ``"huber"`` or ``"ransac"`` (the Section VII
        countermeasures).
    rng:
        Seed/generator used only by the RANSAC estimator.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> graph = erdos_renyi(50, 0.2, rng=0)
    >>> report = OddBall().analyze(graph)
    >>> report.scores.shape
    (50,)
    """

    def __init__(self, estimator: str = "ols", rng=None):
        self.estimator = check_estimator(estimator)
        self.rng = rng

    def analyze(self, graph: "Graph | np.ndarray | sparse.spmatrix") -> DetectionReport:
        """Score every node of ``graph``: a Graph, a dense adjacency or a CSR.

        The input is validated by :func:`~repro.graph.sparse.to_sparse` and
        its features come from the sparse kernels, so large graphs never
        densify.
        """
        return self.analyze_features(*egonet_features_sparse(graph))

    def analyze_features(
        self, n_feature: np.ndarray, e_feature: np.ndarray
    ) -> DetectionReport:
        """Fit the power law to egonet features ``(N, E)`` and score every node."""
        fit = fit_with_estimator(n_feature, e_feature, estimator=self.estimator, rng=self.rng)
        scores = score_from_features(n_feature, e_feature, fit)
        return DetectionReport(scores=scores, n_feature=n_feature, e_feature=e_feature, fit=fit)

    def scores(self, graph: "Graph | np.ndarray | sparse.spmatrix") -> np.ndarray:
        """Shorthand for ``analyze(graph).scores``."""
        return self.analyze(graph).scores

    def target_score_sum(self, graph: "Graph | np.ndarray | sparse.spmatrix", targets) -> float:
        """Σ of Eq. 3 scores over a target set — the attack's evaluation metric."""
        scores = self.scores(graph)
        targets = np.asarray(list(targets), dtype=np.intp)
        return float(scores[targets].sum())

    def label_anomalies(
        self,
        graph: "Graph | np.ndarray | sparse.spmatrix",
        fraction: "float | None" = None,
        threshold: "float | None" = None,
    ) -> np.ndarray:
        """Binary anomaly labels, by top-``fraction`` or absolute ``threshold``.

        This is the pre-processing step of the transfer attack (Section
        VI-B-1): OddBall scores become the supervision for GAL/ReFeX.
        """
        if (fraction is None) == (threshold is None):
            raise ValueError("provide exactly one of fraction or threshold")
        scores = self.scores(graph)
        labels = np.zeros(len(scores), dtype=np.int64)
        if fraction is not None:
            if not 0.0 < fraction < 1.0:
                raise ValueError(f"fraction must be in (0, 1), got {fraction}")
            k = max(int(round(fraction * len(scores))), 1)
            labels[np.argsort(-scores, kind="stable")[:k]] = 1
        else:
            labels[scores > threshold] = 1
        return labels
