"""Robust power-law estimators — the paper's countermeasures (Section VII).

OLS is sensitive to the feature points the attacker drags around, so the
defence re-estimates the regression line with

* **Huber regression** (Huber 1964): IRLS with the Huber ψ-function, which
  penalises large residuals linearly instead of quadratically; and
* **RANSAC** (Fischler & Bolles 1981): repeated minimal-sample fits keeping
  the largest consensus set, final refit on the inliers.

Both expose the same ``(beta0, beta1)`` contract as the OLS fit so
:class:`~repro.oddball.detector.OddBall` can swap estimators.
"""

from __future__ import annotations

import numpy as np

from repro.oddball.regression import PowerLawFit, fit_points, fit_power_law
from repro.utils.rng import as_generator

__all__ = ["ESTIMATORS", "check_estimator", "fit_huber", "fit_ransac", "fit_with_estimator"]

#: The power-law estimators OddBall fits with: OLS (the paper's target) and
#: the two Section VII countermeasures.
ESTIMATORS = ("ols", "huber", "ransac")


def _weighted_line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted least squares of y on [1, x]."""
    sw = w.sum()
    swx = (w * x).sum()
    swxx = (w * x * x).sum()
    swy = (w * y).sum()
    swxy = (w * x * y).sum()
    det = sw * swxx - swx * swx
    if abs(det) < 1e-12:
        return float(y.mean()), 0.0
    beta0 = (swxx * swy - swx * swxy) / det
    beta1 = (sw * swxy - swx * swy) / det
    return float(beta0), float(beta1)


def fit_huber(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    k: float = 1.345,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> PowerLawFit:
    """Huber M-estimation of the power law via IRLS.

    ``k`` is the Huber threshold in units of the residual scale (1.345 gives
    95% efficiency under Gaussian noise); the scale is re-estimated each
    iteration with the MAD.
    """
    if k <= 0:
        raise ValueError(f"Huber threshold k must be positive, got {k}")
    x, y = fit_points(n_feature, e_feature)
    beta0, beta1 = _weighted_line_fit(x, y, np.ones_like(x))
    for _ in range(max_iter):
        residuals = y - beta0 - beta1 * x
        scale = 1.4826 * np.median(np.abs(residuals - np.median(residuals)))
        scale = max(scale, 1e-9)
        standardized = np.abs(residuals) / scale
        weights = np.where(standardized <= k, 1.0, k / np.maximum(standardized, 1e-12))
        new_beta0, new_beta1 = _weighted_line_fit(x, y, weights)
        if abs(new_beta0 - beta0) < tol and abs(new_beta1 - beta1) < tol:
            beta0, beta1 = new_beta0, new_beta1
            break
        beta0, beta1 = new_beta0, new_beta1
    return PowerLawFit(beta0=beta0, beta1=beta1)


def fit_ransac(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    n_trials: int = 200,
    inlier_threshold: "float | None" = None,
    min_inliers: int = 2,
    rng=None,
) -> PowerLawFit:
    """RANSAC line fit in log-log space.

    Each trial fits a line through two random points and counts inliers
    within ``inlier_threshold`` (default: the MAD of OLS residuals); the
    consensus set of the best trial gets a final OLS refit.
    """
    generator = as_generator(rng)
    x, y = fit_points(n_feature, e_feature)
    n = len(x)
    if inlier_threshold is None:
        beta0, beta1 = _weighted_line_fit(x, y, np.ones_like(x))
        residuals = y - beta0 - beta1 * x
        inlier_threshold = max(1.4826 * np.median(np.abs(residuals)), 1e-6)

    best_mask: "np.ndarray | None" = None
    best_count = -1
    for _ in range(n_trials):
        i, j = generator.choice(n, size=2, replace=False)
        if abs(x[i] - x[j]) < 1e-12:
            continue
        slope = (y[j] - y[i]) / (x[j] - x[i])
        intercept = y[i] - slope * x[i]
        residuals = np.abs(y - intercept - slope * x)
        mask = residuals <= inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask

    if best_mask is None or best_count < min_inliers:
        # Degenerate geometry (e.g. all x identical): fall back to OLS.
        beta0, beta1 = _weighted_line_fit(x, y, np.ones_like(x))
        return PowerLawFit(beta0=beta0, beta1=beta1)
    beta0, beta1 = _weighted_line_fit(x[best_mask], y[best_mask], np.ones(best_count))
    return PowerLawFit(beta0=beta0, beta1=beta1)


def check_estimator(estimator: str) -> str:
    """``estimator`` lower-cased; ``ValueError`` unless it is in :data:`ESTIMATORS`."""
    name = estimator.lower()
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; use one of {ESTIMATORS}")
    return name


def fit_with_estimator(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    estimator: str = "ols",
    rng=None,
) -> PowerLawFit:
    """Dispatch to one of the :data:`ESTIMATORS`."""
    estimator = check_estimator(estimator)
    if estimator == "ols":
        return fit_power_law(n_feature, e_feature)
    if estimator == "huber":
        return fit_huber(n_feature, e_feature)
    return fit_ransac(n_feature, e_feature, rng=rng)
