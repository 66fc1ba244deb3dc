"""Ordinary least squares for the Egonet Density Power Law (Eq. 1–2).

OddBall fits ``ln E_i = β0 + β1 ln N_i`` across all nodes.  Both a numpy
implementation (detection/evaluation) and an autograd implementation
(inside the attack objective, where β must stay differentiable w.r.t. the
adjacency matrix) are provided.  The closed form of the 2×2 normal equations
is written out explicitly so the tensor version is a plain composition of
primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = [
    "PowerLawFit",
    "fit_points",
    "fit_power_law",
    "fit_power_law_tensor",
    "predict_log_e",
]

#: Tikhonov ridge keeping the 2×2 system invertible on degenerate inputs
#: (e.g. perfectly regular graphs where all ln N coincide).
DEFAULT_RIDGE = 1e-8


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted parameters of ``ln E = β0 + β1 ln N``."""

    beta0: float
    beta1: float

    def predict_e(self, n_feature: np.ndarray) -> np.ndarray:
        """Expected egonet edge count ``e^{β0} N^{β1}``."""
        n_feature = np.asarray(n_feature, dtype=np.float64)
        return np.exp(self.beta0) * np.power(np.maximum(n_feature, 1e-12), self.beta1)


def fit_points(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    mask: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ln N, ln E)`` of the nodes a power-law fit uses, for every estimator.

    ``mask`` defaults to ``N >= 1`` and ``E >= 1`` (an isolated node has no
    defined log); at least two nodes must remain.
    """
    n_feature = np.asarray(n_feature, dtype=np.float64)
    e_feature = np.asarray(e_feature, dtype=np.float64)
    if n_feature.shape != e_feature.shape or n_feature.ndim != 1:
        raise ValueError(
            f"features must be aligned 1-D arrays, got {n_feature.shape} and {e_feature.shape}"
        )
    if mask is None:
        mask = (n_feature >= 1.0) & (e_feature >= 1.0)
    else:
        mask = np.asarray(mask, dtype=bool)
    if mask.sum() < 2:
        raise ValueError("need at least two valid nodes to fit the power law")
    return np.log(n_feature[mask]), np.log(e_feature[mask])


def fit_power_law(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    mask: "np.ndarray | None" = None,
    ridge: float = DEFAULT_RIDGE,
) -> PowerLawFit:
    """Closed-form OLS of ``ln E`` on ``[1, ln N]`` (Eq. 2).

    Parameters
    ----------
    n_feature, e_feature:
        Per-node egonet features.
    mask:
        Optional boolean mask of the nodes included in the fit; defaults to
        :func:`fit_points`' rule.
    ridge:
        Diagonal loading of the normal equations.
    """
    x, y = fit_points(n_feature, e_feature, mask)
    count = float(len(x))
    sum_x = float(x.sum())
    sum_xx = float((x * x).sum())
    sum_y = float(y.sum())
    sum_xy = float((x * y).sum())
    det = (count + ridge) * (sum_xx + ridge) - sum_x * sum_x
    beta0 = ((sum_xx + ridge) * sum_y - sum_x * sum_xy) / det
    beta1 = ((count + ridge) * sum_xy - sum_x * sum_y) / det
    return PowerLawFit(beta0=beta0, beta1=beta1)


def fit_power_law_tensor(
    log_n: Tensor, log_e: Tensor, ridge: float = DEFAULT_RIDGE
) -> tuple[Tensor, Tensor]:
    """Differentiable OLS: β as a closed-form function of (ln N, ln E).

    This is the substitution of Eq. 2 into the attack objective (Eq. 5a):
    because β has a closed form, gradients flow from the surrogate loss all
    the way back to the adjacency matrix — the poisoning (bi-level) nature of
    the attack is captured exactly rather than by alternating optimisation.
    """
    count = float(log_n.size)
    sum_x = log_n.sum()
    sum_xx = (log_n * log_n).sum()
    sum_y = log_e.sum()
    sum_xy = (log_n * log_e).sum()
    det = (sum_xx + ridge) * (count + ridge) - sum_x * sum_x
    beta0 = ((sum_xx + ridge) * sum_y - sum_x * sum_xy) / det
    beta1 = (sum_xy * (count + ridge) - sum_x * sum_y) / det
    return beta0, beta1


def predict_log_e(beta0: Tensor, beta1: Tensor, log_n: Tensor) -> Tensor:
    """Differentiable regression prediction ``ρ = β0 + β1 ln N`` (Eq. 8b)."""
    return beta0 + beta1 * log_n
