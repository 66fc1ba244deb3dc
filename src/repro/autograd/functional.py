"""Composite differentiable functions built from primitives.

These are the loss functions and activations used by the attack objective and
the GAD neural models (GAL's margin loss, the MLP classifier head).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import maximum, where
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "binary_cross_entropy_with_logits",
    "log_softmax",
    "margin_ranking_loss",
    "mse_loss",
    "nll_loss",
    "softmax",
]


def mse_loss(prediction, target, reduction: str = "mean") -> Tensor:
    """Mean (or summed) squared error."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    squared = (prediction - target) ** 2
    return _reduce(squared, reduction)


def log_softmax(logits, axis: int = -1) -> Tensor:
    """Numerically-stable ``log(softmax(x))`` along ``axis``."""
    logits = as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def nll_loss(log_probs, targets, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood for integer class ``targets``."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    if log_probs.ndim != 2:
        raise ValueError(f"expected (batch, classes) log-probs, got {log_probs.shape}")
    picked = log_probs[np.arange(len(targets)), targets]
    return _reduce(-picked, reduction)


def binary_cross_entropy_with_logits(logits, targets, reduction: str = "mean") -> Tensor:
    """Stable BCE on raw logits: ``max(x,0) − x·y + log(1 + exp(−|x|))``."""
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    zeros = Tensor(np.zeros_like(logits.data))
    loss = maximum(logits, zeros) - logits * targets + (-logits.abs()).exp().log1p()
    return _reduce(loss, reduction)


def margin_ranking_loss(positive, negative, margin, reduction: str = "mean") -> Tensor:
    """Hinge loss ``max(0, negative − positive + margin)``.

    This is the per-pair term of GAL's graph anomaly loss (Eq. 9), where
    ``positive``/``negative`` are similarity scores ``g(u, u⁺)``/``g(u, u⁻)``
    and ``margin`` is the class-distribution-aware margin ``Δ_y``.
    """
    positive, negative = as_tensor(positive), as_tensor(negative)
    margin = as_tensor(margin)
    zeros = Tensor(np.zeros(np.broadcast_shapes(positive.shape, negative.shape)))
    loss = maximum(zeros, negative - positive + margin)
    return _reduce(loss, reduction)


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction {reduction!r}; use 'mean', 'sum' or 'none'")


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with prob. ``p``, survivors scaled 1/(1−p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = (rng.random(shape) >= p).astype(np.float64)
    return keep / (1.0 - p)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Integer labels → one-hot float matrix (plain numpy, no gradient)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros((labels.size, num_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def pairwise_squared_distances(x: Tensor) -> Tensor:
    """All-pairs squared Euclidean distances of row vectors (differentiable)."""
    squared_norms = (x * x).sum(axis=1)
    gram = x @ x.T
    n = x.shape[0]
    return (
        squared_norms.reshape(n, 1) - 2.0 * gram + squared_norms.reshape(1, n)
    ).clamp(low=0.0)


def masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of ``values`` over the True entries of a constant boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    count = float(mask.sum())
    if count == 0:
        raise ValueError("masked_mean over an empty mask")
    selected = where(mask, values, Tensor(np.zeros_like(values.data)))
    return selected.sum() / count
