"""Binary logistic regression on the autograd engine.

Used by the embedding analysis (Figs. 8/9) to quantify linear separability of
the penultimate features: the paper argues the attack "breaks the linear
separable decision boundary", which we measure as the drop in a linear
probe's accuracy/AUC instead of eyeballing a scatter plot.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.nn import Linear, Module
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor, no_grad
from repro.utils.rng import as_generator

__all__ = ["LogisticRegression"]


class LogisticRegression(Module):
    """L2-regularised binary logistic regression trained with Adam.

    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> x = rng.normal(size=(200, 2)); y = (x[:, 0] + x[:, 1] > 0).astype(int)
    >>> model = LogisticRegression(n_features=2, rng=0).fit(x, y)
    >>> bool((model.predict(x) == y).mean() > 0.9)
    True
    """

    def __init__(self, n_features: int, l2: float = 1e-4, lr: float = 0.05,
                 epochs: int = 300, rng=None):
        if l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {l2}")
        generator = as_generator(rng)
        self.linear = Linear(n_features, 1, rng=generator)
        self.l2 = l2
        self.lr = lr
        self.epochs = epochs
        self.loss_history_: list[float] = []

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(x).reshape(-1)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if features.ndim != 2 or len(features) != len(labels):
            raise ValueError("features must be 2-D and aligned with labels")
        x = Tensor(features)
        y = Tensor(labels)
        optimizer = Adam(self.parameters(), lr=self.lr, weight_decay=self.l2)
        self.loss_history_ = []
        for _ in range(self.epochs):
            optimizer.zero_grad()
            logits = self.forward(x)
            loss = F.binary_cross_entropy_with_logits(logits, y)
            loss.backward()
            optimizer.step()
            self.loss_history_.append(float(loss.data))
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(y = 1 | x)."""
        with no_grad():
            logits = self.forward(Tensor(np.asarray(features, dtype=np.float64)))
            return logits.sigmoid().data

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels at ``threshold``."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)
