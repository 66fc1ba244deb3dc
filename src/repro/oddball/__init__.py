"""OddBall: the target GAD system, its surrogate objective and robust variants."""

from repro.oddball.defense import purified_scores, svd_purify
from repro.oddball.detector import DetectionReport, OddBall
from repro.oddball.regression import (
    DEFAULT_RIDGE,
    PowerLawFit,
    fit_power_law,
    fit_power_law_tensor,
)
from repro.oddball.robust import ESTIMATORS, fit_huber, fit_ransac, fit_with_estimator
from repro.oddball.scores import score_from_features, tau_as
from repro.oddball.surrogate import (
    SparseSurrogateEngine,
    SurrogateEngine,
    adjacency_gradient,
    feature_gradients,
    log_features,
    surrogate_loss,
    surrogate_loss_from_features,
    surrogate_loss_numpy,
    target_residuals,
)

__all__ = [
    "DEFAULT_RIDGE",
    "DetectionReport",
    "ESTIMATORS",
    "OddBall",
    "PowerLawFit",
    "SparseSurrogateEngine",
    "SurrogateEngine",
    "adjacency_gradient",
    "feature_gradients",
    "fit_huber",
    "fit_power_law",
    "fit_power_law_tensor",
    "fit_ransac",
    "fit_with_estimator",
    "log_features",
    "purified_scores",
    "score_from_features",
    "svd_purify",
    "surrogate_loss",
    "surrogate_loss_from_features",
    "surrogate_loss_numpy",
    "target_residuals",
    "tau_as",
]
