"""Graph-purification defence: low-rank (SVD) approximation.

Section II of the paper points at Entezari et al. (WSDM 2020), "All you
need is low (rank)": structural poisoning tends to add high-frequency
perturbations, so truncating the adjacency spectrum and re-binarising can
scrub part of the poison before detection.  The paper lists this family of
defences but does not evaluate it against BinarizedAttack — this module
implements it as a reproduction extension so the defence benches can
compare it with the Huber/RANSAC estimators of Section VII.
"""

from __future__ import annotations

import numpy as np

from repro.graph.features import egonet_features
from repro.oddball.detector import OddBall
from repro.utils.validation import check_symmetric

__all__ = ["svd_purify", "purified_scores"]


def svd_purify(adjacency: np.ndarray, rank: int, threshold: float = 0.5) -> np.ndarray:
    """Rank-``rank`` spectral truncation of the adjacency, re-binarised.

    Steps: eigendecompose the (symmetric) adjacency, keep the ``rank``
    largest-magnitude eigenvalues, rebuild, then threshold entries at
    ``threshold`` to recover a valid simple graph (symmetric, binary, zero
    diagonal).

    Parameters
    ----------
    adjacency:
        Symmetric binary adjacency matrix (possibly poisoned).
    rank:
        Number of spectral components kept; Entezari et al. use small ranks
        (5–50) — poison concentrates in the discarded tail.
    threshold:
        Re-binarisation cutoff on the reconstructed entries.
    """
    adjacency = check_symmetric(np.asarray(adjacency, dtype=np.float64), "adjacency")
    n = adjacency.shape[0]
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    eigenvalues, eigenvectors = np.linalg.eigh(adjacency)
    keep = np.argsort(-np.abs(eigenvalues))[:rank]
    reconstructed = (
        eigenvectors[:, keep] * eigenvalues[keep][None, :]
    ) @ eigenvectors[:, keep].T
    purified = (reconstructed >= threshold).astype(np.float64)
    purified = np.maximum(purified, purified.T)  # exact symmetry after thresholding
    np.fill_diagonal(purified, 0.0)
    return purified


def purified_scores(adjacency: np.ndarray, rank: int, threshold: float = 0.5) -> np.ndarray:
    """OddBall Eq. 3 scores computed on the SVD-purified graph.

    Nodes isolated by the purification receive score 0 (consistent with
    :func:`repro.oddball.scores.score_from_features`).
    """
    purified = svd_purify(adjacency, rank=rank, threshold=threshold)
    try:
        return OddBall().analyze_features(*egonet_features(purified)).scores
    except ValueError as error:
        raise ValueError(
            f"rank-{rank} purification left fewer than two non-isolated nodes; "
            "increase the rank or lower the threshold"
        ) from error
