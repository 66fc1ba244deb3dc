"""Egonet feature extraction (OddBall's N and E).

For node ``i`` with egonet ``ego_i`` (the induced subgraph on ``i`` and its
one-hop neighbours), the paper uses

* ``N_i = Σ_j A_ij`` — the number of one-hop neighbours, and
* ``E_i = N_i + ½ (A³)_ii`` — the number of edges inside ``ego_i``
  (the ``N_i`` spokes from the ego plus one edge per triangle through ``i``).

Both a plain-numpy version (for detection/evaluation) and an autograd
version (for the differentiable attack objective) are provided, sharing the
same formula so the attack optimises exactly what the detector measures.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.graph.graph import Graph
from repro.utils.validation import check_square

__all__ = [
    "egonet_features",
    "egonet_features_tensor",
    "egonet_features_bruteforce",
]


def egonet_features(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (N, E) for every node from a (possibly fractional) adjacency.

    Works on relaxed matrices too (entries in [0,1]) because ContinuousA
    evaluates the same formula on fractional graphs.
    """
    a = check_square(np.asarray(adjacency, dtype=np.float64), "adjacency")
    n_feature = a.sum(axis=1)
    triangles = ((a @ a) * a).sum(axis=1)  # = diag(A³) for symmetric A
    e_feature = n_feature + 0.5 * triangles
    return n_feature, e_feature


def egonet_features_tensor(adjacency: Tensor) -> tuple[Tensor, Tensor]:
    """Differentiable (N, E) from an adjacency :class:`Tensor` (Eq. 5b).

    ``diag(A³)`` is computed as the row-sums of ``(A @ A) ⊙ A`` — valid for
    symmetric ``A`` and cheaper than materialising ``A³``.
    """
    n_feature = adjacency.sum(axis=1)
    triangles = ((adjacency @ adjacency) * adjacency).sum(axis=1)
    e_feature = n_feature + 0.5 * triangles
    return n_feature, e_feature


def egonet_features_bruteforce(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation enumerating each egonet explicitly.

    O(n·d²); used by the tests as an oracle for the vectorised formula.
    """
    n = graph.number_of_nodes
    n_feature = np.zeros(n)
    e_feature = np.zeros(n)
    for node in range(n):
        ego = graph.egonet(node)
        n_feature[node] = float(ego.number_of_nodes - 1)
        e_feature[node] = float(ego.number_of_edges)
    return n_feature, e_feature
