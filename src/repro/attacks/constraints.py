"""Validity rules shared by the attack methods (Section V-A).

The paper's implementation notes for GradMaxSearch:

* **sign validity** — adding an edge (``A_ij = 0``) is only useful when the
  gradient is negative (increasing ``A_ij`` decreases the loss); deleting
  (``A_ij = 1``) requires a positive gradient;
* **no-repeat pool** — a pair modified once is never modified again;
* **no singletons** — no deletion may leave a node with degree 0.

The same guards are reused when materialising the flip sets of ContinuousA
and BinarizedAttack so that every poisoned graph is a valid simple graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "creates_singleton",
    "filter_valid_flips",
    "filter_valid_flips_engine",
]

Edge = tuple[int, int]


def creates_singleton(adjacency: np.ndarray, u: int, v: int) -> bool:
    """Whether flipping (u, v) on ``adjacency`` would isolate a node."""
    if adjacency[u, v] == 0.0:
        return False
    return bool(adjacency[u].sum() <= 1.0 or adjacency[v].sum() <= 1.0)


def filter_valid_flips(
    adjacency: np.ndarray,
    candidates: Iterable[Edge],
    limit: "int | None" = None,
    forbidden: "Sequence[Edge] | None" = None,
) -> list[Edge]:
    """Greedily keep candidate flips that stay valid as they are applied.

    Walks ``candidates`` in order, applying each flip to a scratch copy; a
    flip is skipped when it would recreate a pair already taken, touch the
    diagonal, or isolate a node.  Stops after ``limit`` accepted flips.
    """
    scratch = np.array(adjacency, dtype=np.float64, copy=True)
    taken: set[Edge] = {tuple(sorted(pair)) for pair in (forbidden or [])}
    accepted: list[Edge] = []
    for u, v in candidates:
        if limit is not None and len(accepted) >= limit:
            break
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair in taken:
            continue
        if creates_singleton(scratch, *pair):
            continue
        new_value = 1.0 - scratch[pair[0], pair[1]]
        scratch[pair[0], pair[1]] = scratch[pair[1], pair[0]] = new_value
        taken.add(pair)
        accepted.append(pair)
    return accepted


def filter_valid_flips_engine(
    engine,
    candidates: Iterable[Edge],
    limit: "int | None" = None,
    forbidden: "Sequence[Edge] | None" = None,
) -> list[Edge]:
    """:func:`filter_valid_flips` against a live surrogate engine.

    Same greedy semantics, but the scratch state is the engine's own graph
    plus the degree shifts of the flips accepted so far.  No accepted pair
    can come up again (``taken`` rejects repeats), so a pair's edge state
    is the engine's, and only degrees move within one pass.  This is how
    the sparse backend validates flip sets without a dense scratch copy —
    each probe is O(1) to O(log deg), and the engine is never mutated.
    """
    taken: set[Edge] = {tuple(sorted(pair)) for pair in (forbidden or [])}
    accepted: list[Edge] = []
    shift: dict[int, float] = {}
    for u, v in candidates:
        if limit is not None and len(accepted) >= limit:
            break
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair in taken:
            continue
        # `creates_singleton` semantics: deletions are unsafe when either
        # endpoint has degree <= 1 in the *current* (partially flipped) state.
        a, b = pair
        delta = -1.0 if engine.is_edge(a, b) else 1.0
        if delta < 0.0 and (
            engine.degree(a) + shift.get(a, 0.0) <= 1.0
            or engine.degree(b) + shift.get(b, 0.0) <= 1.0
        ):
            continue
        shift[a] = shift.get(a, 0.0) + delta
        shift[b] = shift.get(b, 0.0) + delta
        taken.add(pair)
        accepted.append(pair)
    return accepted
