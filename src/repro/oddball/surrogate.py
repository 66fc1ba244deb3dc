"""The differentiable attack objective (Eq. 5a / 8a).

Pipeline, entirely inside the autograd graph:

    adjacency A ──> (N, E) ──> (ln N, ln E) ──> closed-form OLS β ──>
    residuals (E_t − e^{β0} N_t^{β1}) on the target set ──> Σ residual².

``ln`` of the features is guarded by clamping at ``floor`` (default 1.0):
legitimate non-singleton nodes always have ``N ≥ 1`` and ``E ≥ N``, so the
clamp only activates on transient singleton states the optimiser may visit.

Two evaluation paths are provided:

* the **dense autograd path** (:func:`surrogate_loss`,
  :func:`adjacency_gradient` without ``candidates``) differentiates through
  the full ``(A @ A) ⊙ A`` egonet computation — exact but O(n³) per call;
* the **feature-space path** (:func:`surrogate_loss_from_features`,
  :func:`feature_gradients`, :func:`adjacency_gradient` *with*
  ``candidates``) works from precomputed ``(N, E)`` features — e.g. those
  maintained by :class:`repro.graph.incremental.IncrementalEgonetFeatures` —
  and scatters ∂loss/∂A only onto the requested candidate pairs using the
  closed-form chain rule, at O(m + |C|·deg) per call.  The two paths agree
  to floating-point round-off (verified in the tests).

Surrogate engines
-----------------

:class:`SurrogateEngine` packages the two paths behind one stateful
interface the attacks drive their optimisation loops through.  Every
attack builds :class:`SparseSurrogateEngine`: it maintains ``(N, E)`` with
:class:`~repro.graph.incremental.IncrementalEgonetFeatures`, evaluates
each discrete iterate by *applying* its flip set (O(deg) per flip),
scoring from features (O(n)) and *rolling the flips back*, and produces
the straight-through gradient by scattering the closed-form per-pair
derivatives onto the candidate set only.  A whole BinarizedAttack run
runs on one engine instance at O(Σ deg + n + |C|) per PGD iteration, and
at O(|C|) for an iterate whose flip set repeats one of the last
:data:`ITERATE_MEMO_SIZE` evaluated at the same graph state.  The
objective ``(loss, ∂L/∂N, ∂L/∂E)`` is memoised per graph version, so
``current_loss``, ``candidate_gradient`` and ``pair_gradient`` at one
state share one forward pass (a loss-only evaluation is completed by its
backward half alone).  Per-pair caches follow candidate refreshes and
``restore`` by carrying what still holds instead of re-reading every pair.

:class:`DenseSurrogateEngine` replays the exact autograd op sequence the
attacks historically used — O(n³) per forward, O(n²) in memory.  It is
not exported: it is the test oracle, built directly by the parity suites
and injected through ``attack(..., engine=...)``.  The two engines agree
to floating-point round-off (loss values are bit-identical; gradients
differ only in summation order — see the engine-parity suite in
``tests/oddball/test_engine.py``).
"""

from __future__ import annotations

import abc
import time
from collections import OrderedDict
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse as _sparse

from repro import telemetry as _telemetry
from repro.autograd.ops import apply_pair_flips, binarize_ste, maximum
from repro.autograd.tensor import Tensor, as_tensor
from repro.graph.features import egonet_features_tensor
from repro.kernels import kernel_table, resolve_kernels, validate_kernels
from repro.oddball.regression import DEFAULT_RIDGE, fit_power_law_tensor

__all__ = [
    "EngineSpec",
    "SparseSurrogateEngine",
    "SurrogateEngine",
    "adjacency_gradient",
    "feature_gradients",
    "log_features",
    "surrogate_loss",
    "surrogate_loss_from_features",
    "surrogate_loss_numpy",
    "target_residuals",
]

#: Evaluated BinarizedAttack iterates a sparse engine remembers (an LRU of
#: ``(loss, pair gradient)`` keyed on graph version and flip set).
ITERATE_MEMO_SIZE = 8


def log_features(adjacency: Tensor, floor: float = 1.0) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(N, E, ln N, ln E) from a (possibly relaxed) adjacency tensor."""
    if floor <= 0.0:
        raise ValueError(f"floor must be positive to keep logs finite, got {floor}")
    n_feature, e_feature = egonet_features_tensor(adjacency)
    floor_tensor_n = Tensor(np.full(n_feature.shape, floor))
    floor_tensor_e = Tensor(np.full(e_feature.shape, floor))
    log_n = maximum(n_feature, floor_tensor_n).log()
    log_e = maximum(e_feature, floor_tensor_e).log()
    return n_feature, e_feature, log_n, log_e


def target_residuals(
    adjacency: Tensor,
    targets: Sequence[int],
    floor: float = 1.0,
    ridge: float = DEFAULT_RIDGE,
) -> Tensor:
    """Vector of residuals ``E_t − e^{β0 + β1 ln N_t}`` over the target set."""
    targets = _validate_targets(targets, adjacency.shape[0])
    _, e_feature, log_n, log_e = log_features(adjacency, floor=floor)
    beta0, beta1 = fit_power_law_tensor(log_n, log_e, ridge=ridge)
    rho = beta0 + beta1 * log_n[targets]
    return e_feature[targets] - rho.exp()


def surrogate_loss(
    adjacency: Tensor,
    targets: Sequence[int],
    floor: float = 1.0,
    ridge: float = DEFAULT_RIDGE,
    weights: "Sequence[float] | None" = None,
) -> Tensor:
    """Scalar surrogate objective ``Σ_{t∈T} κ_t (E_t − e^{β0} N_t^{β1})²``.

    ``weights`` are the per-target importances κ of Section IV-B (the paper
    evaluates the equal-weight case κ ≡ 1, which is the default, and notes
    the extension to unequal weights — supported here).

    ``targets`` may be any iterable, including a one-shot generator: it is
    normalised to an index array once at entry and never consumed twice.
    """
    targets = _validate_targets(targets, adjacency.shape[0])
    residuals = target_residuals(adjacency, targets, floor=floor, ridge=ridge)
    squared = residuals * residuals
    if weights is not None:
        kappa = _validate_weights(weights, len(targets))
        squared = squared * Tensor(kappa)
    return squared.sum()


def surrogate_loss_numpy(
    adjacency: np.ndarray,
    targets: Sequence[int],
    weights: "Sequence[float] | None" = None,
    floor: float = 1.0,
    ridge: float = DEFAULT_RIDGE,
) -> float:
    """Non-differentiable evaluation of the surrogate (for bookkeeping).

    ``floor`` must match the floor the caller optimises with — the attacks
    plumb their own ``floor`` through so candidate solutions are compared on
    the same objective they were produced by.

    ``adjacency`` may be a scipy sparse matrix: it is evaluated natively
    through the sparse feature kernels (``np.asarray`` on a sparse matrix
    would silently wrap it in a 0-d object array instead of densifying,
    which used to crash deep inside the tensor pipeline).
    """
    if _sparse.issparse(adjacency):
        from repro.graph.sparse import egonet_features_sparse

        n_feature, e_feature = egonet_features_sparse(adjacency)
        return surrogate_loss_from_features(
            n_feature, e_feature, targets, floor=floor, ridge=ridge, weights=weights
        )
    tensor = as_tensor(np.asarray(adjacency, dtype=np.float64))
    return float(
        surrogate_loss(tensor, targets, floor=floor, ridge=ridge, weights=weights).data
    )


def surrogate_loss_from_features(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    targets: Sequence[int],
    floor: float = 1.0,
    ridge: float = DEFAULT_RIDGE,
    weights: "Sequence[float] | None" = None,
) -> float:
    """Surrogate loss from precomputed egonet features, in O(n).

    Mirrors the tensor pipeline operation-for-operation so that, fed the
    exact integer-valued features maintained by the incremental engine, it
    returns bit-identical losses to :func:`surrogate_loss_numpy` on the
    materialised graph.
    """
    targets = _validate_targets(targets, np.shape(n_feature)[0])
    loss, _, _ = _loss_and_gradients(
        n_feature, e_feature, targets, floor, ridge, weights, gradients=False
    )
    return loss


def feature_gradients(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    targets: Sequence[int],
    floor: float = 1.0,
    ridge: float = DEFAULT_RIDGE,
    weights: "Sequence[float] | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(∂L/∂N, ∂L/∂E)`` of the surrogate loss, in O(n).

    Differentiates the whole pipeline — log clamp, closed-form OLS β,
    residuals — with the same tie-splitting convention as the autograd
    ``maximum`` (gradient halves exactly at the clamp floor), so the result
    matches the autograd path to round-off.
    """
    targets = _validate_targets(targets, np.shape(n_feature)[0])
    _, d_n, d_e = _loss_and_gradients(
        n_feature, e_feature, targets, floor, ridge, weights
    )
    return d_n, d_e


def _loss_and_gradients(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    targets: np.ndarray,
    floor: float,
    ridge: float,
    weights: "Sequence[float] | None",
    gradients: bool = True,
) -> "tuple[float, np.ndarray | None, np.ndarray | None]":
    """``(loss, ∂L/∂N, ∂L/∂E)`` from one log/clamp/OLS pass.

    The single numpy copy of the feature-space objective behind
    :func:`surrogate_loss_from_features` and :func:`feature_gradients`:
    :func:`_forward` followed by :func:`_backward`.  Engines that need
    both per step call it once.  With ``gradients=False`` the two
    gradients are ``None`` and only the loss is computed.  ``targets``
    must already be a :func:`_validate_targets` array: the public
    wrappers validate theirs, the engines hand over the array their
    ``__init__``/``retarget`` validated.
    """
    forward = _forward(n_feature, e_feature, targets, floor, ridge, weights)
    if not gradients:
        return forward.loss, None, None
    return (forward.loss, *_backward(forward))


class _Forward(NamedTuple):
    """The objective's forward half: the loss and what :func:`_backward` reads."""

    loss: float
    floor: float
    targets: np.ndarray
    kappa: "np.ndarray | None"
    n_feature: np.ndarray
    e_feature: np.ndarray
    clamped_n: np.ndarray
    clamped_e: np.ndarray
    x: np.ndarray  # log of the clamped N
    y: np.ndarray  # log of the clamped E
    fit: "_OLSFit"
    exp_rho: np.ndarray
    residuals: np.ndarray


def _forward(
    n_feature: np.ndarray,
    e_feature: np.ndarray,
    targets: np.ndarray,
    floor: float,
    ridge: float,
    weights: "Sequence[float] | None",
) -> _Forward:
    """Log-clamp, fit and score (``targets`` already validated): the loss."""
    if floor <= 0.0:
        raise ValueError(f"floor must be positive to keep logs finite, got {floor}")
    n_feature = np.asarray(n_feature, dtype=np.float64)
    e_feature = np.asarray(e_feature, dtype=np.float64)
    kappa = None if weights is None else _validate_weights(weights, len(targets))
    clamped_n = np.maximum(n_feature, floor)
    clamped_e = np.maximum(e_feature, floor)
    x = np.log(clamped_n)
    y = np.log(clamped_e)

    fit = _fit_power_law_numpy(x, y, ridge)
    rho = fit.beta0 + fit.beta1 * x[targets]
    exp_rho = np.exp(rho)
    residuals = e_feature[targets] - exp_rho
    squared = residuals * residuals
    if kappa is not None:
        squared = squared * kappa
    return _Forward(
        loss=float(squared.sum()), floor=floor, targets=targets, kappa=kappa,
        n_feature=n_feature, e_feature=e_feature,
        clamped_n=clamped_n, clamped_e=clamped_e, x=x, y=y, fit=fit,
        exp_rho=exp_rho, residuals=residuals,
    )


def _backward(forward: _Forward) -> "tuple[np.ndarray, np.ndarray]":
    """``(∂L/∂N, ∂L/∂E)`` by the chain rule through a :func:`_forward` pass."""
    floor, targets, x, y = forward.floor, forward.targets, forward.x, forward.y
    fit, exp_rho = forward.fit, forward.exp_rho
    sum_x, sum_xy, sum_y = fit.sum_x, fit.sum_xy, fit.sum_y
    a_term, c_term, det = fit.a_term, fit.c_term, fit.det
    num0, num1 = fit.num0, fit.num1
    beta1 = fit.beta1
    n = x.shape[0]
    kappa = forward.kappa
    if kappa is None:
        kappa = np.ones(len(targets))

    d_residual = 2.0 * kappa * forward.residuals
    d_rho = -d_residual * exp_rho
    d_beta0 = d_rho.sum()
    d_beta1 = (d_rho * x[targets]).sum()

    # β is a quotient of the feature sums; det depends on Sx and Sxx.
    det_sq = det * det
    d_sum_y = d_beta0 * (a_term / det) + d_beta1 * (-sum_x / det)
    d_sum_xy = d_beta0 * (-sum_x / det) + d_beta1 * (c_term / det)
    d_sum_x = (
        d_beta0 * (-sum_xy * det + 2.0 * sum_x * num0) / det_sq
        + d_beta1 * (-sum_y * det + 2.0 * sum_x * num1) / det_sq
    )
    d_sum_xx = (
        d_beta0 * (sum_y * det - num0 * c_term) / det_sq
        + d_beta1 * (-num1 * c_term) / det_sq
    )

    d_x = np.full(n, d_sum_x) + 2.0 * x * d_sum_xx + y * d_sum_xy
    d_y = np.full(n, d_sum_y) + x * d_sum_xy
    d_x[targets] += d_rho * beta1

    def clamp_chain(feature: np.ndarray, clamped: np.ndarray) -> np.ndarray:
        """∂(log max(f, floor))/∂f with the autograd tie-split at the floor."""
        wins = (feature > floor).astype(np.float64)
        tie = (feature == floor).astype(np.float64) * 0.5
        return (wins + tie) / clamped

    d_n = d_x * clamp_chain(forward.n_feature, forward.clamped_n)
    d_e = d_y * clamp_chain(forward.e_feature, forward.clamped_e)
    d_e[targets] += d_residual
    return d_n, d_e


def adjacency_gradient(
    adjacency,
    targets: Sequence[int],
    floor: float = 1.0,
    weights: "Sequence[float] | None" = None,
    candidates=None,
    features: "tuple[np.ndarray, np.ndarray] | None" = None,
    ridge: float = DEFAULT_RIDGE,
) -> np.ndarray:
    """∂(surrogate loss)/∂A — dense matrix, or scattered onto candidates.

    Without ``candidates`` this evaluates the full differentiable pipeline
    at the *discrete* current graph and returns a dense, symmetrised
    gradient matrix with zeroed diagonal, as the seed implementation did.

    With ``candidates`` — a :class:`repro.attacks.candidates.CandidateSet`
    or a ``(rows, cols)`` pair of canonical index arrays — the gradient is
    computed sparsely: the closed-form per-feature gradients are scattered
    only onto the requested pairs via

        ``g_{uv} = ∂L/∂N_u + ∂L/∂N_v + (∂L/∂E_u + ∂L/∂E_v)(1 + c_{uv})
        + Σ_{w ∈ Γ(u) ∩ Γ(v)} ∂L/∂E_w``

    (``c_{uv}`` = common-neighbour count), returning a 1-D vector aligned
    with the candidate pairs that equals the dense matrix's entries at those
    positions.  ``adjacency`` may then be a scipy sparse matrix, and
    ``features`` may supply precomputed ``(N, E)`` (e.g. from the
    incremental engine) to skip the O(m) feature pass.
    """
    if candidates is None:
        tensor = Tensor(np.asarray(adjacency, dtype=np.float64), requires_grad=True)
        loss = surrogate_loss(tensor, targets, floor=floor, weights=weights, ridge=ridge)
        loss.backward()
        grad = tensor.grad
        assert grad is not None
        symmetric = grad + grad.T
        np.fill_diagonal(symmetric, 0.0)
        return symmetric

    from repro.graph.sparse import egonet_features_sparse, to_sparse

    rows, cols = _candidate_arrays(candidates)
    csr = to_sparse(adjacency)
    if features is None:
        n_feature, e_feature = egonet_features_sparse(csr)
    else:
        n_feature, e_feature = features
    d_n, d_e = feature_gradients(
        n_feature, e_feature, targets, floor=floor, ridge=ridge, weights=weights
    )
    return _scatter_pair_gradient(csr, d_n, d_e, rows, cols)


def _candidate_arrays(candidates) -> tuple[np.ndarray, np.ndarray]:
    """Normalise a CandidateSet-like object or (rows, cols) pair."""
    if hasattr(candidates, "rows") and hasattr(candidates, "cols"):
        rows, cols = candidates.rows, candidates.cols
    else:
        rows, cols = candidates
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError(
            f"candidate rows/cols must be aligned 1-D arrays, got {rows.shape}, {cols.shape}"
        )
    if rows.size and (rows.min() < 0 or np.any(rows >= cols)):
        raise ValueError("candidate pairs must be canonical (0 <= u < v)")
    return rows, cols


def _scatter_pair_gradient(
    csr,
    d_n: np.ndarray,
    d_e: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    delta: "Sequence[tuple[int, int, float]]" = (),
) -> np.ndarray:
    """Evaluate the pair gradient at each candidate, grouping by hub endpoint.

    The pull-form parity oracle of the compiled ``scatter_gradient``
    kernel.  Pairs are grouped by their more-frequent endpoint
    (:func:`_group_pairs`).  The dense hub rows are stacked as the columns
    of n×b blocks, ``b = max(1, (|C| + n) // n)``, so a block never holds
    more floats than the candidate arrays plus one n-vector.  Each block
    costs two O(m·b) sparse multi-vector products (``csr @ block`` and
    ``csr @ (block · d_e)``): the flops of two O(m) mat-vecs per hub, in
    ⌈hubs / b⌉ Python steps instead of one per hub.  scipy accumulates
    each column of a multi-vector product in the order of the single
    mat-vec, so the result is bit-identical to the per-hub form.  (The
    compiled kernel walks only the partners' rows or the hub's two-hop
    ball instead.)

    ``delta`` is an optional overlay of symmetric perturbations: each
    ``(u, v, d)`` entry means the evaluated adjacency is ``csr`` with
    ``A[u, v] = A[v, u] = csr[u, v] + d``.  The sparse engine uses it to
    evaluate the gradient at a transiently-flipped graph without rebuilding
    the CSR — the overlay is folded into the hub rows and product results
    in O(|delta|·b) extra work per block.
    """
    gradient = d_n[rows] + d_n[cols] + d_e[rows] + d_e[cols]
    if rows.size == 0:
        return gradient
    n = csr.shape[0]
    groups = _group_pairs(rows, cols, n)
    starts = np.flatnonzero(np.r_[True, np.diff(groups.hubs) != 0])
    hubs = groups.hubs[starts]
    # Position in ``hubs`` of each grouped pair's hub.
    hub_index = np.repeat(np.arange(hubs.size), np.diff(np.r_[starts, rows.size]))
    width = max(1, (rows.size + n) // n)
    for first in range(0, hubs.size, width):
        block_hubs = hubs[first:first + width]
        columns = np.arange(block_hubs.size)
        # Gather the hubs' CSR rows into the block's columns.
        lo = csr.indptr[block_hubs]
        lengths = csr.indptr[block_hubs + 1] - lo
        entries = np.arange(lengths.sum()) + np.repeat(
            lo - (np.cumsum(lengths) - lengths), lengths
        )
        block = np.zeros((n, block_hubs.size))
        block[csr.indices[entries], np.repeat(columns, lengths)] = csr.data[entries]
        column_of = dict(zip(block_hubs.tolist(), columns.tolist()))
        for u, v, d in delta:
            if u in column_of:
                block[v, column_of[u]] += d
            if v in column_of:
                block[u, column_of[v]] += d
        common_counts = csr @ block
        common_weighted = csr @ (block * d_e[:, None])
        # Fold the Δ part of (csr + Δ) @ X into the product results:
        # (Δ X)[u] = d·X[v] and (Δ X)[v] = d·X[u] for each overlay entry.
        for u, v, d in delta:
            common_counts[u] += d * block[v]
            common_counts[v] += d * block[u]
            common_weighted[u] += d * block[v] * d_e[v]
            common_weighted[v] += d * block[u] * d_e[u]
        pair_lo = starts[first]
        pair_hi = starts[first + width] if first + width < hubs.size else rows.size
        partners = groups.partners[pair_lo:pair_hi]
        column = hub_index[pair_lo:pair_hi] - first
        gradient[groups.order[pair_lo:pair_hi]] += (
            (d_e[groups.hubs[pair_lo:pair_hi]] + d_e[partners])
            * common_counts[partners, column]
            + common_weighted[partners, column]
        )
    return gradient


class _PairGroups(NamedTuple):
    """Canonical pairs sorted into groups that share a hub endpoint."""

    rows: np.ndarray  # the pairs, in the caller's order
    cols: np.ndarray
    order: np.ndarray  # stable permutation listing the pairs hub by hub
    hubs: np.ndarray  # hub of each pair, in grouped order
    partners: np.ndarray  # other endpoint of each pair, in grouped order


def _group_pairs(rows: np.ndarray, cols: np.ndarray, n: int) -> _PairGroups:
    """Group pairs by hub: the endpoint that occurs in more pairs (row on ties).

    One stable sort groups the pairs, so a scatter walks the group
    boundaries at O(|C| log |C|) instead of re-scanning all |C| pairs once
    per hub.  Both gradient-scatter backends use this grouping; the sparse
    engine computes it once per candidate set.
    """
    occurrences = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    by_row = occurrences[rows] >= occurrences[cols]
    order = np.argsort(np.where(by_row, rows, cols), kind="stable")
    rows_g, cols_g, by_row = rows[order], cols[order], by_row[order]
    return _PairGroups(
        rows=rows,
        cols=cols,
        order=order,
        hubs=np.where(by_row, rows_g, cols_g),
        partners=np.where(by_row, cols_g, rows_g),
    )


class _OLSFit(NamedTuple):
    """Closed-form ridge OLS with the intermediates the chain rule needs."""

    beta0: float
    beta1: float
    sum_x: float
    sum_xx: float
    sum_y: float
    sum_xy: float
    a_term: float  # sum_xx + ridge
    c_term: float  # count + ridge
    det: float
    num0: float  # beta0 numerator
    num1: float  # beta1 numerator


def _fit_power_law_numpy(log_n: np.ndarray, log_e: np.ndarray, ridge: float) -> _OLSFit:
    """Numpy mirror of :func:`fit_power_law_tensor` (same operation order).

    This is the single numpy copy of the closed-form fit: the feature-space
    loss and gradients (:func:`_loss_and_gradients`) consume it, so the bit-for-bit
    agreement with the autograd path has exactly two expressions to keep in
    sync (this one and ``fit_power_law_tensor``), not three.
    """
    count = float(log_n.size)
    sum_x = log_n.sum()
    sum_xx = (log_n * log_n).sum()
    sum_y = log_e.sum()
    sum_xy = (log_n * log_e).sum()
    a_term = sum_xx + ridge
    c_term = count + ridge
    det = a_term * c_term - sum_x * sum_x
    num0 = a_term * sum_y - sum_x * sum_xy
    num1 = sum_xy * c_term - sum_x * sum_y
    return _OLSFit(
        beta0=num0 / det,
        beta1=num1 / det,
        sum_x=sum_x,
        sum_xx=sum_xx,
        sum_y=sum_y,
        sum_xy=sum_xy,
        a_term=a_term,
        c_term=c_term,
        det=det,
        num0=num0,
        num1=num1,
    )


def _validate_weights(weights: Sequence[float], n_targets: int) -> np.ndarray:
    kappa = np.asarray(list(weights), dtype=np.float64)
    if kappa.shape != (n_targets,):
        raise ValueError(
            f"weights must align with targets ({n_targets}), got shape {kappa.shape}"
        )
    if (kappa < 0).any():
        raise ValueError("target weights must be non-negative")
    return kappa


def _validate_targets(targets: Sequence[int], n: int) -> np.ndarray:
    targets = np.asarray(list(targets), dtype=np.intp)
    if targets.size == 0:
        raise ValueError("target set must not be empty")
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError(f"target ids must lie in [0, {n}), got range "
                         f"[{targets.min()}, {targets.max()}]")
    if len(np.unique(targets)) != len(targets):
        raise ValueError("target ids must be unique")
    return targets


# --------------------------------------------------------------------- #
# Surrogate engines
# --------------------------------------------------------------------- #


class EngineSpec(NamedTuple):
    """Picklable handoff of one validated graph to a worker process.

    The parallel campaign executor captures its graph once as a spec and
    ships it to every worker; each worker materialises it with
    :meth:`to_graph` and builds its engine (:meth:`SurrogateEngine.from_spec`)
    and its campaign on that one matrix.  Build specs with
    :meth:`from_graph` or :meth:`from_store`: :meth:`to_graph` trusts the
    payload they captured and neither re-validates nor re-hashes it.

    Attributes
    ----------
    kind : str
        Graph payload encoding: ``"csr"`` (``(data, indices, indptr,
        shape)`` component tuple) or ``"store"`` (one
        :class:`~repro.store.GraphStore` directory path — the worker
        memory-maps the graph instead of receiving a multi-MB array
        payload, so N workers share one page-cached copy).
    payload : tuple
        The CSR component arrays (or the store path string).
    fingerprint : str
        The graph's content hash (:func:`repro.graph.sparse.content_hash`):
        a store's manifest value, or the hash taken at capture.  The
        rebuilt matrix carries it as its ``_repro_fingerprint`` token, so
        a worker names its checkpoints without hashing the graph, and the
        name equals the parent's.
    kernels : str
        The hot-kernel backend (``auto``/``numpy``/``compiled`` — see
        :mod:`repro.kernels`) the executor ships: its explicit choice, or
        the process default it was built under.  A worker applies it with
        :func:`~repro.kernels.set_default_kernels` before it builds its
        engine, so ``fork`` and ``spawn`` workers resolve alike.  ``auto``
        resolves against the worker's own host (both backends are
        bit-identical, so a heterogeneous fleet still agrees on results);
        an explicit ``"compiled"`` is enforced — a worker without the
        toolchain raises instead of silently degrading.

    Example
    -------
    >>> import pickle
    >>> from repro.graph import erdos_renyi
    >>> spec = EngineSpec.from_graph(erdos_renyi(30, 0.2, rng=0))
    >>> graph = pickle.loads(pickle.dumps(spec)).to_graph()
    >>> graph._repro_fingerprint == spec.fingerprint, graph._repro_validated
    (True, True)
    """

    kind: str
    payload: tuple
    fingerprint: str
    kernels: str = "auto"

    @classmethod
    def from_graph(cls, graph, *, kernels: str = "auto") -> "EngineSpec":
        """Capture a graph as a ``csr`` spec, validated and hashed here.

        ``graph`` is anything :func:`~repro.graph.sparse.to_sparse` takes;
        malformed adjacencies raise now, in the parent, not in every
        worker.  An already-validated CSR is captured without a copy, and
        one carrying a ``_repro_fingerprint`` token is not re-hashed.
        """
        from repro.graph.sparse import content_hash, to_sparse

        kernels = validate_kernels(kernels)
        csr = to_sparse(graph)
        fingerprint = getattr(csr, "_repro_fingerprint", None)
        if fingerprint is None:
            fingerprint = content_hash(csr)
        return cls(
            kind="csr",
            payload=(
                np.asarray(csr.data, dtype=np.float64),
                np.asarray(csr.indices),
                np.asarray(csr.indptr),
                csr.shape,
            ),
            fingerprint=fingerprint,
            kernels=kernels,
        )

    @classmethod
    def from_store(cls, store, *, kernels: str = "auto") -> "EngineSpec":
        """Capture a :class:`~repro.store.GraphStore` as a path-payload spec.

        The pickled spec is a few hundred bytes regardless of graph size;
        every worker that builds from it memory-maps the same store files
        (read-only) instead of unpickling its own CSR copy.
        """
        return cls(
            kind="store", payload=(str(store.path),),
            fingerprint=store.content_hash,
            kernels=validate_kernels(kernels),
        )

    def to_graph(self) -> "_sparse.csr_matrix":
        """The captured graph as a validated CSR named by :attr:`fingerprint`.

        A ``csr`` spec wraps its payload arrays and tags the matrix
        ``_repro_validated`` (so :func:`~repro.graph.sparse.to_sparse`
        passes it through) and ``_repro_fingerprint``; a ``store`` spec
        returns the store's memory-mapped CSR, which carries both tags.
        """
        if self.kind == "csr":
            data, indices, indptr, shape = self.payload
            matrix = _sparse.csr_matrix((data, indices, indptr), shape=shape)
            # validated (rows sorted) by from_graph, at capture
            matrix.has_sorted_indices = True
            matrix._repro_validated = True
            matrix._repro_fingerprint = self.fingerprint
            return matrix
        if self.kind == "store":
            from repro.store import GraphStore

            return GraphStore.open(self.payload[0]).csr()
        raise ValueError(f"unknown engine-spec payload kind {self.kind!r}")


class SurrogateEngine(abc.ABC):
    """Stateful surrogate evaluator the attacks drive their loops through.

    An engine owns one clean graph, one target set and one candidate-pair
    set, and answers every question the attacks' optimisation loops ask:

    * :meth:`current_loss` — the surrogate at the current graph;
    * :meth:`binarized_step` — BinarizedAttack's discrete forward +
      straight-through backward for one PGD iterate;
    * :meth:`relaxed_step` — ContinuousA's fractional forward/backward;
    * :meth:`candidate_gradient` — GradMaxSearch's per-pair gradient;
    * :meth:`push_flip` / :meth:`pop_flips` / :meth:`apply_flip` — transient
      (score-and-rollback) versus permanent graph mutation;
    * :meth:`score_flips` / :meth:`score_prefixes` — transient re-scoring of
      recorded flip sets, used by BinarizedAttack's read-out.

    One engine instance serves a whole attack run: BinarizedAttack's PGD
    rolls each iterate's flips back between steps instead of rebuilding
    adjacencies.  Construct through :meth:`create`, which builds the
    sparse engine, or in a worker process through :meth:`from_spec`,
    which builds it on the graph an :class:`EngineSpec` hands over.
    :attr:`backend` is a read-only label of the engine
    class (``"dense"`` or ``"sparse"``); :attr:`kernels` names the
    resolved kernel backend (``"numpy"`` or ``"compiled"``).
    """

    backend: str = "abstract"
    kernels: str

    def __init__(
        self,
        n: int,
        targets: Sequence[int],
        candidates=None,
        floor: float = 1.0,
        ridge: float = DEFAULT_RIDGE,
        weights: "Sequence[float] | None" = None,
    ):
        if floor <= 0.0:
            raise ValueError(f"floor must be positive to keep logs finite, got {floor}")
        self.n = int(n)
        self._targets = _validate_targets(targets, self.n)
        self.floor = float(floor)
        self.ridge = float(ridge)
        self._weights = weights
        #: The candidates last passed to :meth:`set_candidates` (the parent
        #: a refreshed set's lineage must name to carry the pair cache).
        self._candidates = None
        #: :meth:`_flip_log` when the pair cache last described the graph.
        self._cache_log: "list[tuple[int, int]]" = []
        self.set_candidates(candidates)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        graph,
        targets: Sequence[int],
        candidates=None,
        *,
        floor: float = 1.0,
        ridge: float = DEFAULT_RIDGE,
        weights: "Sequence[float] | None" = None,
    ) -> "SurrogateEngine":
        """Build the :class:`SparseSurrogateEngine` every attack runs on.

        ``graph`` may be a :class:`~repro.graph.graph.Graph`, dense array or
        scipy sparse matrix; ``candidates`` a
        :class:`~repro.attacks.candidates.CandidateSet`, a ``(rows, cols)``
        pair of canonical index arrays, or ``None`` for every upper-triangle
        pair.
        """
        return SparseSurrogateEngine(
            graph, targets, candidates, floor=floor, ridge=ridge, weights=weights
        )

    @classmethod
    def from_spec(
        cls,
        spec: "EngineSpec",
        targets: Sequence[int],
        candidates=None,
        graph=None,
    ) -> "SurrogateEngine":
        """Rebuild a :class:`SparseSurrogateEngine` from an :class:`EngineSpec`.

        This is the child-process half of the spec round-trip: a worker
        receives a pickled spec, builds its engine once, and serves every
        job of its shard from it.  The rebuilt engine is state-identical to
        one constructed directly from the spec's graph (losses bit-for-bit,
        same features — round-trip-tested).

        ``graph`` may pass the worker's ``spec.to_graph()`` result, so the
        engine and the worker's campaign share that one validated matrix.
        The engine runs the process-default kernels: the worker has
        applied ``spec.kernels`` as that default before it calls this.
        """
        return SparseSurrogateEngine(
            spec.to_graph() if graph is None else graph, targets, candidates
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def edge_values(self) -> np.ndarray:
        """Adjacency values at the candidate pairs, as of the last
        :meth:`set_candidates`, :meth:`retarget` or :meth:`restore`."""
        return self._edge_values.copy()

    @property
    def targets(self) -> np.ndarray:
        """The engine's current target node ids (copy)."""
        return self._targets.copy()

    @property
    def weights(self) -> "Sequence[float] | None":
        """Per-target κ importances (``None`` = the equal-weight case)."""
        return self._weights

    # ------------------------------------------------------------------ #
    # Reconfiguration (shared-engine / campaign support)
    # ------------------------------------------------------------------ #
    def set_candidates(self, candidates=None) -> None:
        """Repoint the engine at a new candidate-pair set.

        The graph state is untouched; only the decision variables change.
        ``candidates`` follows the constructor's convention (``None`` =
        every upper-triangle pair).  Afterwards the per-pair caches
        (``edge_values``, ``flip_direction``) describe the *current*
        graph, so this is also how adaptive candidate sets are threaded
        mid-attack.

        A set refreshed from the engine's current one (its
        :class:`~repro.attacks.candidates.Lineage` names that very object)
        carries the per-pair cache along the lineage.  Kept pairs flipped
        since the cache was built are toggled first; then the values and
        directions move with one compaction and one insert each, and only
        the admitted pairs are read off the graph.  A refresh thus costs
        O(admissions) lookups plus a few O(|C|) array moves.  Anything else
        (a fresh set, raw arrays, ``None``) carries nothing and reads every
        pair.  The hub grouping is recomputed either way: at |C| = 10k a
        regroup carried along the lineage still makes several O(|C|) passes
        and costs no less than a fresh :func:`_group_pairs`.
        """
        lineage = getattr(candidates, "lineage", None)
        if (
            lineage is None
            or self._candidates is None
            or lineage.parent() is not self._candidates
        ):
            lineage = None
        else:
            self._refresh_pair_cache()  # the parent's cache, made current
        if candidates is None:
            rows, cols = np.triu_indices(self.n, k=1)
            self.rows = rows.astype(np.intp)
            self.cols = cols.astype(np.intp)
        else:
            self.rows, self.cols = _candidate_arrays(candidates)
        if self.rows.size and self.cols.max() >= self.n:
            raise ValueError(f"candidate pair indices out of range [0, {self.n})")
        self._candidates = candidates
        if lineage is None:
            self._edge_values = (
                self._pair_values(self.rows, self.cols) if self.rows.size else np.empty(0)
            )
            #: per-pair ``1 − 2·A0`` — +1 on non-edges (add), −1 on edges (delete)
            self.flip_direction = 1.0 - 2.0 * self._edge_values
            self._cache_log = self._flip_log()
        else:
            admitted = lineage.admitted
            fresh = (
                self._pair_values(self.rows[admitted], self.cols[admitted])
                if admitted.size else np.empty(0)
            )
            self._edge_values = lineage.carry(self._edge_values, fresh)
            self.flip_direction = lineage.carry(self.flip_direction, 1.0 - 2.0 * fresh)
            _telemetry.count("candidates.carried", int(self.rows.size - admitted.size))
        self._on_state_reset()

    def retarget(
        self,
        targets: Sequence[int],
        candidates=None,
        *,
        floor: "float | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> None:
        """Reconfigure the engine for a new job on the SAME graph.

        This is the campaign primitive: one engine (one incremental feature
        state, one CSR cache) serves many ``(targets, budget)`` jobs —
        switching jobs costs O(|C| + n) bookkeeping (one pair lookup per
        candidate, and the hub grouping) instead of the O(n + m)
        feature/neighbour rebuild a fresh engine would pay.  The caller is
        responsible for restoring the graph itself (see :meth:`checkpoint` /
        :meth:`restore`) before retargeting.
        """
        self._targets = _validate_targets(targets, self.n)
        if floor is not None:
            if floor <= 0.0:
                raise ValueError(
                    f"floor must be positive to keep logs finite, got {floor}"
                )
            self.floor = float(floor)
        self._weights = weights
        self.set_candidates(candidates)

    def _refresh_pair_cache(self) -> None:
        """Make the cached per-pair values/directions describe the current graph.

        The cache was read when the flip log was ``_cache_log``.  A pair
        toggled an odd number of times since then has changed: its value
        (exactly 0.0 or 1.0) becomes ``1 − v`` and its direction changes
        sign, in place, bit for bit what a re-read returns.  Each such pair
        is found by binary search on the candidates' sorted keys.
        """
        from repro.graph.incremental import toggled_pairs

        log = self._flip_log()
        stale = toggled_pairs(self._cache_log, log)
        self._cache_log = log
        if not stale or not self.rows.size:
            return
        n = self.n
        keys = getattr(self._candidates, "keys", None)
        sorter = None
        if not isinstance(keys, np.ndarray):
            # Raw arrays (or every pair): canonical, but maybe not sorted.
            keys = self.rows * n + self.cols
            if np.any(keys[1:] < keys[:-1]):
                sorter = np.argsort(keys, kind="stable")
        wanted = np.array([u * n + v for u, v in stale], dtype=np.intp)
        found = np.searchsorted(keys, wanted, sorter=sorter)
        inside = found < keys.size
        found = found[inside] if sorter is None else sorter[found[inside]]
        changed = found[keys[found] == wanted[inside]]
        self._edge_values[changed] = 1.0 - self._edge_values[changed]
        self.flip_direction[changed] = -self.flip_direction[changed]

    def _on_state_reset(self) -> None:
        """Hook for backends to drop caches keyed on candidates/graph state."""

    @abc.abstractmethod
    def _flip_log(self) -> "list[tuple[int, int]]":
        """The canonical pairs flipped on the construction-time graph, in
        order: permanent flips, then pending transient ones."""

    # ------------------------------------------------------------------ #
    # Backend-specific primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _pair_values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Current adjacency values at the given canonical pairs."""

    @abc.abstractmethod
    def current_loss(self) -> float:
        """Surrogate loss of the current graph (matches
        :func:`surrogate_loss_numpy` on the materialised adjacency)."""

    @abc.abstractmethod
    def binarized_step(
        self, zdot_values: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """One BinarizedAttack iterate: ``(loss, ∂loss/∂Ż, flip mask)``.

        The forward pass evaluates the surrogate on the **discrete** graph
        obtained by flipping every candidate pair with ``Ż >= 0.5``; the
        gradient flows back to ``Ż`` through the straight-through estimator
        (identity inside the box).  Evaluated relative to the engine's
        construction-time graph — do not mix with :meth:`apply_flip`.
        """

    @abc.abstractmethod
    def relaxed_step(self, flips: np.ndarray) -> tuple[float, np.ndarray]:
        """One ContinuousA iterate: ``(loss, ∂loss/∂p)`` at flip fractions ``p``.

        The forward pass evaluates the surrogate on the *fractional* graph
        ``A + (1 − 2·A) ⊙ p`` over the candidate pairs, ``A`` being the
        current graph: ``p = 0`` is the current graph and ``p = 1`` flips a
        pair.  ``flips`` is aligned with the candidate pairs, as
        :meth:`binarized_step`'s ``Ż`` is.
        """

    @abc.abstractmethod
    def candidate_gradient(self) -> np.ndarray:
        """∂(surrogate)/∂A of the current graph, at the candidate pairs."""

    @abc.abstractmethod
    def pair_gradient(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """∂(surrogate)/∂A of the current graph at *arbitrary* canonical pairs.

        Unlike :meth:`candidate_gradient` the queried pairs need not belong
        to the engine's candidate set — this is the probe the
        ``adaptive_gradient`` strategy
        (:class:`~repro.attacks.candidates.AdaptiveCandidateSet`) uses to
        rank would-be admissions by predicted |∂L/∂A| before committing
        them as decision variables.
        """

    @abc.abstractmethod
    def degrees(self) -> np.ndarray:
        """Current per-node degree vector."""

    @abc.abstractmethod
    def is_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of the current graph."""

    @abc.abstractmethod
    def degree(self, u: int) -> float:
        """Current degree of node ``u``."""

    @abc.abstractmethod
    def push_flip(self, u: int, v: int) -> None:
        """Apply one transient flip (undone by :meth:`pop_flips`)."""

    @abc.abstractmethod
    def pop_flips(self, count: int) -> None:
        """Undo the last ``count`` transient flips exactly."""

    @abc.abstractmethod
    def apply_flip(self, u: int, v: int) -> None:
        """Permanently flip ``{u, v}`` (greedy attacks advance this way)."""

    @abc.abstractmethod
    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour ids of ``u`` in the current graph."""

    @abc.abstractmethod
    def node_features(self) -> tuple[np.ndarray, np.ndarray]:
        """Egonet features ``(N, E)`` of the current graph.

        The campaign layer scores jobs straight from these (Eq. 3 needs
        only ``(N, E)`` plus the refitted power law), so per-job anomaly
        scoring costs O(n) on the sparse backend instead of materialising a
        poisoned adjacency.
        """

    @abc.abstractmethod
    def checkpoint(self) -> int:
        """Opaque token for the current *permanent* graph state.

        Take one before handing the engine to an attack; pass it to
        :meth:`restore` afterwards to undo every permanent flip the attack
        applied.  Transient flips must be balanced (pushed and popped) by
        the attack itself.
        """

    @abc.abstractmethod
    def restore(self, token: int) -> None:
        """Undo every permanent flip applied after :meth:`checkpoint`.

        O(deg) per undone flip.  The candidate set is kept, and so are the
        caches keyed on it alone: the per-pair values are fixed up only
        where an undone flip changed them (O(|C|) array work, no pair
        lookup), equal bit for bit to a full re-read, so the engine is
        immediately reusable.  Transient flips still pending (an attack
        that died mid-probe) are rolled back first — restore always returns
        the engine to the exact checkpointed graph.
        """

    # ------------------------------------------------------------------ #
    # Shared transient scoring
    # ------------------------------------------------------------------ #
    def score_flips(self, flips: "Sequence[tuple[int, int]]") -> float:
        """Loss of the current graph with ``flips`` applied (then undone)."""
        count = 0
        for u, v in flips:
            self.push_flip(u, v)
            count += 1
        loss = self.current_loss()
        self.pop_flips(count)
        return loss

    def score_prefixes(self, flips: "Sequence[tuple[int, int]]") -> list[float]:
        """Loss after each prefix of ``flips`` (all undone on return)."""
        losses: list[float] = []
        count = 0
        for u, v in flips:
            self.push_flip(u, v)
            count += 1
            losses.append(self.current_loss())
        self.pop_flips(count)
        return losses


class DenseSurrogateEngine(SurrogateEngine):
    """Test oracle: the full dense autograd pipeline.

    Replays exactly the op sequence the attacks used before the sparse
    engine existed, so its losses, gradients and flip decisions are the
    historical behaviour.  O(n³) per forward, O(n²) memory.  No attack or
    campaign builds it: the parity suites construct it directly and inject
    it through ``attack(..., engine=...)``.
    """

    backend = "dense"

    def __init__(
        self,
        graph,
        targets: Sequence[int],
        candidates=None,
        *,
        floor: float = 1.0,
        ridge: float = DEFAULT_RIDGE,
        weights: "Sequence[float] | None" = None,
    ):
        from repro.graph.sparse import to_sparse

        # the dense reference engine is for small graphs and tests, so the
        # O(n²) copy of the validated graph is intentional; the no-densify
        # allowlist in tests/analysis/test_invariants.py excuses it
        adjacency = to_sparse(graph).toarray()
        self._adjacency = adjacency
        self._transient: list[tuple[int, int]] = []
        self._permanent: list[tuple[int, int]] = []
        #: The dense reference path has no compiled primitives: evaluation
        #: is always the autograd oracle.
        self.kernels = "numpy"
        super().__init__(
            adjacency.shape[0], targets, candidates,
            floor=floor, ridge=ridge, weights=weights,
        )

    def _pair_values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._adjacency[rows, cols]

    def current_loss(self) -> float:
        """Surrogate of the current dense graph (full O(n³) forward)."""
        return surrogate_loss_numpy(
            self._adjacency, self._targets, self._weights,
            floor=self.floor, ridge=self.ridge,
        )

    def binarized_step(
        self, zdot_values: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """One BinarizedAttack iterate via the full autograd pipeline."""
        zdot = Tensor(
            np.asarray(zdot_values, dtype=np.float64), requires_grad=True, name="zdot"
        )
        # Forward pass on the DISCRETE graph (Alg. 1 lines 5-8).
        z = binarize_ste(2.0 * zdot - 1.0)  # +1 => flip (this is −Z of Eq. 7)
        flip_indicator = (z + 1.0) * 0.5
        poisoned = apply_pair_flips(
            self._adjacency, flip_indicator, self.rows, self.cols,
            direction=self.flip_direction, base_values=self._edge_values,
        )
        adversarial = surrogate_loss(
            poisoned, self._targets,
            floor=self.floor, ridge=self.ridge, weights=self._weights,
        )
        adversarial.backward()
        gradient = zdot.grad
        assert gradient is not None
        return float(adversarial.data), gradient, flip_indicator.data > 0.5

    def relaxed_step(self, flips: np.ndarray) -> tuple[float, np.ndarray]:
        """ContinuousA iterate via the full autograd pipeline."""
        self._refresh_pair_cache()
        fractions = Tensor(
            np.asarray(flips, dtype=np.float64), requires_grad=True, name="flips"
        )
        matrix = apply_pair_flips(
            self._adjacency, fractions, self.rows, self.cols,
            direction=self.flip_direction, base_values=self._edge_values,
        )
        loss = surrogate_loss(
            matrix, self._targets,
            floor=self.floor, ridge=self.ridge, weights=self._weights,
        )
        loss.backward()
        gradient = fractions.grad
        assert gradient is not None
        return float(loss.data), gradient

    def candidate_gradient(self) -> np.ndarray:
        """Full autograd adjacency gradient, gathered at the candidate pairs."""
        gradient = adjacency_gradient(
            self._adjacency, self._targets,
            floor=self.floor, weights=self._weights, ridge=self.ridge,
        )
        return gradient[self.rows, self.cols]

    def pair_gradient(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Full autograd adjacency gradient, gathered at arbitrary pairs."""
        rows, cols = _candidate_arrays((rows, cols))
        gradient = adjacency_gradient(
            self._adjacency, self._targets,
            floor=self.floor, weights=self._weights, ridge=self.ridge,
        )
        return gradient[rows, cols]

    def degrees(self) -> np.ndarray:
        """Per-node degrees (one O(n²) row sum)."""
        return self._adjacency.sum(axis=1)

    def is_edge(self, u: int, v: int) -> bool:
        """O(1) dense membership probe."""
        return self._adjacency[u, v] != 0.0

    def degree(self, u: int) -> float:
        """Degree of ``u`` (one O(n) row sum)."""
        return float(self._adjacency[u].sum())

    def push_flip(self, u: int, v: int) -> None:
        """Toggle ``{u, v}`` transiently (O(1); undone by :meth:`pop_flips`)."""
        self._adjacency[u, v] = self._adjacency[v, u] = 1.0 - self._adjacency[u, v]
        self._transient.append((u, v))

    def pop_flips(self, count: int) -> None:
        """Undo the last ``count`` transient flips exactly (O(1) each)."""
        if count > len(self._transient):
            raise ValueError(
                f"cannot pop {count} flips, only {len(self._transient)} pushed"
            )
        for _ in range(count):
            u, v = self._transient.pop()
            self._adjacency[u, v] = self._adjacency[v, u] = 1.0 - self._adjacency[u, v]

    def apply_flip(self, u: int, v: int) -> None:
        """Toggle ``{u, v}`` permanently (logged for :meth:`restore`)."""
        if self._transient:
            raise RuntimeError("cannot apply a permanent flip with transient flips pending")
        self._adjacency[u, v] = self._adjacency[v, u] = 1.0 - self._adjacency[u, v]
        self._permanent.append((u, v))

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour ids of ``u`` in the current graph."""
        return np.flatnonzero(self._adjacency[int(u)]).astype(np.intp)

    def node_features(self) -> tuple[np.ndarray, np.ndarray]:
        """Egonet features ``(N, E)`` of the current graph (full recompute)."""
        from repro.graph.features import egonet_features

        return egonet_features(self._adjacency)

    def checkpoint(self) -> int:
        """Permanent-flip log length — the O(1) restore token."""
        return len(self._permanent)

    def restore(self, token: int) -> None:
        """Unwind permanent (and stray transient) flips back to ``token``."""
        if not 0 <= token <= len(self._permanent):
            raise ValueError(
                f"invalid checkpoint token {token}; {len(self._permanent)} "
                "permanent flips applied"
            )
        if self._transient:
            # an attack died mid-probe — unwind its transient flips first
            self.pop_flips(len(self._transient))
        while len(self._permanent) > token:
            u, v = self._permanent.pop()
            self._adjacency[u, v] = self._adjacency[v, u] = 1.0 - self._adjacency[u, v]
        self._refresh_pair_cache()
        _telemetry.count("candidates.carried", int(self.rows.size))

    def _flip_log(self) -> "list[tuple[int, int]]":
        return [
            (u, v) if u < v else (v, u) for u, v in self._permanent + self._transient
        ]


class SparseSurrogateEngine(SurrogateEngine):
    """Sparse-incremental backend: never materialises a dense matrix.

    Egonet features live in an
    :class:`~repro.graph.incremental.IncrementalEgonetFeatures` (exact
    integer maintenance, O(deg) per flip with apply → score → rollback);
    losses come from :func:`surrogate_loss_from_features` in O(n) and are
    bit-identical to the dense evaluation of the same graph; gradients are
    the closed-form :func:`feature_gradients` scattered onto the candidate
    pairs, with transient flip sets folded in as a Δ-overlay so the base
    CSR is built once per permanent state, not once per PGD iteration.
    """

    backend = "sparse"

    def __init__(
        self,
        graph,
        targets: Sequence[int],
        candidates=None,
        *,
        floor: float = 1.0,
        ridge: float = DEFAULT_RIDGE,
        weights: "Sequence[float] | None" = None,
    ):
        from repro.graph.incremental import IncrementalEgonetFeatures

        #: Hot-kernel backend ("numpy" or "compiled") for pair reads and the
        #: gradient scatter, resolved from the process default.
        self.kernels = resolve_kernels()
        self._kt = kernel_table() if self.kernels == "compiled" else None
        self._features = IncrementalEgonetFeatures(graph)
        #: ``(version, loss, forward pass, (∂L/∂N, ∂L/∂E))`` of the last
        #: objective evaluated: a loss-only entry keeps its forward pass
        #: and has no gradients, a full one the reverse.
        self._objective_memo: "tuple | None" = None
        super().__init__(
            self._features.n, targets, candidates,
            floor=floor, ridge=ridge, weights=weights,
        )

    def _pair_values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # Vectorised membership against the cached CSR plus the (tiny) net
        # overlay — a Python per-pair set lookup here was a measurable
        # per-job fixed cost at campaign scale (|C| ≈ n per retarget).
        if rows.size == 0:
            return np.empty(0, dtype=np.float64)
        tracer = _telemetry.active_tracer()
        start_ns = time.perf_counter_ns() if tracer is not None else 0
        base, delta = self._features.csr_with_delta()
        n = self.n
        pair_keys = rows * n + cols
        if self._kt is not None:
            # Compiled path: one binary search per pair inside the base
            # CSR's rows — no O(m) edge-key array build per call.
            values = self._kt.pair_values(base, rows, cols)
        else:
            # Row-major CSR keys are strictly increasing, so membership is
            # one C-level binary search instead of a hash-based isin.
            edge_keys = (
                np.repeat(np.arange(n, dtype=np.intp), np.diff(base.indptr)) * n
                + base.indices
            )
            positions = np.searchsorted(edge_keys, pair_keys)
            positions_clipped = np.minimum(positions, max(edge_keys.size - 1, 0))
            values = np.zeros(pair_keys.size, dtype=np.float64)
            if edge_keys.size:
                values[edge_keys[positions_clipped] == pair_keys] = 1.0
        if delta:
            sorter = None
            if np.any(np.diff(pair_keys) < 0):
                sorter = np.argsort(pair_keys, kind="stable")
            for u, v, sign in delta:
                key = u * n + v if u < v else v * n + u
                pos = np.searchsorted(pair_keys, key, sorter=sorter)
                if pos < len(pair_keys):
                    idx = int(sorter[pos]) if sorter is not None else int(pos)
                    if pair_keys[idx] == key:
                        values[idx] = 1.0 if sign > 0 else 0.0
        if tracer is not None:
            tracer.count("kernels.pair_values", int(rows.size),
                         time.perf_counter_ns() - start_ns)
        return values

    def _flip_log(self) -> "list[tuple[int, int]]":
        return self._features.flips

    def _on_state_reset(self) -> None:
        # The hub grouping depends only on the candidate pairs: computed
        # here once, not on every scatter, and kept across restore.
        self._groups = _group_pairs(self.rows, self.cols, self.n)
        self._on_graph_reset()

    def _on_graph_reset(self) -> None:
        """Drop the caches keyed on the graph as well as the candidates."""
        # Iterates are keyed on candidate indices and priced with
        # ``flip_direction``; both change only with the candidates or a
        # restore.
        self._iterates: "OrderedDict[tuple[int, bytes], tuple]" = OrderedDict()

    def retarget(
        self,
        targets: Sequence[int],
        candidates=None,
        *,
        floor: "float | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> None:
        # Targets, floor and weights enter the objective: drop its memo.
        self._objective_memo = None
        super().retarget(targets, candidates, floor=floor, weights=weights)

    def _objective(
        self, gradients: bool = True
    ) -> "tuple[float, np.ndarray | None, np.ndarray | None]":
        """``(loss, ∂L/∂N, ∂L/∂E)`` of the current graph, memoised per version.

        The feature version identifies the graph, so a repeat call at the
        same state (``current_loss``, ``candidate_gradient`` and
        ``pair_gradient`` all ask once per greedy step) reuses one
        evaluation.  A loss-only entry keeps its forward pass, and a later
        gradient request completes it with the backward half alone
        (counted as ``oddball.objective.upgraded``): one forward pass per
        graph version.  The gradient arrays are shared; callers only read
        them.
        """
        version = self._features.version
        memo = self._objective_memo
        if memo is None or memo[0] != version:
            n_feature, e_feature = self._features.features()
            forward = _forward(
                n_feature, e_feature, self._targets,
                self.floor, self.ridge, self._weights,
            )
            memo = (version, forward.loss, forward, None)
        elif gradients and memo[3] is None:
            _telemetry.count("oddball.objective.upgraded")
        if gradients and memo[3] is None:
            # The forward intermediates are dropped once the gradients exist.
            memo = (version, memo[1], None, _backward(memo[2]))
        self._objective_memo = memo
        d_n, d_e = memo[3] or (None, None)
        return memo[1], d_n, d_e

    def _scatter(
        self,
        csr,
        d_n: np.ndarray,
        d_e: np.ndarray,
        groups: _PairGroups,
        delta=(),
    ) -> np.ndarray:
        """Gradient scatter through the selected kernel backend.

        The compiled kernel adds the numpy reference's nonzero terms in the
        same order, so both paths return bit-identical gradients (asserted
        by the kernel parity suite).  ``csr`` is the engine's base or
        folded CSR, whose rows are sorted (the base comes from
        :func:`~repro.graph.sparse.to_sparse`, and folding keeps them
        sorted).  While tracing, the scatter
        also counts its Δ-overlay entries (``kernels.scatter_gradient.delta``)
        and, on the compiled path, the CSR entries it walked
        (``kernels.scatter_gradient.entries``).
        """
        tracer = _telemetry.active_tracer()
        start_ns = time.perf_counter_ns() if tracer is not None else 0
        entries = None
        if self._kt is not None:
            gradient, entries = self._kt.scatter_pair_gradient(
                csr, d_n, d_e, groups, delta=delta
            )
        else:
            gradient = _scatter_pair_gradient(
                csr, d_n, d_e, groups.rows, groups.cols, delta=delta
            )
        if tracer is not None:
            tracer.count("kernels.scatter_gradient", int(groups.rows.size),
                         time.perf_counter_ns() - start_ns)
            tracer.count("kernels.scatter_gradient.delta", len(delta))
            if entries is not None:
                tracer.count("kernels.scatter_gradient.entries", entries)
        return gradient

    def current_loss(self) -> float:
        """Surrogate from the maintained features, in O(n)."""
        return self._objective(gradients=False)[0]

    def binarized_step(
        self, zdot_values: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """One BinarizedAttack iterate: apply the iterate's flips, score
        from features, scatter the closed-form straight-through gradient,
        roll the flips back — O(Σ deg + n + |C|).

        The forward pass sees only the flip set, not Ż, so the result is
        memoised on ``(graph version, flip set)`` in an LRU of
        :data:`ITERATE_MEMO_SIZE` entries: an iterate whose flip set
        repeats at the same graph state costs O(|C|).  Transient probes in
        between (``push_flip``/``pop_flips``) restore the version and keep
        the memo valid.
        """
        zdot_values = np.asarray(zdot_values, dtype=np.float64)
        # binarized(2Ż − 1) = +1 ⇔ Ż >= 0.5 (binarized(0) = +1, Eq. 7).
        flip_mask = zdot_values >= 0.5
        flipped = np.flatnonzero(flip_mask)
        features = self._features
        key = (features.version, flipped.tobytes())
        cached = self._iterates.get(key)
        if cached is not None:
            self._iterates.move_to_end(key)
            _telemetry.count("oddball.binarized_step.reused")
            loss, pair_gradient = cached
        else:
            base_csr = features.adjacency_csr()  # materialised BEFORE the flips
            pairs = [(int(self.rows[k]), int(self.cols[k])) for k in flipped]
            delta: list[tuple[int, int, float]] = [
                (u, v, float(self.flip_direction[k]))
                for (u, v), k in zip(pairs, flipped)
            ]
            # One batched call validates the whole iterate's flip set, then
            # toggles it pair by pair on the Python neighbour sets (both
            # kernel backends).
            features.flip_batch(pairs)
            loss, d_n, d_e = self._objective()
            features.rollback(len(delta))
            pair_gradient = self._scatter(
                base_csr, d_n, d_e, self._groups, delta=delta
            )
            self._iterates[key] = (loss, pair_gradient)
            if len(self._iterates) > ITERATE_MEMO_SIZE:
                self._iterates.popitem(last=False)
        # Straight-through chain: ∂L/∂Ż = (∂L/∂A_uv + ∂L/∂A_vu) · direction.
        # The product is a fresh array, so no caller aliases the memo.
        return loss, pair_gradient * self.flip_direction, flip_mask

    def relaxed_step(self, flips: np.ndarray) -> tuple[float, np.ndarray]:
        """ContinuousA iterate, evaluated in CSR: the current graph plus the
        symmetric overlay ``flip_direction · p`` on the support of ``p``.

        Weighted egonet features are read off that matrix M (``N`` its row
        sums, ``E = N + ½·rowsum((M @ M) ⊙ M)``; the incremental integer
        features do not apply to a fractional graph), and the pair
        gradient is scattered over it.  The overlay covers only p's
        support, the pairs the budget projection keeps positive.
        """
        self._refresh_pair_cache()
        flips = np.asarray(flips, dtype=np.float64)
        matrix = self._features.adjacency_csr()
        support = np.flatnonzero(flips)
        if support.size:
            rows, cols = self.rows[support], self.cols[support]
            shift = flips[support] * self.flip_direction[support]
            matrix = matrix + _sparse.coo_matrix(
                (
                    np.concatenate([shift, shift]),
                    (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
                ),
                shape=(self.n, self.n),
            )
        n_feature = np.asarray(matrix.sum(axis=1)).ravel()
        closed = (matrix @ matrix).multiply(matrix)
        e_feature = n_feature + 0.5 * np.asarray(closed.sum(axis=1)).ravel()
        loss, d_n, d_e = _loss_and_gradients(
            n_feature, e_feature, self._targets,
            self.floor, self.ridge, self._weights,
        )
        gradient = self._scatter(matrix, d_n, d_e, self._groups)
        return loss, gradient * self.flip_direction

    def candidate_gradient(self) -> np.ndarray:
        """Closed-form gradient scattered onto the candidate pairs only."""
        # Evaluated as (cached CSR + net overlay): the incremental features
        # supply exact (N, E) for the current graph, and the few flips not
        # yet folded into the CSR ride along as a Δ-overlay in the scatter —
        # a greedy attack's per-step gradient does no CSR rebuild at all.
        base, delta = self._features.csr_with_delta()
        _, d_n, d_e = self._objective()
        return self._scatter(base, d_n, d_e, self._groups, delta=delta)

    def pair_gradient(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Closed-form gradient scattered onto arbitrary canonical pairs."""
        rows, cols = _candidate_arrays((rows, cols))
        base, delta = self._features.csr_with_delta()
        _, d_n, d_e = self._objective()
        return self._scatter(
            base, d_n, d_e, _group_pairs(rows, cols, self.n), delta=delta
        )

    def degrees(self) -> np.ndarray:
        """Maintained degree vector — an O(n) copy of the N feature.

        The values come straight from the maintained features (no
        recomputation), but the feature engine returns a defensive copy,
        so the call is O(n), not O(1).
        """
        return self._features.n_feature

    def is_edge(self, u: int, v: int) -> bool:
        """Edge membership probe against the lazily-overridden rows.

        Rows no flip has touched are answered by an O(log deg) binary
        search of the base CSR (which may be an out-of-core memmap);
        flip-touched rows have a materialised neighbour set, answered by
        an O(1) set probe.  No row is materialised just to ask.
        """
        return self._features.is_edge(int(u), int(v))

    def degree(self, u: int) -> float:
        """Maintained degree of ``u``, in O(1)."""
        return float(self._features.degree(int(u)))

    def push_flip(self, u: int, v: int) -> None:
        """Toggle ``{u, v}`` with an O(deg) exact feature update."""
        self._features.flip(u, v)

    def pop_flips(self, count: int) -> None:
        """Roll back the last ``count`` flips bit-exactly (O(deg) each)."""
        self._features.rollback(count)

    def apply_flip(self, u: int, v: int) -> None:
        """Toggle ``{u, v}`` permanently (same O(deg) incremental update)."""
        self._features.flip(u, v)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour ids of ``u`` in the current graph."""
        return self._features.sorted_neighbors(int(u))

    def node_features(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact maintained egonet features ``(N, E)``, in O(1)."""
        return self._features.features()

    def checkpoint(self) -> int:
        """Flip-stack depth — the O(1) restore token."""
        return self._features.depth

    def restore(self, token: int) -> None:
        """Roll the flip stack back to ``token`` (O(deg) per undone flip).

        The candidate-keyed caches survive: the pair values are fixed up
        where they no longer describe the graph, and the hub grouping is
        kept.  A rollback drops the graph-keyed iterate memo; the
        objective memo is keyed on the graph version and stays valid.
        """
        depth = self._features.depth
        if not 0 <= token <= depth:
            raise ValueError(
                f"invalid checkpoint token {token}; flip stack depth is {depth}"
            )
        if token < depth:
            self._features.rollback(depth - token)
            self._on_graph_reset()
        self._refresh_pair_cache()
        _telemetry.count("candidates.carried", int(self.rows.size))
