"""Compiled hot-kernel layer: one process-wide ``{auto,numpy,compiled}`` switch.

The sparse engine's hot loops lean on three primitives: batch pair
membership against a CSR, the candidate-pair gradient scatter, and
per-node triangle counts.  The cold store build and the structural check
lean on three more: the sorted edge-key merge
(:func:`repro.graph.sparse.merge_novel`), the symmetric CSR assembly from
sorted upper-triangle keys, and the symmetry test of
:func:`repro.graph.sparse.check_csr`.  This package provides a compiled
backend for all six (C built on demand via the system compiler, loaded
through cffi ABI mode — see :mod:`repro.kernels.capi`) behind a
three-valued process default (edge flips themselves always run in
Python, in :class:`~repro.graph.incremental.IncrementalEgonetFeatures`).
Each kernel runs on the calling thread, except the triangle count of a
graph with two million stored entries or more, which splits across the
CPUs the process may use and joins its threads before it returns
(:data:`repro.kernels.compiled.GRAIN`); its integer result does not
depend on the split.  The backends are:

- ``numpy``    — the pure numpy/Python reference paths, always available;
  they are the parity oracle the compiled kernels are tested against.
- ``compiled`` — the C kernels; raises :class:`KernelUnavailableError`
  with a clear message when cffi or a C compiler is missing.
- ``auto``     — ``compiled`` when the toolchain is present, otherwise
  ``numpy`` with a single :class:`RuntimeWarning` per process.

The default is :func:`set_default_kernels` (what both CLIs' ``--kernels``
call), else the ``REPRO_KERNELS`` environment variable, else ``auto``.
Every engine resolves it once, at construction, so one switch reaches
every engine an experiment builds and no attack, engine or campaign takes
a ``kernels`` keyword.  The multi-worker executor alone takes one, and
ships it to its workers in their
:class:`~repro.oddball.surrogate.EngineSpec`.

The compiled primitives are the public methods of
:class:`~repro.kernels.compiled.CompiledKernels`; the kernel parity test
is parametrised over them, so each one must have a numpy-oracle check.
"""

from __future__ import annotations

import os
import warnings

from .capi import KernelBuildError, toolchain_available

__all__ = [
    "KERNEL_BACKENDS",
    "KernelBuildError",
    "KernelUnavailableError",
    "compiled_available",
    "default_kernels",
    "kernel_table",
    "resolve_kernels",
    "set_default_kernels",
    "toolchain_available",
    "validate_kernels",
]

KERNEL_BACKENDS = ("auto", "numpy", "compiled")


class KernelUnavailableError(RuntimeError):
    """``kernels="compiled"`` was requested but no compiled backend exists."""


def validate_kernels(kernels: str) -> str:
    """Validate a ``kernels`` flag value, returning it unchanged."""
    if kernels not in KERNEL_BACKENDS:
        raise ValueError(
            f"kernels must be one of {KERNEL_BACKENDS}, got {kernels!r}"
        )
    return kernels


_DEFAULT: str | None = None


def set_default_kernels(kernels: str) -> None:
    """Set the process-wide default every engine resolves.

    CLI entry points and executor workers call this once so the choice
    reaches every engine built downstream without threading a keyword
    through each call site.  ``"auto"`` clears the override, restoring
    ``$REPRO_KERNELS`` / availability-based selection.
    """
    global _DEFAULT
    _DEFAULT = None if kernels == "auto" else validate_kernels(kernels)


def default_kernels() -> str:
    """Current process default: set_default_kernels > $REPRO_KERNELS > auto."""
    if _DEFAULT is not None:
        return _DEFAULT
    env = os.environ.get("REPRO_KERNELS")
    if env:
        return validate_kernels(env)
    return "auto"


# Cached load outcome: None = not attempted, a CompiledKernels instance on
# success, or the KernelBuildError that explains the failure.
_TABLE = None


def kernel_table():
    """Return the process-wide :class:`CompiledKernels`, building on first use.

    Raises :class:`KernelBuildError` (cached — the build is not retried)
    when the compiled backend cannot be produced.
    """
    global _TABLE
    if _TABLE is None:
        try:
            from .compiled import CompiledKernels

            _TABLE = CompiledKernels()
        except KernelBuildError as exc:
            _TABLE = exc
        except ImportError as exc:  # cffi missing
            _TABLE = KernelBuildError(str(exc))
    if isinstance(_TABLE, KernelBuildError):
        raise _TABLE
    return _TABLE


def compiled_available() -> bool:
    """True when the compiled backend can actually be loaded."""
    try:
        kernel_table()
    except KernelBuildError:
        return False
    return True


_warned_fallback = False


def _warn_fallback(reason: str) -> None:
    """Emit the once-per-process auto->numpy degradation warning."""
    global _warned_fallback
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            f"kernels='auto': compiled backend unavailable ({reason}); "
            "falling back to the numpy kernels",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_kernels(kernels: str = "auto") -> str:
    """Resolve a ``kernels`` flag to the concrete backend for this host.

    ``auto`` consults :func:`default_kernels` first, then availability:
    compiled when the toolchain works, else numpy plus one warning.
    An explicit ``"compiled"`` that cannot be satisfied raises
    :class:`KernelUnavailableError` with the underlying build failure.
    """
    kernels = validate_kernels(kernels)
    if kernels == "auto":
        kernels = default_kernels()
    if kernels == "numpy":
        return "numpy"
    if kernels == "auto":
        # A loaded table proves the toolchain: skip the PATH scan.
        loaded = _TABLE is not None and not isinstance(_TABLE, KernelBuildError)
        if not loaded and not toolchain_available():
            _warn_fallback("no C compiler or cffi on this host")
            return "numpy"
        try:
            kernel_table()
        except KernelBuildError as exc:
            _warn_fallback(str(exc))
            return "numpy"
        return "compiled"
    try:
        kernel_table()
    except KernelBuildError as exc:
        raise KernelUnavailableError(
            "kernels='compiled' requested but the compiled backend is "
            f"unavailable: {exc}. Install cffi and a C compiler, or use "
            "kernels='numpy'/'auto'."
        ) from exc
    return "compiled"
