"""Runtime guards: tripwires for the invariants
``tests/analysis/test_invariants.py`` checks statically.

Static analysis sees the source; these guards see the *execution*.  The
parity suites run the sparse engine inside :func:`forbid_densify` so a
dense fallback introduced anywhere in the call graph (including code the
static checks cannot scope, like a dependency) fails loudly instead of
silently reverting to the O(n²) regime, and map store-backed runs inside
:func:`assert_readonly_mmap` so any write through a shared page —
whether or not numpy would have raised — is detected by checksum.

Both guards are process-global monkeypatches, not thread-safe, and meant
for tests only.  Test modules import them as ``from invariant_guards
import ...``: ``tests/`` is on ``sys.path`` because it holds the root
``conftest.py``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np
from scipy import sparse

__all__ = [
    "DensifyError",
    "MmapWriteError",
    "forbid_densify",
    "assert_readonly_mmap",
]


class DensifyError(RuntimeError):
    """A sparse matrix was densified inside a :func:`forbid_densify` block."""


class MmapWriteError(RuntimeError):
    """A guarded mmap-backed array changed inside an
    :func:`assert_readonly_mmap` block."""


#: Methods that materialise a dense array from a sparse matrix.
_DENSIFY_METHODS = ("toarray", "todense")

#: Concrete scipy.sparse classes to patch.  Patching concrete classes
#: (not just the spmatrix base) matters: several formats override
#: ``toarray``, and instance lookup finds the most-derived definition.
_SPARSE_CLASS_NAMES = (
    "spmatrix",
    "csr_matrix",
    "csc_matrix",
    "coo_matrix",
    "lil_matrix",
    "dok_matrix",
    "dia_matrix",
    "bsr_matrix",
    "csr_array",
    "csc_array",
    "coo_array",
    "lil_array",
    "dok_array",
    "dia_array",
    "bsr_array",
)


def _sparse_classes() -> "list[type]":
    classes: list[type] = []
    for name in _SPARSE_CLASS_NAMES:
        cls = getattr(sparse, name, None)
        if isinstance(cls, type) and cls not in classes:
            classes.append(cls)
    return classes


def _tripwire(cls_name: str, method: str, context: str):
    def trip(self, *args, **kwargs):
        raise DensifyError(
            f"{cls_name}.{method}() called inside forbid_densify()"
            + (f" [{context}]" if context else "")
            + " — a hot path densified a sparse matrix"
        )

    return trip


@contextmanager
def forbid_densify(context: str = ""):
    """Fail loudly on any sparse→dense materialisation in this block.

    Replaces ``toarray``/``todense`` on every scipy.sparse class with a
    tripwire raising :class:`DensifyError`; the original methods are
    restored on exit, even if the block raises.  ``context`` is folded
    into the error message to identify which guard fired.

    Wrap the *sparse* side of a parity run only — the dense oracle
    legitimately densifies.
    """
    patched: list[tuple[type, str, bool, object]] = []
    try:
        for cls in _sparse_classes():
            for method in _DENSIFY_METHODS:
                if not hasattr(cls, method):
                    continue
                had_own = method in cls.__dict__
                original = cls.__dict__.get(method)
                setattr(cls, method, _tripwire(cls.__name__, method, context))
                patched.append((cls, method, had_own, original))
        yield
    finally:
        for cls, method, had_own, original in reversed(patched):
            if had_own:
                setattr(cls, method, original)
            else:
                try:
                    delattr(cls, method)
                except AttributeError:
                    pass


def _guarded_arrays(source) -> "list[np.ndarray]":
    """Flatten a guard source into its underlying buffer arrays.

    Accepts a :class:`~repro.store.GraphStore` (guards its CSR component
    mmaps), any scipy sparse matrix (guards ``data``/``indices``/
    ``indptr``), a bare ndarray/memmap, or an object exposing
    ``adjacency_csr()``.
    """
    if hasattr(source, "manifest") and hasattr(source, "csr"):
        csr = source.csr()
        # keep the raw buffers — np.asarray would strip the np.memmap
        # subclass and defeat the writability check
        return [csr.data, csr.indices, csr.indptr]
    if hasattr(source, "adjacency_csr"):
        return _guarded_arrays(source.adjacency_csr())
    if sparse.issparse(source):
        csr = source if hasattr(source, "indptr") else source.tocsr()
        return [csr.data, csr.indices, csr.indptr]
    if isinstance(source, np.ndarray):
        return [source]
    raise TypeError(
        f"cannot guard object of type {type(source).__name__}; expected a "
        "GraphStore, sparse matrix, ndarray, or adjacency_csr() provider"
    )


def _checksum(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


@contextmanager
def assert_readonly_mmap(*sources, context: str = ""):
    """Assert the arrays behind ``sources`` stay byte-identical.

    On entry: every :class:`numpy.memmap` among the guarded buffers must
    already be non-writeable (a store mapped with anything but
    ``mode="r"`` is a configuration bug, caught immediately).  On exit:
    every guarded buffer — memmap or not — must hash to the same bytes
    as on entry, so writes through an alias numpy could not intercept
    still surface as :class:`MmapWriteError`.
    """
    arrays: list[np.ndarray] = []
    for source in sources:
        arrays.extend(_guarded_arrays(source))
    for array in arrays:
        if isinstance(array, np.memmap) and array.flags.writeable:
            raise MmapWriteError(
                "guarded memmap is mapped writable"
                + (f" [{context}]" if context else "")
                + " — store components must be opened mode='r'"
            )
    before = [_checksum(array) for array in arrays]
    yield
    for index, array in enumerate(arrays):
        if _checksum(array) != before[index]:
            raise MmapWriteError(
                f"guarded array #{index} changed inside "
                "assert_readonly_mmap()"
                + (f" [{context}]" if context else "")
                + " — something wrote through a shared mmap page"
            )
