"""Build and load the compiled kernel shared library.

The compiled backend is plain C (``kernels.c`` next to this module),
compiled on first use with the system C compiler and loaded through
cffi's ABI mode (``ffi.dlopen``) — no Python headers, no setuptools, no
install step.  The build is content-addressed: the shared object lands in
a cache directory (``$REPRO_KERNEL_CACHE`` or ``~/.cache/repro-kernels``)
under a name derived from the SHA-256 of the C source plus the compiler
command, so editing the source or flags triggers exactly one rebuild and
concurrent processes converge on the same artefact via atomic rename.

Everything degrades gracefully: if cffi or a C compiler is missing, or
compilation fails, :func:`load_kernel_lib` raises
:class:`KernelBuildError` and the caller (``repro.kernels.resolve``
machinery) falls back to the numpy path or surfaces a clear error,
depending on the requested flag.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_SOURCE_PATH = Path(__file__).with_name("kernels.c")

# -ffp-contract=off is load-bearing: GCC defaults to contracting a*b+c
# into fused multiply-adds at -O2 on some targets, which would change the
# gradient kernel's float results away from the numpy parity oracle.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

# ABI declarations for every exported kernel.  `long long` throughout for
# 64-bit integers so the cdef matches kernels.c exactly; `int` for the
# int32 CSR-index variants.
_CDEF = """
void repro_pair_values_i32(const long long *indptr, const int *indices,
    const long long *rows, const long long *cols, long long npairs,
    double *out);
void repro_pair_values_i64(const long long *indptr, const long long *indices,
    const long long *rows, const long long *cols, long long npairs,
    double *out);
long long repro_triangle_orient_i32(const long long *indptr,
    const int *indices, long long n, long long *out_ptr, int *out_idx,
    long long cap);
long long repro_triangle_orient_i64(const long long *indptr,
    const long long *indices, long long n, long long *out_ptr,
    long long *out_idx, long long cap);
void repro_triangle_share_i32(const long long *out_ptr, const int *out_idx,
    long long n, long long t, long long T, long long *tri, long long *mark);
void repro_triangle_share_i64(const long long *out_ptr,
    const long long *out_idx, long long n, long long t, long long T,
    long long *tri, long long *mark);
long long repro_merge_novel(const long long *keys, long long nkeys,
    const long long *fresh, long long nfresh, long long limit,
    long long *out);
long long repro_assemble_csr_i32(const long long *keys, long long m,
    long long n, long long *cursor, int *indptr, int *indices);
long long repro_assemble_csr_i64(const long long *keys, long long m,
    long long n, long long *cursor, long long *indptr, long long *indices);
long long repro_is_symmetric_i32(const long long *indptr,
    const int *indices, long long n, long long *cursor);
long long repro_is_symmetric_i64(const long long *indptr,
    const long long *indices, long long n, long long *cursor);
long long repro_scatter_gradient_i32(const long long *indptr,
    const int *indices, const double *data, const double *d_n,
    const double *d_e, const long long *rows, const long long *cols,
    const long long *order, const long long *hubs,
    const long long *partners, long long npairs, const long long *du,
    const long long *dv, const double *dd, long long ndelta, long long n,
    long long *dhead, long long *dnext, long long *extra, double *work,
    double *acc, double *grad);
long long repro_scatter_gradient_i64(const long long *indptr,
    const long long *indices, const double *data, const double *d_n,
    const double *d_e, const long long *rows, const long long *cols,
    const long long *order, const long long *hubs,
    const long long *partners, long long npairs, const long long *du,
    const long long *dv, const double *dd, long long ndelta, long long n,
    long long *dhead, long long *dnext, long long *extra, double *work,
    double *acc, double *grad);
"""


class KernelBuildError(RuntimeError):
    """Raised when the compiled kernel library cannot be built or loaded."""


def _compiler() -> str | None:
    """Return the C compiler executable to use, or None if none exists."""
    env_cc = os.environ.get("CC")
    if env_cc:
        resolved = shutil.which(env_cc)
        if resolved:
            return resolved
    for cand in ("cc", "gcc", "clang"):
        resolved = shutil.which(cand)
        if resolved:
            return resolved
    return None


def toolchain_available() -> bool:
    """Cheap availability probe: cffi importable and a C compiler on PATH.

    Deliberately does NOT compile anything — resolution of the
    ``kernels`` flag must stay light enough to run in every engine
    constructor.  A positive probe can still fail at build time; callers
    handle :class:`KernelBuildError` from :func:`load_kernel_lib`.
    """
    if _compiler() is None:
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return True


def cache_dir() -> Path:
    """Directory holding compiled kernel artefacts (created on demand)."""
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-kernels"


def _build_tag(cc: str) -> str:
    """Content hash identifying this exact source + toolchain combination."""
    digest = hashlib.sha256()
    digest.update(_SOURCE_PATH.read_bytes())
    digest.update("\x00".join((cc,) + _CFLAGS).encode())
    digest.update(sys.platform.encode())
    return digest.hexdigest()[:16]


def _compile(cc: str, out_path: Path) -> None:
    """Compile kernels.c to ``out_path`` (atomic: temp file + rename)."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=out_path.parent, prefix=out_path.stem, suffix=".so.tmp"
    )
    os.close(fd)
    cmd = [cc, *_CFLAGS, "-o", tmp_name, str(_SOURCE_PATH)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise KernelBuildError(
                "kernel compilation failed "
                f"({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        os.replace(tmp_name, out_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


_LIB_CACHE: tuple[object, object] | None = None


def load_kernel_lib() -> tuple[object, object]:
    """Return ``(ffi, lib)`` for the compiled kernels, building if needed.

    The loaded library is cached per process; repeated calls are free.
    Raises :class:`KernelBuildError` when the toolchain is missing or the
    build fails — callers translate that into the flag-dependent
    behaviour (numpy fallback for ``auto``, hard error for ``compiled``).
    """
    global _LIB_CACHE
    if _LIB_CACHE is not None:
        return _LIB_CACHE
    if not _SOURCE_PATH.is_file():
        raise KernelBuildError(f"kernel source missing: {_SOURCE_PATH}")
    cc = _compiler()
    if cc is None:
        raise KernelBuildError(
            "no C compiler found (tried $CC, cc, gcc, clang)"
        )
    try:
        import cffi
    except ImportError as exc:
        raise KernelBuildError("cffi is not installed") from exc
    so_path = cache_dir() / f"repro_kernels_{_build_tag(cc)}.so"
    if not so_path.is_file():
        _compile(cc, so_path)
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        lib = ffi.dlopen(str(so_path))
    except OSError as exc:
        raise KernelBuildError(f"failed to load {so_path}: {exc}") from exc
    _LIB_CACHE = (ffi, lib)
    return _LIB_CACHE
