"""Fault injection for the store's adjacency check, at build and at open.

``build_store`` checks the CSR it wrote before it computes features, with
the same check ``GraphStore.open(verify=True)`` and ``to_sparse`` run
(``repro.graph.sparse.check_csr``).  Each case wraps ``_write_csr`` so
that it corrupts the files it wrote in one way; the build must raise
naming the broken property and leave no manifest, and
``open(verify=True)`` on those same bytes must raise the same message.
``to_sparse`` on an in-memory copy of the same arrays gives the same
verdict without the store's prefix, except where it differs by design:
it sorts and sums its own copy, so a swapped pair is accepted and a
duplicated entry is a value of 2.
"""

import re
import shutil

import numpy as np
import pytest

from scipy import sparse

from repro.graph.sparse import to_sparse
from repro.store import GraphStore, build_store
from repro.store import builder
from repro.store.graphstore import _DATA_DTYPE, index_dtype

OPTIONS = dict(scale=0.2, seed=1)  # 200 nodes, ~2000 edges


def _read(path, n, nnz):
    dtype = index_dtype(n, nnz)
    return (np.fromfile(path / "indptr.bin", dtype=dtype),
            np.fromfile(path / "indices.bin", dtype=dtype))


def _rewrite_index(path, n, nnz, position, value):
    indptr, indices = _read(path, n, nnz)
    indices[position] = value
    indices.tofile(path / "indices.bin")


def _non_binary(path, n, nnz):
    data = np.fromfile(path / "data.bin", dtype=_DATA_DTYPE)
    data[nnz // 2] = 2.0
    data.tofile(path / "data.bin")
    return "adjacency is not binary"


def _diagonal(path, n, nnz):
    # row r holds its ring neighbour r - 1; r in its place keeps it sorted
    row = n // 2
    indptr, indices = _read(path, n, nnz)
    segment = indices[indptr[row]:indptr[row + 1]]
    _rewrite_index(path, n, nnz,
                   indptr[row] + np.searchsorted(segment, row - 1), row)
    return "adjacency has diagonal entries"


def _asymmetric(path, n, nnz):
    # raise a row's last index to a column it lacks: the row stays sorted
    indptr, indices = _read(path, n, nnz)
    last = indices[indptr[1:] - 1]
    row = int(np.flatnonzero((last + 1 < n) & (last + 1 != np.arange(n)))[0])
    _rewrite_index(path, n, nnz, indptr[row + 1] - 1, last[row] + 1)
    return "adjacency is not symmetric"


def _swapped(path, n, nnz):
    row = n // 2
    indptr, indices = _read(path, n, nnz)
    start = indptr[row]
    indices[start:start + 2] = indices[start:start + 2][::-1].copy()
    indices.tofile(path / "indices.bin")
    return f"row {row} indices are not sorted/unique"


def _duplicated(path, n, nnz):
    # a row's second index repeats its first
    row = n // 2
    indptr, indices = _read(path, n, nnz)
    _rewrite_index(path, n, nnz, indptr[row] + 1, indices[indptr[row]])
    return f"row {row} indices are not sorted/unique"


def _out_of_range(path, n, nnz):
    # the last row's last index becomes n: sorted, but not a node
    _rewrite_index(path, n, nnz, nnz - 1, n)
    return f"adjacency has indices outside 0..{n - 1}"


FAULTS = {
    "asymmetric": _asymmetric,
    "diagonal": _diagonal,
    "duplicated-entry": _duplicated,
    "non-binary": _non_binary,
    "out-of-range": _out_of_range,
    "swapped-pair": _swapped,
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    return build_store("er", cache_dir=tmp_path_factory.mktemp("clean"), **OPTIONS)


#: What ``to_sparse`` says where it differs from the store: ``None``
#: accepts the arrays.
TO_SPARSE = {
    "duplicated-entry": "adjacency is not binary",
    "swapped-pair": None,
}


def _build_broken(fault, tmp_path, monkeypatch):
    """Build with ``fault`` injected; ``(build error, message, store dir)``."""
    write_csr = builder._write_csr
    expected = []

    def faulty_write_csr(path, n, keys):
        nnz = write_csr(path, n, keys)
        expected.append(FAULTS[fault](path, n, nnz))
        return nnz

    monkeypatch.setattr(builder, "_write_csr", faulty_write_csr)
    with pytest.raises(ValueError) as built:
        build_store("er", cache_dir=tmp_path, **OPTIONS)
    (broken,) = tmp_path.iterdir()
    return built.value, expected[0], broken


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_build_and_open_reject_the_same_fault(fault, clean, tmp_path, monkeypatch):
    built, expected, broken = _build_broken(fault, tmp_path, monkeypatch)
    assert re.search(re.escape(expected), str(built))
    assert not (broken / "manifest.json").exists()

    # the same CSR bytes under the clean build's manifest and features
    for name in ("manifest.json", "features.bin"):
        shutil.copy(clean.path / name, broken / name)
    with pytest.raises(ValueError) as opened:
        GraphStore.open(broken, verify=True)
    assert str(opened.value) == str(built)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_to_sparse_gives_the_store_verdict(fault, clean, tmp_path, monkeypatch):
    built, _, broken = _build_broken(fault, tmp_path, monkeypatch)
    n = clean.number_of_nodes
    nnz = clean.nnz
    indptr, indices = _read(broken, n, nnz)
    data = np.fromfile(broken / "data.bin", dtype=_DATA_DTYPE)
    arrays = (data, indices, indptr)
    copies = [array.copy() for array in arrays]
    matrix = sparse.csr_matrix(arrays, shape=(n, n))
    expected = TO_SPARSE.get(fault, str(built).removeprefix(f"store {broken}: "))
    if expected is None:
        clean_csr = clean.csr()
        assert (to_sparse(matrix) != clean_csr).nnz == 0
    else:
        with pytest.raises(ValueError) as raised:
            to_sparse(matrix)
        assert str(raised.value) == expected
    for array, copy in zip(arrays, copies):
        np.testing.assert_array_equal(array, copy)


def test_clean_store_passes_the_check(clean):
    GraphStore.open(clean.path, verify=True)
