"""The store builder's two hot steps against their plain-numpy oracles.

* Guide-table endpoint sampling must land every draw exactly where
  ``np.searchsorted(cdf, u)`` does, on adversarial draws (every CDF entry,
  every bucket edge, their float neighbours, both ends of ``[0, 1)``) and
  random ones, for every Chung–Lu recipe's α.
* The CSR writer must write the same three files as the lexsort writer
  it replaced, kept here as the reference, and the same bytes under both
  kernel backends (the compiled counting fill and the numpy
  transpose-merge ``_assemble_csr``).
"""

import numpy as np
import pytest

from repro.store.builder import (
    STORE_RECIPES,
    _guide_table,
    _sample_endpoints,
    _write_csr,
    store_recipe,
)
from repro.store.graphstore import _DATA_DTYPE, index_dtype

ALPHAS = sorted({r["alpha"] for r in STORE_RECIPES.values() if r.get("alpha")})
CHUNG_LU = sorted(k for k, r in STORE_RECIPES.items() if r["family"] == "chung_lu")
SIZES = [64, 1000, 10_000]


def _chung_lu_cdf(n, alpha):
    cdf = np.cumsum((np.arange(n, dtype=np.float64) + 10.0) ** -alpha)
    cdf /= cdf[-1]
    return cdf


class _FixedDraws:
    """An ``rng`` stand-in whose ``random(count)`` returns fixed draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)
        self.calls = []

    def random(self, count):
        self.calls.append(count)
        assert count == self.draws.size
        return self.draws.copy()


def _adversarial_draws(cdf, buckets):
    edges = np.arange(buckets + 1) / buckets
    points = np.concatenate([cdf, edges, [0.0]])
    draws = np.concatenate(
        [points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
         [np.nextafter(1.0, 0.0)]]
    )
    return np.unique(draws[(draws >= 0.0) & (draws < 1.0)])


@pytest.mark.parametrize("n", SIZES)
def test_guide_table_is_power_of_two_and_minimal(n):
    cdf = _chung_lu_cdf(n, 0.75)
    guide = _guide_table(cdf)
    buckets = guide.size - 1
    assert buckets & (buckets - 1) == 0
    assert buckets >= 8 * n > buckets // 2
    expected = np.searchsorted(cdf, np.arange(buckets + 1) / buckets)
    np.testing.assert_array_equal(guide, expected)


@pytest.mark.parametrize("scale", [1e-6, 1.0], ids=["floor", "full"])
@pytest.mark.parametrize("name", CHUNG_LU)
def test_guide_table_is_its_searchsorted_definition_for_every_recipe(name, scale):
    # the counted table against its docstring's definition, on the CDF
    # each Chung-Lu recipe samples, down to the 64-node scale floor
    recipe = store_recipe(name, scale=scale)
    n = recipe["nodes"]
    assert n == 64 if scale < 1 else n >= 1000
    cdf = _chung_lu_cdf(n, recipe["alpha"])
    guide = _guide_table(cdf)
    buckets = guide.size - 1
    assert buckets == 1 << (8 * n - 1).bit_length()
    np.testing.assert_array_equal(
        guide, np.searchsorted(cdf, np.arange(buckets + 1) / buckets)
    )


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
def test_sampler_matches_searchsorted_on_adversarial_draws(n, alpha):
    cdf = _chung_lu_cdf(n, alpha)
    guide = _guide_table(cdf)
    draws = _adversarial_draws(cdf, guide.size - 1)
    rng = _FixedDraws(draws)
    got = _sample_endpoints(rng, n, draws.size, (cdf, guide))
    assert rng.calls == [draws.size]
    np.testing.assert_array_equal(got, np.searchsorted(cdf, draws))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", SIZES)
def test_sampler_matches_searchsorted_on_random_draws(n, alpha):
    cdf = _chung_lu_cdf(n, alpha)
    sampler = (cdf, _guide_table(cdf))
    rng = np.random.default_rng(n)
    reference = np.random.default_rng(n)
    for _ in range(3):
        got = _sample_endpoints(rng, n, 50_000, sampler)
        # one rng.random(count) per chunk: both generators stay in step
        np.testing.assert_array_equal(
            got, np.searchsorted(cdf, reference.random(50_000))
        )
    assert got.dtype == np.int64
    assert rng.bit_generator.state == reference.bit_generator.state


def test_sampler_on_a_cdf_with_clustered_entries():
    # many CDF entries inside one bucket force multi-step scans
    n = 64
    cdf = np.concatenate([np.linspace(0.5, 0.5 + 1e-9, n - 1), [1.0]])
    guide = _guide_table(cdf)
    draws = _adversarial_draws(cdf, guide.size - 1)
    got = _sample_endpoints(_FixedDraws(draws), n, draws.size, (cdf, guide))
    np.testing.assert_array_equal(got, np.searchsorted(cdf, draws))


# --------------------------------------------------------------------- #
# CSR writer
# --------------------------------------------------------------------- #


def _lexsort_reference(path, n, keys):
    """The lexsort writer: both edge directions sorted by ``(row, col)``."""
    u = keys // n
    v = keys % n
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    idx_dtype = index_dtype(n, rows.size)
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    indptr.tofile(path / "indptr.bin")
    cols[order].astype(idx_dtype).tofile(path / "indices.bin")
    np.ones(rows.size, dtype=_DATA_DTYPE).tofile(path / "data.bin")
    return rows.size


def _keys(n, pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    keys = np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(keys)


def _random_keys(n, m, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    mask = u != v
    return _keys(n, np.stack([u[mask], v[mask]], axis=1))


CSR_CASES = {
    "single-edge": (2, _keys(2, [(0, 1)])),
    "single-edge-isolated": (6, _keys(6, [(2, 4)])),
    "star-on-first": (9, _keys(9, [(0, j) for j in range(1, 9)])),
    "star-on-last": (9, _keys(9, [(8, j) for j in range(8)])),
    "path": (12, _keys(12, [(j, j + 1) for j in range(11)])),
    # 0..3 only have upper neighbours, 8..11 only lower, 4..7 are isolated
    "bipartite-halves": (12, _keys(12, [(a, b) for a in range(4) for b in range(8, 12)])),
    "complete": (7, _keys(7, [(a, b) for a in range(7) for b in range(a + 1, 7)])),
    "random-sparse": (300, _random_keys(300, 400, 1)),
    "random-dense": (60, _random_keys(60, 1500, 2)),
    "random-isolated": (1000, _random_keys(1000, 200, 3)),
}


@pytest.mark.parametrize("case", sorted(CSR_CASES))
def test_write_csr_matches_lexsort_reference(case, tmp_path):
    n, keys = CSR_CASES[case]
    got_dir, ref_dir = tmp_path / "got", tmp_path / "ref"
    got_dir.mkdir()
    ref_dir.mkdir()
    assert _write_csr(got_dir, n, keys) == _lexsort_reference(ref_dir, n, keys)
    for name in ("indptr.bin", "indices.bin", "data.bin"):
        assert (got_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(CSR_CASES))
def test_write_csr_bytes_agree_across_kernels(case, tmp_path, use_kernels):
    n, keys = CSR_CASES[case]
    written = {}
    for kernels in ("numpy", "compiled"):
        use_kernels(kernels)
        out = tmp_path / kernels
        out.mkdir()
        assert _write_csr(out, n, keys) == 2 * keys.size
        written[kernels] = [
            (out / name).read_bytes()
            for name in ("indptr.bin", "indices.bin", "data.bin")
        ]
    assert written["numpy"] == written["compiled"]


@pytest.mark.parametrize(
    "keys",
    [[5, 3], [4, 4], [1 * 6 + 1], [2 * 6 + 0], [36], [-1]],
    ids=["descending", "repeated", "diagonal", "below-diagonal", "past-n", "negative"],
)
def test_assemble_csr_rejects_malformed_keys(keys, use_kernels):
    from repro.kernels import kernel_table

    use_kernels("compiled")
    with pytest.raises(ValueError, match="strictly ascending"):
        kernel_table().assemble_csr(6, np.asarray(keys, dtype=np.int64), np.int32)
