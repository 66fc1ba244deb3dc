"""Golden store bytes: the builder's output is pinned, byte for byte.

Each case is a recipe, its canonical ``content_hash`` (the edge set) and
the sha256 of its ``features.bin`` (the clean ``(N, E)`` features).  Any
drift in the sampled edge keys, the planted anomalies or the triangle
term fails here, under either kernel backend.  The recipes cover the
uniform family, the Chung–Lu family without anomalies, and the
paper-scale stand-in with anomalies planted, at 10k nodes.
"""

import hashlib

import pytest

from repro.kernels import compiled_available
from repro.store import build_store

GOLDEN = {
    "er": (
        {},
        "d4e270ab77e7aa976d0135a95f5629a30f8ab09c",
        "5d1abc0a5f26cf2889ae0bf92c7e4ebfb12301f3d92f9f659b0fa23f9eb33309",
    ),
    "ba": (
        {},
        "3506e825e42a17c90bb0bb8d5d7d7e0bb8924f5b",
        "8479c3adb5a913b6171d20480eb28828a28280ee87f3a63283a2ed1fa5b427c1",
    ),
    "blogcatalog-full": (
        {"scale": 10_000 / 88_800, "seed": 7},
        "d7f527b93d83ae32d96de57eb60611de6d7ebc55",
        "84c2309c935d959b0a3cd1521885d362b0b421238a52f71e352149baf236c004",
    ),
}

KERNELS = [
    "numpy",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not compiled_available(), reason="compiled backend unavailable")),
]


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_store_bytes_are_pinned(name, kernels, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    options, content, features = GOLDEN[name]
    store = build_store(name, cache_dir=tmp_path, **options)
    assert store.content_hash == content
    digest = hashlib.sha256((store.path / "features.bin").read_bytes())
    assert digest.hexdigest() == features
