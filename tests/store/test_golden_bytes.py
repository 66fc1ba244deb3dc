"""Golden store bytes: the builder's output is pinned, byte for byte.

Each case is a recipe, its canonical ``content_hash`` (the edge set) and
the sha256 of every data file: the CSR arrays ``indptr.bin``,
``indices.bin`` and ``data.bin`` and the clean ``(N, E)`` features in
``features.bin``.  Any drift in the sampled edge keys, the planted
anomalies, the CSR layout (a within-row permutation of ``indices.bin``
keeps the content hash) or the triangle term fails here, under either
kernel backend.  The recipes cover the
uniform family, the Chung–Lu family without anomalies, and the
paper-scale stand-in with anomalies planted, at 10k nodes.
"""

import hashlib

import pytest

from repro.store import build_store

GOLDEN = {
    "er": (
        {},
        "d4e270ab77e7aa976d0135a95f5629a30f8ab09c",
        {
            "indptr.bin": "1ba7f6ee3806d000ddd5579f2161b6a46530529dc03fcdab1b24f24802bf9079",
            "indices.bin": "fba3d51e490b20a07c98caa8dd68c7f2dc3ce103ba6681f3edb4a20952a55ae8",
            "data.bin": "de265e275345371d98a5747cd66d18b500c02b3755a4f48c428c08a78d2fd7d1",
            "features.bin": "5d1abc0a5f26cf2889ae0bf92c7e4ebfb12301f3d92f9f659b0fa23f9eb33309",
        },
    ),
    "ba": (
        {},
        "3506e825e42a17c90bb0bb8d5d7d7e0bb8924f5b",
        {
            "indptr.bin": "d7c3bc1cd1c372af0fc26f688dc48674ad03e0f21f6cdbc0aaf759b28d913dca",
            "indices.bin": "32538900f18d9fbb98f2b7c9e333619a3967b49160de90c49ab08e317fce10bf",
            "data.bin": "cd2fc325dac154bbd8ecda90c90f8a6b667771d1572f2303aa6fd71a3125f1bb",
            "features.bin": "8479c3adb5a913b6171d20480eb28828a28280ee87f3a63283a2ed1fa5b427c1",
        },
    ),
    "blogcatalog-full": (
        {"scale": 10_000 / 88_800, "seed": 7},
        "d7f527b93d83ae32d96de57eb60611de6d7ebc55",
        {
            "indptr.bin": "45c759f70c191d8ded8d6bd846a860b2b3295a41ec1c21969a52d155ac78b5da",
            "indices.bin": "cb375248a0518a3680435a9315182251f214ea4cb6c8c9071235c2c5e5e28a25",
            "data.bin": "ce83b3150682697e0ee40de8a2fe4a2fba5584b85e169787c6928579cd9884a6",
            "features.bin": "84c2309c935d959b0a3cd1521885d362b0b421238a52f71e352149baf236c004",
        },
    ),
}

KERNELS = ["numpy", "compiled"]


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_store_bytes_are_pinned(name, kernels, tmp_path, use_kernels):
    use_kernels(kernels)
    options, content, files = GOLDEN[name]
    store = build_store(name, cache_dir=tmp_path, **options)
    assert store.content_hash == content
    digests = {
        file: hashlib.sha256((store.path / file).read_bytes()).hexdigest()
        for file in files
    }
    assert digests == files
