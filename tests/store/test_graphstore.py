"""GraphStore fundamentals: content-addressed builds, manifest integrity,
mmap read-only discipline, and zero-copy handoff into the sparse pipeline."""

import json
import re

import numpy as np
import pytest

from repro.graph.sparse import content_hash, egonet_features_sparse, to_sparse
from repro.store import (
    GraphStore,
    MANIFEST_VERSION,
    STORE_RECIPES,
    build_store,
    recipe_hash,
    store_recipe,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    cache = tmp_path_factory.mktemp("store-cache")
    return build_store("blogcatalog", cache_dir=cache, scale=0.3, seed=7)


class TestBuild:
    def test_manifest_fields(self, store):
        manifest = json.loads((store.path / "manifest.json").read_text())
        assert manifest["version"] == MANIFEST_VERSION == 2
        assert manifest["recipe"]["version"] == MANIFEST_VERSION
        assert manifest["n_nodes"] == store.number_of_nodes
        assert manifest["nnz"] == 2 * store.number_of_edges
        assert manifest["recipe_hash"] == store.digest
        assert manifest["content_hash"] == content_hash(store.detached_csr())
        assert manifest["recipe"]["seed"] == 7
        assert set(manifest["planted"]) == {"cliques", "stars"}
        assert manifest["planted"]["cliques"]  # ground truth survives

    def test_content_addressed_directory(self, store):
        recipe = store_recipe("blogcatalog", scale=0.3, seed=7)
        assert recipe_hash(recipe)[:12] in store.path.name

    def test_rebuild_is_cache_hit(self, store):
        again = build_store(
            "blogcatalog", cache_dir=store.path.parent, scale=0.3, seed=7
        )
        assert again.path == store.path
        assert again.digest == store.digest

    def test_different_seed_different_address(self, store, tmp_path):
        other = build_store("blogcatalog", cache_dir=tmp_path, scale=0.3, seed=8)
        assert other.digest != store.digest
        assert other.path.name != store.path.name

    def test_chunk_size_is_part_of_the_recipe(self):
        # chunking shapes the RNG draw sequence, so it must re-address
        a = store_recipe("er", scale=0.2, seed=1, chunk_edges=1000)
        b = store_recipe("er", scale=0.2, seed=1, chunk_edges=2000)
        assert recipe_hash(a) != recipe_hash(b)

    def test_build_is_deterministic(self, store, tmp_path):
        rebuilt = build_store("blogcatalog", cache_dir=tmp_path, scale=0.3, seed=7)
        assert rebuilt.digest == store.digest
        assert np.array_equal(
            np.asarray(rebuilt.csr().indices), np.asarray(store.csr().indices)
        )
        assert np.array_equal(
            np.asarray(rebuilt.csr().indptr), np.asarray(store.csr().indptr)
        )

    def test_edge_target_hit(self, store):
        target = store.recipe["edges"]
        assert abs(store.number_of_edges - target) <= 0.02 * target

    def test_every_recipe_builds_small(self, tmp_path):
        for name in STORE_RECIPES:
            built = build_store(name, cache_dir=tmp_path, scale=0.08, seed=3)
            GraphStore.open(built.path, verify=True)  # full adjacency contract

    def test_unknown_recipe_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown store dataset"):
            build_store("nope", cache_dir=tmp_path)

    def test_aborted_build_is_not_openable(self, store, tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "indptr.bin").write_bytes(b"\x00" * 16)
        with pytest.raises(FileNotFoundError, match="no manifest"):
            GraphStore.open(partial)


def _clone_with_manifest(store, tmp_path, **fields):
    """Copy ``store`` into ``tmp_path`` with manifest ``fields`` overridden
    (``None`` deletes a field)."""
    clone = tmp_path / "clone"
    clone.mkdir()
    for item in store.path.iterdir():
        (clone / item.name).write_bytes(item.read_bytes())
    manifest = json.loads((clone / "manifest.json").read_text())
    for key, value in fields.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    (clone / "manifest.json").write_text(json.dumps(manifest))
    return clone


class TestOpen:
    def test_open_verify_passes(self, store):
        GraphStore.open(store.path, verify=True)

    def test_version_guard(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path, version=99)
        with pytest.raises(ValueError, match="unsupported manifest version"):
            GraphStore.open(clone)

    def test_version_1_manifest_rejected(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path, version=1, content_hash=None)
        with pytest.raises(ValueError, match="unsupported manifest version 1"):
            GraphStore.open(clone)

    def test_missing_content_hash_rejected(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path, content_hash=None)
        with pytest.raises(ValueError, match="no content_hash"):
            GraphStore.open(clone)

    def test_verify_rejects_edited_content_hash(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path, content_hash="0" * 40)
        GraphStore.open(clone)  # the cheap checks do not hash the arrays
        with pytest.raises(ValueError, match="content_hash"):
            GraphStore.open(clone, verify=True)

    def test_verify_rejects_a_corrupted_feature(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path)
        raw = np.memmap(clone / "features.bin", dtype=np.uint64,
                        mode="r+", shape=(2, store.number_of_nodes))
        raw[1, store.number_of_nodes // 2] ^= 1  # last mantissa bit of one E
        raw.flush()
        del raw
        GraphStore.open(clone)  # the cheap checks do not read features.bin
        with pytest.raises(ValueError, match="features.bin"):
            GraphStore.open(clone, verify=True)

    def test_verify_rejects_an_unsorted_row(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path)
        indptr = np.fromfile(clone / "indptr.bin", dtype=store.csr().indptr.dtype)
        row = int(np.flatnonzero(np.diff(indptr) >= 2)[-1])
        indices = np.memmap(clone / "indices.bin", dtype=store.csr().indices.dtype,
                            mode="r+", shape=(store.nnz,))
        start = int(indptr[row])
        indices[start:start + 2] = indices[start:start + 2][::-1].copy()
        indices.flush()
        del indices
        with pytest.raises(ValueError, match=f"row {row} indices are not sorted"):
            GraphStore.open(clone, verify=True)

    @pytest.mark.parametrize("name", [
        "indptr.bin", "indices.bin", "data.bin", "features.bin", "manifest.json",
    ])
    def test_truncated_file_is_named(self, store, tmp_path, name):
        clone = _clone_with_manifest(store, tmp_path)
        victim = clone / name
        victim.write_bytes(victim.read_bytes()[:-3])
        with pytest.raises(ValueError, match=re.escape(name)):
            GraphStore.open(clone)

    def test_missing_features_file_is_named(self, store, tmp_path):
        clone = _clone_with_manifest(store, tmp_path)
        (clone / "features.bin").unlink()
        with pytest.raises(ValueError, match=r"features\.bin is missing"):
            GraphStore.open(clone)

    def test_structure_guard(self, store, tmp_path):
        # lie about the entry count
        clone = _clone_with_manifest(store, tmp_path, nnz=store.nnz + 2)
        for name in ("indices.bin", "data.bin"):
            grown = clone / name
            grown.write_bytes(grown.read_bytes() + b"\x00" * 16)
        with pytest.raises(ValueError, match="indptr ends"):
            GraphStore.open(clone)


class TestMmapDiscipline:
    def test_arrays_are_read_only(self, store):
        csr = store.csr()
        for array in (csr.data, csr.indices, csr.indptr):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            csr.data[0] = 2.0

    def test_to_sparse_is_zero_copy(self, store):
        csr = store.csr()
        assert to_sparse(store) is csr
        assert to_sparse(csr) is csr

    def test_sorted_indices_flag_set(self, store):
        # scipy must never attempt an in-place sort of the read-only buffers
        assert store.csr().has_sorted_indices
        for row in range(store.number_of_nodes):
            csr = store.csr()
            segment = csr.indices[csr.indptr[row] : csr.indptr[row + 1]]
            if segment.size:
                assert np.all(np.diff(segment) > 0)

    def test_fingerprint_token(self, store):
        assert store.csr()._repro_fingerprint == store.manifest["content_hash"]


class TestGraphQueries:
    def test_degrees_match_features(self, store):
        n_feature, e_feature = egonet_features_sparse(store.detached_csr())
        assert np.array_equal(store.degrees(), n_feature)

    def test_precomputed_features_exact(self, store):
        n_ref, e_ref = egonet_features_sparse(store.detached_csr())
        n_mm, e_mm = store.features()
        assert np.array_equal(np.asarray(n_mm), n_ref)
        assert np.array_equal(np.asarray(e_mm), e_ref)

    def test_is_connected(self, store):
        assert store.is_connected()  # the ring seed guarantees it

    def test_counts(self, store):
        assert store.shape == (store.number_of_nodes,) * 2
        assert store.nnz == 2 * store.number_of_edges
