"""Streaming builders for paper-scale graph stores.

The in-memory generators (:mod:`repro.graph.generators`) allocate a dense
``n × n`` adjacency — 63 GB at Blogcatalog's full 88.8k nodes — so
paper-scale stand-ins need a different construction: edges are *sampled in
chunks*, canonicalised and deduplicated as integer pair keys, and only the
final CSR component arrays (O(m) memory, never O(n²)) are written to the
store's files.

Two edge-sampling families cover the Table I recipes:

``uniform``
    Chunked G(n, M)-style sampling — endpoints uniform over nodes — the
    streaming analogue of the ``er`` generator.
``chung_lu``
    Endpoints drawn proportional to per-node weights ``w_i ∝ (i + i0)^-α``
    by inverse-CDF lookup through a guide table (each draw starts at its
    bucket's first node and scans forward, usually not at all), producing
    the heavy-tailed degree profile the ``ba`` generator and the
    real-dataset stand-ins need at a fraction of the cost of sequential
    preferential attachment.

Real-dataset stand-ins additionally plant the near-clique / near-star
egonets OddBall flags (same shapes as
:func:`repro.graph.anomaly.plant_anomalies`, built as explicit edge-key
chunks) and record the ground truth in the manifest.

Builds are **deterministic in the recipe**: the same
``(name, nodes, edges, seed, chunk_edges, …)`` always reproduces the same
byte-identical arrays, which is what makes the content-addressed cache
directory (``<name>-<recipe_hash[:12]>``) sound.  ``chunk_edges`` is part
of the recipe because it shapes the RNG draw sequence.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from repro import telemetry as _telemetry
from repro.graph.sparse import check_csr, hash_edge_keys, merge_novel, sorted_unique
from repro.kernels import kernel_table, resolve_kernels
from repro.store.graphstore import (
    _DATA_BLOCK,
    _DATA_DTYPE,
    MANIFEST_VERSION,
    GraphStore,
    _read_blocks,
    index_dtype,
    recipe_hash,
)
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "STORE_RECIPES",
    "build_store",
    "default_cache_dir",
    "store_recipe",
]

_log = get_logger("store.builder")

#: Edge keys sampled per RNG chunk; part of the recipe (it shapes the draws).
DEFAULT_CHUNK_EDGES = 262_144

#: Environment variable overriding the default store cache directory.
CACHE_ENV = "REPRO_STORE_CACHE"

#: Paper-scale recipes: Table I's five graphs (streamed, buildable at any
#: ``scale``) plus the full-size Blogcatalog stand-in the paper attacks.
#: ``anomalies`` uses *absolute* shape sizes (clique size, star leaves) with
#: *fractional* counts, so scaling the graph scales how many anomalies are
#: planted but keeps each one paper-shaped.
STORE_RECIPES: dict[str, dict] = {
    "er": dict(nodes=1000, edges=9948, family="uniform"),
    "ba": dict(nodes=1000, edges=4975, family="chung_lu", alpha=0.85),
    "blogcatalog": dict(
        nodes=1000, edges=6190, family="chung_lu", alpha=0.75,
        anomalies=dict(clique_frac=0.012, star_frac=0.012,
                       clique_size=10, star_leaves=20),
    ),
    "wikivote": dict(
        nodes=1012, edges=4860, family="chung_lu", alpha=0.80,
        anomalies=dict(clique_frac=0.010, star_frac=0.015,
                       clique_size=9, star_leaves=18),
    ),
    "bitcoin-alpha": dict(
        nodes=1025, edges=2311, family="chung_lu", alpha=0.70,
        anomalies=dict(clique_frac=0.008, star_frac=0.015,
                       clique_size=7, star_leaves=14),
    ),
    "blogcatalog-full": dict(
        nodes=88_800, edges=2_100_000, family="chung_lu", alpha=0.75,
        anomalies=dict(clique_frac=0.002, star_frac=0.002,
                       clique_size=10, star_leaves=30),
    ),
}


def default_cache_dir() -> Path:
    """The store cache root: ``$REPRO_STORE_CACHE`` or ``./.repro-store-cache``."""
    return Path(os.environ.get(CACHE_ENV, ".repro-store-cache"))


def store_recipe(
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> dict:
    """The canonical build recipe for a named dataset at a given scale.

    The returned dict is exactly what is hashed for content addressing and
    recorded in the manifest — every field that influences the generated
    bytes appears in it.
    """
    key = name.lower().replace("_", "-")
    if key not in STORE_RECIPES:
        raise KeyError(
            f"unknown store dataset {name!r}; choose from {sorted(STORE_RECIPES)}"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    base = STORE_RECIPES[key]
    nodes = max(int(round(base["nodes"] * scale)), 64)
    edges = max(int(round(base["edges"] * scale)), nodes)
    recipe = {
        # Tied to the manifest schema: a schema bump re-addresses every
        # cache directory, so a reader never opens a store of another one.
        "version": MANIFEST_VERSION,
        "name": key,
        "family": base["family"],
        "nodes": nodes,
        "edges": edges,
        "alpha": base.get("alpha"),
        "anomalies": base.get("anomalies"),
        "seed": int(seed),
        "chunk_edges": int(chunk_edges),
    }
    return recipe


def build_store(
    name: str,
    *,
    cache_dir: "str | Path | None" = None,
    scale: float = 1.0,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    force: bool = False,
) -> GraphStore:
    """Build (or reopen) the store for ``name`` at ``scale``.

    The store lands in ``<cache_dir>/<name>-<recipe_hash[:12]>``; an
    existing directory with a valid manifest for the same recipe is
    reopened without rebuilding (``force=True`` rebuilds in place).
    Build memory is O(m) — the int64 edge keys and the CSR index arrays
    (plus, on the numpy reference paths, the upper triangle's transpose)
    — independent of ``n²``; the keys are hashed and dropped before the
    feature pass.  With the compiled kernel backend (the process default,
    see :mod:`repro.kernels`) the three linear steps of a cold build are
    compiled passes: ``merge_novel`` for each sampling round's key merge,
    ``assemble_csr`` for the CSR and ``is_symmetric`` for the build
    check's symmetry test; the feature pass's triangle count is
    compiled too, and split across threads on a paper-scale graph (see
    :func:`_write_features`).  The bytes written are the numpy paths',
    whatever the thread count.  A build whose adjacency fails the store
    check raises ``ValueError`` and writes no manifest.
    """
    recipe = store_recipe(name, scale=scale, seed=seed, chunk_edges=chunk_edges)
    digest = recipe_hash(recipe)
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / f"{recipe['name']}-{digest[:12]}"
    if (path / "manifest.json").exists() and not force:
        store = GraphStore.open(path)
        if store.digest == digest:
            _log.debug("store cache hit: %s", path)
            return store
        raise ValueError(
            f"store directory {path} holds a different recipe "
            f"({store.digest[:12]} != {digest[:12]}); remove it to rebuild"
        )
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    with _telemetry.span(
        "store.build", name=recipe["name"], nodes=int(recipe["nodes"])
    ):
        # Resolving the backend loads the compiled kernels before the
        # build's large arrays: loaded mid-build, their long-lived objects
        # would sit above freed blocks on the heap and keep ~30 MB
        # resident after it.
        resolve_kernels()
        with _telemetry.span("store.build.edge_keys"):
            keys, planted = _generate_edge_keys(recipe)
            n_edges = int(keys.size)
            edges_hash = hash_edge_keys(recipe["nodes"], keys)
        with _telemetry.span("store.build.write_csr"):
            nnz = _write_csr(path, recipe["nodes"], keys)
        del keys  # the feature pass reads the CSR back from disk
        with _telemetry.span("store.build.features"):
            _write_features(path, recipe["nodes"], nnz)
    build_seconds = time.perf_counter() - start

    manifest = {
        "version": MANIFEST_VERSION,
        "name": recipe["name"],
        "n_nodes": recipe["nodes"],
        "n_edges": n_edges,
        "nnz": int(nnz),
        "index_dtype": index_dtype(recipe["nodes"], nnz).name,
        "data_dtype": np.dtype(_DATA_DTYPE).name,
        "planted": planted,
        "recipe": recipe,
        "recipe_hash": digest,
        "content_hash": edges_hash,
        "build_seconds": round(build_seconds, 3),
        "validated": True,
    }
    # The manifest is written last (atomically, via rename): a crash mid-
    # build leaves a directory without manifest.json, which open() rejects
    # and the next build_store() call sweeps and rebuilds.
    tmp = path / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.rename(path / "manifest.json")
    _log.info(
        "built store %s: n=%d m=%d (%.2fs)",
        path, recipe["nodes"], n_edges, build_seconds,
    )
    return GraphStore.open(path)


# --------------------------------------------------------------------- #
# Edge-key generation (streamed)
# --------------------------------------------------------------------- #


def _generate_edge_keys(recipe: dict) -> "tuple[np.ndarray, dict]":
    """All undirected edges as sorted unique ``u·n + v`` keys (u < v).

    The core is sampled in :data:`chunk_edges`-sized chunks and merged into
    a growing sorted key array; planted anomalies are appended as further
    key chunks.  Peak memory is O(m) int64 keys.
    """
    n, target = recipe["nodes"], recipe["edges"]
    rng = np.random.default_rng(recipe["seed"])
    anomalies = recipe.get("anomalies")

    planted: dict = {}
    planted_keys = np.empty(0, dtype=np.int64)
    if anomalies:
        planted_keys, planted = _plant_anomaly_keys(n, anomalies, rng)

    core_target = max(target - planted_keys.size, n)
    sampler = None
    if recipe["family"] == "chung_lu":
        weights = (np.arange(n, dtype=np.float64) + 10.0) ** -float(recipe["alpha"])
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        sampler = (cdf, _guide_table(cdf))

    keys = _ring_keys(n)  # a Hamiltonian ring seeds connectivity (no singletons)
    chunk = int(recipe["chunk_edges"])
    # Each round samples one chunk of endpoint pairs, keeps the novel keys,
    # and stops once the core target is met; the round cap bounds
    # pathological recipes (targets near the complete graph).
    for _ in range(500):
        if keys.size >= core_target:
            break
        u = _sample_endpoints(rng, n, chunk, sampler)
        v = _sample_endpoints(rng, n, chunk, sampler)
        mask = u != v
        u, v = u[mask], v[mask]
        new = sorted_unique(np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v))
        # Truncating the (sorted) novel keys keeps the edge count landing
        # on the target deterministically, whatever the chunk overlap was.
        keys = merge_novel(keys, new, limit=core_target - keys.size)
    # checked after the loop (not for/else): the target may be reached by
    # the final round's draws
    if keys.size < core_target:
        raise RuntimeError(
            f"edge sampling did not reach {core_target} edges for {recipe['name']}"
        )

    if planted_keys.size:
        keys = merge_novel(keys, planted_keys)
    return keys, planted


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """``guide[b] = searchsorted(cdf, b / K)`` for ``b = 0..K``.

    ``K`` is the smallest power of two ≥ ``8n``, so ``u · K`` is exact
    for every double ``u`` and the table stays O(n).  Every ``cdf[j]``
    with ``j < guide[b]`` is below ``b / K``: a draw ``u`` in bucket
    ``⌊u · K⌋`` has its inverse-CDF node at or after the bucket's entry.

    The table is counted, not searched: ``guide[b]`` is the number of
    entries below ``b / K``, and since ``cdf[j] · K`` is exact,
    ``cdf[j] < b / K`` holds exactly when ``⌊cdf[j] · K⌋ + 1 ≤ b``.  So
    one bincount of ``⌊cdf · K⌋ + 1`` and its running sum give the table.
    """
    buckets = 1 << (8 * cdf.size - 1).bit_length()
    first_bucket = np.floor(cdf * buckets).astype(np.int64) + 1
    return np.cumsum(np.bincount(first_bucket, minlength=buckets + 2)[:buckets + 1])


def _sample_endpoints(
    rng, n: int, count: int, sampler: "tuple[np.ndarray, np.ndarray] | None"
) -> np.ndarray:
    """One chunk of endpoint draws: uniform, or inverse-CDF weighted.

    ``sampler`` is ``(cdf, guide)`` with ``guide`` from :func:`_guide_table`.
    Each uniform draw ``u`` starts at its bucket's guide entry and steps
    forward while ``cdf[idx] < u``, which lands exactly on
    ``np.searchsorted(cdf, u)``; with ``8n`` buckets a draw rarely needs a
    step at all.
    """
    if sampler is None:
        return rng.integers(0, n, size=count)
    cdf, guide = sampler
    draws = rng.random(count)
    idx = guide[(draws * (guide.size - 1)).astype(np.int64)]
    behind = np.flatnonzero(cdf[idx] < draws)
    while behind.size:
        idx[behind] += 1
        behind = behind[cdf[idx[behind]] < draws[behind]]
    return idx


def _ring_keys(n: int) -> np.ndarray:
    """Keys of the Hamiltonian ring ``0-1-…-(n−1)-0`` (sorted, unique)."""
    nodes = np.arange(n, dtype=np.int64)
    nxt = (nodes + 1) % n
    keys = np.minimum(nodes, nxt) * n + np.maximum(nodes, nxt)
    return sorted_unique(keys)


def _plant_anomaly_keys(
    n: int, anomalies: dict, rng: np.random.Generator
) -> "tuple[np.ndarray, dict]":
    """Near-clique and near-star edge keys plus the ground-truth dict.

    Mirrors :func:`repro.graph.anomaly.plant_anomalies` shapes without a
    Graph object: clique centers are drawn from the mid-index (mid-weight)
    band, star hubs from the low-weight tail, all disjoint.
    """
    n_cliques = max(int(round(anomalies["clique_frac"] * n)), 2)
    n_stars = max(int(round(anomalies["star_frac"] * n)), 2)
    clique_size = int(anomalies["clique_size"])
    star_leaves = int(anomalies["star_leaves"])

    # Disjoint center pools: cliques from the middle third of the index
    # range (mid-degree under the Zipf weights), stars from the top third
    # (low-degree), members/leaves from anywhere outside the center sets.
    mid = rng.choice(
        np.arange(n // 3, 2 * n // 3), size=n_cliques, replace=False
    )
    tail = rng.choice(
        np.arange(2 * n // 3, n), size=n_stars, replace=False
    )
    centers = set(int(c) for c in mid) | set(int(s) for s in tail)

    chunks: list[np.ndarray] = []
    for center in mid:
        members = _draw_outside(rng, n, clique_size - 1, centers)
        ring = np.concatenate(([center], members))
        i, j = np.triu_indices(ring.size, k=1)
        u, v = ring[i], ring[j]
        keys = np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v)
        # near-clique: ~90% of the internal pairs, hub edges always kept
        keep = rng.random(keys.size) < 0.9
        keep[: ring.size - 1] = True  # the (center, member) pairs come first
        chunks.append(keys[keep])
    for hub in tail:
        leaves = _draw_outside(rng, n, star_leaves, centers)
        keys = (
            np.minimum(hub, leaves).astype(np.int64) * n
            + np.maximum(hub, leaves)
        )
        chunks.append(keys)

    planted = {
        "cliques": sorted(int(c) for c in mid),
        "stars": sorted(int(s) for s in tail),
    }
    all_keys = sorted_unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
    return all_keys, planted


def _draw_outside(
    rng: np.random.Generator, n: int, count: int, excluded: "set[int]"
) -> np.ndarray:
    """``count`` distinct node ids avoiding ``excluded`` (rejection draws)."""
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < count:
        batch = rng.integers(0, n, size=4 * count)
        for node in batch:
            node = int(node)
            if node in excluded or node in seen:
                continue
            seen.add(node)
            chosen.append(node)
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=np.int64)


# --------------------------------------------------------------------- #
# CSR materialisation (buffered writes)
# --------------------------------------------------------------------- #


def _write_csr(path: Path, n: int, keys: np.ndarray) -> int:
    """Write the symmetric CSR of the edge keys into the store's bin files.

    Returns ``nnz`` (= 2 × edges).  Row ``r`` of the CSR is ``r``'s lower
    neighbours, then its upper ones, each ascending: sorted *within*
    each row, the property :meth:`GraphStore.csr` relies on to skip
    scipy's in-place sort.  With the compiled kernel backend (the process
    default, see :mod:`repro.kernels`) ``CompiledKernels.assemble_csr``
    builds it by a two-pass counting fill over the keys; the numpy path
    is its reference, :func:`_assemble_csr`.  Both write the store's
    index dtype, byte for byte alike.  The arrays reach disk by buffered
    ``tofile`` writes, and ``data.bin``, all ones, is written from one
    fixed block.
    """
    nnz = 2 * keys.size
    idx_dtype = index_dtype(n, nnz)
    if resolve_kernels() == "compiled":
        indptr, indices = kernel_table().assemble_csr(n, keys, idx_dtype)
    else:
        indptr, indices = _assemble_csr(n, keys, idx_dtype)
    indptr.tofile(path / "indptr.bin")
    indices.tofile(path / "indices.bin")
    del indptr, indices

    ones = np.ones(_DATA_BLOCK, dtype=_DATA_DTYPE)
    with open(path / "data.bin", "wb") as handle:
        for start in range(0, nnz, ones.size):
            ones[: nnz - start].tofile(handle)
    return int(nnz)


def _assemble_csr(
    n: int, keys: np.ndarray, idx_dtype
) -> "tuple[np.ndarray, np.ndarray]":
    """``(indptr, indices)`` of the symmetric CSR of sorted upper keys.

    The numpy reference of ``CompiledKernels.assemble_csr``.  The sorted
    keys ``u·n + v`` (u < v) are already the upper triangle in CSR order:
    row ``r`` is the keys in ``[r·n, (r+1)·n)``, found by one
    ``searchsorted``.  Its transpose (scipy's counting-sort ``tocsc``)
    lists every node's lower neighbours in ascending order, and both
    halves are scattered by position arithmetic into ``indices``.  Every
    temporary is in the store's index dtype.
    """
    from scipy import sparse

    m = keys.size
    upper_indptr = np.searchsorted(
        keys, np.arange(n + 1, dtype=np.int64) * n
    ).astype(idx_dtype)
    cols = np.empty(m, dtype=idx_dtype)
    np.remainder(keys, n, out=cols, casting="unsafe")
    lower = sparse.csr_matrix(
        (np.ones(m, dtype=np.int8), cols, upper_indptr), shape=(n, n)
    ).tocsc()
    lower_indptr = lower.indptr.astype(idx_dtype, copy=False)

    # an upper entry k of row r lands after all lower entries of rows ≤ r;
    # a lower entry j of row r after all upper entries of rows < r
    indices = np.empty(2 * m, dtype=idx_dtype)
    for offsets, counts, values in (
        (lower_indptr[1:], np.diff(upper_indptr), cols),
        (upper_indptr[:-1], np.diff(lower_indptr), lower.indices),
    ):
        positions = np.repeat(offsets, counts)
        positions += np.arange(m, dtype=idx_dtype)
        indices[positions] = values
        del positions
    return upper_indptr + lower_indptr, indices


def _write_features(path: Path, n: int, nnz: int) -> None:
    """Check the written adjacency, then persist its clean features ``(N, E)``.

    ``indptr.bin`` and ``indices.bin`` are read back with ``np.fromfile``
    and ``data.bin`` is scanned in blocks by the store's adjacency check
    (:func:`repro.graph.sparse.check_csr`, the one
    ``GraphStore.open(verify=True)`` runs): binary, zero diagonal, sorted
    rows, symmetric by structure (the compiled ``is_symmetric`` walk
    under the compiled kernels).  A failure raises ``ValueError`` before
    any feature is written.  The check returns an index-only view (int8
    data) tagged validated, which :func:`repro.graph.sparse.
    egonet_features_sparse` scores without a float copy of the graph.

    The triangle term of ``E`` is the forward count: edges oriented by
    ``(degree, id)``, so its work is bounded by out-degrees, not by the
    multi-thousand-degree hubs.  Under the compiled kernels it runs on
    one thread per two million stored entries, up to the CPUs this
    process may use (two at 88.8k nodes on a 2-CPU host), and every
    thread has ended when the features are written.  Paying it once at
    build time and shipping the 2 × n result in the store makes every
    engine construction an O(n) memmap read.
    """
    from repro.graph.sparse import egonet_features_sparse

    idx_dtype = index_dtype(n, nnz)
    matrix = check_csr(
        np.fromfile(path / "indptr.bin", dtype=idx_dtype),
        np.fromfile(path / "indices.bin", dtype=idx_dtype),
        _read_blocks(path / "data.bin", _DATA_DTYPE, nnz),
        f"store {path}",
    )
    n_feature, e_feature = egonet_features_sparse(matrix)
    np.stack([n_feature, e_feature]).tofile(path / "features.bin")
