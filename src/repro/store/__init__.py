"""repro.store — the out-of-core, memory-mapped graph storage layer.

Persists paper-scale graphs as read-only memory-mapped CSR arrays under a
content-addressed cache directory (:class:`GraphStore`), builds them with
streaming edge-chunk generators that never materialise a dense adjacency
(:func:`build_store`), and plugs them into the engine/campaign/executor
stack: ``to_sparse`` accepts stores zero-copy, ``EngineSpec`` ships a
``store``-kind payload (a path, not a graph) to parallel workers, and
``load_dataset`` resolves ``*-full`` names through
:func:`load_store_dataset`.

CLI::

    python -m repro.store build blogcatalog-full
    python -m repro.store info blogcatalog-full
    python -m repro.store campaign blogcatalog-full --budget 5 --workers 4
    python -m repro.store recipe-hash blogcatalog-full --scale 0.02

See ``docs/ARCHITECTURE.md`` §"Storage layer" for the manifest schema, the
mmap layout and the Δ-overlay invariant.
"""

from repro.store.builder import (
    DEFAULT_CHUNK_EDGES,
    STORE_RECIPES,
    build_store,
    default_cache_dir,
    store_recipe,
)
from repro.store.datasets import STORE_DATASET_NAMES, load_store_dataset
from repro.store.graphstore import GraphStore, MANIFEST_VERSION, recipe_hash

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "GraphStore",
    "MANIFEST_VERSION",
    "STORE_DATASET_NAMES",
    "STORE_RECIPES",
    "build_store",
    "default_cache_dir",
    "load_store_dataset",
    "recipe_hash",
    "store_recipe",
]
