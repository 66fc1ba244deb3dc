"""Dataset registry: the paper's five graphs (Table I).

Two synthetic graphs are generated exactly as in the paper:

* ``ER``  — Erdős–Rényi, n=1000, p=0.02 (≈ 9948 edges in the paper's draw);
* ``BA``  — Barabási–Albert, n=1000, m=5 (4975 edges).

The three real graphs (Blogcatalog, Wikivote, Bitcoin-Alpha) cannot be
downloaded in this offline environment, so this module builds *statistical
stand-ins*: preferential-attachment cores matched to the paper's sampled
node/edge counts, with planted near-clique/near-star egonets so OddBall's
log-log regression and high-score tail behave like the originals.  Every
experiment in the paper consumes these graphs only through structural
statistics, so the substitution preserves the relevant behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.anomaly import plant_anomalies
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.graph import Graph
from repro.utils.rng import as_generator

__all__ = [
    "DATASET_NAMES",
    "Dataset",
    "dataset_statistics",
    "load_dataset",
    "sample_connected_subgraph",
]

#: Paper Table I targets: name -> (nodes, edges).
_TABLE_I = {
    "er": (1000, 9948),
    "ba": (1000, 4975),
    "blogcatalog": (1000, 6190),
    "wikivote": (1012, 4860),
    "bitcoin-alpha": (1025, 2311),
}

DATASET_NAMES = tuple(_TABLE_I)


@dataclass
class Dataset:
    """A named graph plus the ground truth of its planted anomalies.

    ``graph`` is a dense :class:`Graph` for the in-memory datasets, or a
    memory-mapped :class:`~repro.store.GraphStore` for the paper-scale
    ``*-full`` names — both answer the node/edge/degree queries the
    experiment drivers ask.
    """

    name: str
    graph: "Graph"
    planted: dict[str, list[int]] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.graph.number_of_nodes

    @property
    def n_edges(self) -> int:
        return self.graph.number_of_edges


def load_dataset(
    name: str, rng=None, scale: float = 1.0, cache_dir=None
) -> Dataset:
    """Build one of the paper's five graphs (or a scaled-down version).

    Parameters
    ----------
    name:
        One of ``er``, ``ba``, ``blogcatalog``, ``wikivote``, ``bitcoin-alpha``
        (case-insensitive) — or a paper-scale ``*-full`` variant
        (``blogcatalog-full`` is the 88.8k-node stand-in), which resolves to
        a memory-mapped :class:`~repro.store.GraphStore` built once and
        cached content-addressed (see :mod:`repro.store`).
    rng:
        Seed or generator; the same seed always yields the same graph.
        Store-backed names require a plain integer seed (the build recipe
        is content-hashed, so its randomness source must be hashable).
    scale:
        Multiplier on the node count (CI presets use ~0.2–0.3 to keep the
        benchmark suite fast).  Edge targets scale with the node count.
    cache_dir:
        Store cache directory for ``*-full`` names (default:
        ``$REPRO_STORE_CACHE`` or ``./.repro-store-cache``); ignored for
        the in-memory datasets.
    """
    key = name.lower().replace("_", "-")
    if key.endswith("-full"):
        from repro.store import load_store_dataset

        if rng is not None and not isinstance(rng, (int, np.integer)):
            raise TypeError(
                f"store-backed dataset {name!r} needs an integer seed "
                f"(got {type(rng).__name__}): the build is content-addressed"
            )
        return load_store_dataset(
            key, seed=0 if rng is None else int(rng), scale=scale,
            cache_dir=cache_dir,
        )
    if key not in _TABLE_I:
        from repro.store import STORE_DATASET_NAMES

        raise KeyError(
            f"unknown dataset {name!r}; choose from "
            f"{sorted(_TABLE_I) + sorted(STORE_DATASET_NAMES)}"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    generator = as_generator(rng)
    nodes_target, edges_target = _TABLE_I[key]
    n = max(int(round(nodes_target * scale)), 30)
    m_edges = max(int(round(edges_target * scale)), n)

    if key == "er":
        p = 2.0 * m_edges / (n * (n - 1))
        graph = erdos_renyi(n, p, rng=generator)
        return Dataset(name=key, graph=graph)
    if key == "ba":
        m = max(int(round(m_edges / n)), 1)
        graph = barabasi_albert(n, m, rng=generator)
        return Dataset(name=key, graph=graph)
    return _build_standin(key, n, m_edges, generator)


def _build_standin(name: str, n: int, m_edges: int, rng: np.random.Generator) -> Dataset:
    """Heavy-tailed core + planted anomalies, trimmed to the edge target."""
    profiles = {
        # (anomaly fractions and shapes tuned per dataset character)
        "blogcatalog": dict(n_cliques=0.012, n_stars=0.012, clique_size=10, star_leaves=0.030),
        "wikivote": dict(n_cliques=0.010, n_stars=0.015, clique_size=9, star_leaves=0.035),
        "bitcoin-alpha": dict(n_cliques=0.008, n_stars=0.015, clique_size=7, star_leaves=0.025),
    }
    profile = profiles[name]
    n_cliques = max(int(round(profile["n_cliques"] * n)), 2)
    n_stars = max(int(round(profile["n_stars"] * n)), 2)
    star_leaves = max(int(round(profile["star_leaves"] * n)), 6)

    # Reserve edge budget for the planted structures, build the core below it.
    approx_planted = n_cliques * (profile["clique_size"] ** 2) // 3 + n_stars * star_leaves
    core_edges = max(m_edges - approx_planted, n)
    m_attach = max(int(round(core_edges / n)), 1)
    graph = barabasi_albert(n, m_attach, rng=rng)

    planted = plant_anomalies(
        graph,
        n_cliques=n_cliques,
        n_stars=n_stars,
        clique_size=profile["clique_size"],
        star_leaves=star_leaves,
        rng=rng,
    )
    _adjust_edge_count(graph, m_edges, rng, protected=set(
        planted["cliques"] + planted["stars"]
    ))
    return Dataset(name=name, graph=graph, planted=planted)


def _adjust_edge_count(
    graph: Graph, target: int, rng: np.random.Generator, protected: set[int]
) -> None:
    """Add/remove random edges until within 2% of ``target``.

    Removals never touch edges incident to protected (planted-anomaly) nodes
    and never create singletons; additions avoid protected nodes too.
    """
    tolerance = max(int(0.02 * target), 1)
    n = graph.number_of_nodes
    guard = 20 * target + 1000
    while abs(graph.number_of_edges - target) > tolerance and guard > 0:
        guard -= 1
        current = graph.number_of_edges
        if current < target:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u == v or u in protected or v in protected or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
        else:
            edges = list(graph.edges())
            u, v = edges[int(rng.integers(len(edges)))]
            if u in protected or v in protected:
                continue
            if graph.degree(u) <= 1 or graph.degree(v) <= 1:
                continue
            graph.remove_edge(u, v)


def sample_connected_subgraph(graph: Graph, n_nodes: int, rng=None) -> Graph:
    """BFS-sample a connected subgraph of about ``n_nodes`` nodes.

    Mirrors the paper's pre-processing ("randomly sample the connected
    sub-graph with around 1000 nodes from the whole graph"): start a BFS at a
    random node of the largest component and keep the first ``n_nodes``
    discovered nodes.
    """
    generator = as_generator(rng)
    component = graph.largest_component()
    if len(component) == 0:
        raise ValueError("cannot sample from an empty graph")
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if n_nodes >= len(component):
        return graph.subgraph(component)

    start = int(generator.choice(component))
    visited = [start]
    seen = {start}
    frontier = [start]
    while frontier and len(visited) < n_nodes:
        next_frontier: list[int] = []
        for node in frontier:
            neighbors = list(graph.neighbors(node))
            generator.shuffle(neighbors)
            for neighbor in neighbors:
                if int(neighbor) not in seen:
                    seen.add(int(neighbor))
                    visited.append(int(neighbor))
                    next_frontier.append(int(neighbor))
                    if len(visited) >= n_nodes:
                        break
            if len(visited) >= n_nodes:
                break
        frontier = next_frontier
    return graph.subgraph(visited)


def dataset_statistics(dataset: Dataset) -> dict[str, float]:
    """Summary row used by the Table I reproduction."""
    graph = dataset.graph
    degrees = graph.degrees()
    return {
        "name": dataset.name,
        "nodes": graph.number_of_nodes,
        "edges": graph.number_of_edges,
        "mean_degree": float(degrees.mean()),
        "max_degree": float(degrees.max()),
        "connected": bool(graph.is_connected()),
    }
