"""Fig. 5 — case studies: how BinarizedAttack rewires individual egonets.

The paper shows three single-target cases on Wikivote: (1) the attack adds
edges only, (2) deletes edges only, (3) mixes both — in every case the
near-star / near-clique egonet is pushed back to a "normal" density and the
AScore collapses (e.g. 6.05 → 0.69).  We reproduce the numbers behind the
drawings: per-case AScore before/after, the add/delete split, and the egonet
density before/after.
"""

from __future__ import annotations


from repro.attacks import BinarizedAttack
from repro.experiments.common import format_table, load_experiment_graph
from repro.experiments.config import CI, Scale
from repro.graph.graph import Graph
from repro.oddball.detector import OddBall
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]


def _egonet_density(graph: Graph, node: int) -> float:
    """Edge density of the node's egonet (1.0 = clique, →0 = star)."""
    ego = graph.egonet(node)
    n = ego.number_of_nodes
    possible = n * (n - 1) / 2
    return ego.number_of_edges / possible if possible > 0 else 0.0


def _classify_case(adds: int, deletes: int) -> str:
    if adds and not deletes:
        return "add-only"
    if deletes and not adds:
        return "delete-only"
    if adds and deletes:
        return "add+delete"
    return "no-op"


def run(
    scale: Scale = CI,
    seed: int = 7,
    dataset: str = "wikivote",
    n_cases: int = 3,
    candidates: "str | None" = None,
) -> dict:
    """Attack the ``n_cases`` top anomalies one at a time, logging the rewiring.

    ``candidates`` selects an optional pair-pruning strategy, so the case
    studies can be reproduced on full-size graphs (``"target_incident"``
    keeps the decision variables sub-quadratic; the sparse engine already
    keeps the forward pass so).
    """
    seeds = SeedSequenceFactory(seed)
    ds = load_experiment_graph(dataset, scale, seeds)
    graph = ds.graph
    detector = OddBall()
    report = detector.analyze(graph)
    # Prefer structurally diverse cases: highest-scoring star-like (sparse
    # egonet) and clique-like (dense egonet) nodes first.
    ranked = report.top_k(min(20, graph.number_of_nodes))
    densities = {int(v): _egonet_density(graph, int(v)) for v in ranked}
    stars = sorted(ranked, key=lambda v: densities[int(v)])
    cliques = sorted(ranked, key=lambda v: -densities[int(v)])
    chosen: list[int] = []
    for pool in (stars, cliques, list(ranked)):
        for v in pool:
            if int(v) not in chosen:
                chosen.append(int(v))
                break
    chosen = chosen[:n_cases]

    attack = BinarizedAttack(iterations=scale.attack_iterations)
    budget = max(scale.scaled(10), 4)
    cases = []
    for node in chosen:
        result = attack.attack(graph, [node], budget, candidates=candidates)
        flips = result.flips()
        adds = sum(1 for u, v in flips if graph.adjacency_view[u, v] == 0.0)
        deletes = len(flips) - adds
        poisoned = Graph(result.poisoned().toarray())
        cases.append(
            {
                "target": node,
                "case": _classify_case(adds, deletes),
                "ascore_before": float(report.scores[node]),
                "ascore_after": float(detector.scores(poisoned)[node]),
                "edges_added": adds,
                "edges_deleted": deletes,
                "egonet_density_before": densities.get(node, _egonet_density(graph, node)),
                "egonet_density_after": _egonet_density(poisoned, node),
                "egonet_size_before": int(graph.degree(node)) + 1,
                "egonet_size_after": int(poisoned.degree(node)) + 1,
            }
        )
    return {"scale": scale.name, "seed": seed, "dataset": dataset, "budget": budget,
            "candidates": candidates, "cases": cases}


def format_results(payload: dict) -> str:
    rows = [
        [
            f"v{c['target']}",
            c["case"],
            c["ascore_before"],
            c["ascore_after"],
            c["edges_added"],
            c["edges_deleted"],
            c["egonet_density_before"],
            c["egonet_density_after"],
        ]
        for c in payload["cases"]
    ]
    return format_table(
        ["target", "case", "AScore-before", "AScore-after", "added", "deleted",
         "ego-density-before", "ego-density-after"],
        rows,
        title=(
            f"Fig 5 — BinarizedAttack case studies on {payload['dataset']} "
            f"(B={payload['budget']}, scale={payload['scale']})"
        ),
    )
