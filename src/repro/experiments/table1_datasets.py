"""Table I — statistics of the five evaluation graphs.

Extended beyond the paper's raw counts with a campaign-driven
*attackability* column: for every dataset one
:class:`~repro.attacks.campaign.AttackCampaign` sweeps GradMaxSearch over
the top-scoring OddBall targets (one job per target, shared engine) and the
table reports the mean τ_as and mean rank burial at the smallest Fig. 4
budget — a one-line summary of how hideable each graph's anomalies are.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.campaign import grid_jobs
from repro.attacks.executor import build_campaign
from repro.experiments.common import format_table, load_experiment_graph
from repro.experiments.config import CI, Scale
from repro.graph.datasets import DATASET_NAMES, dataset_statistics
from repro.oddball.detector import OddBall
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]

#: The paper's Table I (nodes, edges) for reference in the printed output.
PAPER_TABLE_I = {
    "er": (1000, 9948),
    "ba": (1000, 4975),
    "blogcatalog": (1000, 6190),
    "wikivote": (1012, 4860),
    "bitcoin-alpha": (1025, 2311),
}

#: Targets per dataset in the attackability sweep (top AScore nodes).
ATTACK_TARGETS = 3

#: Fixed attack budget for the store-backed (paper-scale) rows: the
#: fraction-of-edges budgets the sampled graphs use would mean tens of
#: thousands of flips per job at 2.1M edges — the store rows instead probe
#: the paper's budget-5 GradMaxSearch setting.
STORE_ATTACK_BUDGET = 5


def run(
    scale: Scale = CI,
    seed: int = 7,
    workers: int = 1,
    store_datasets: "Sequence[str] | bool" = False,
    store_cache=None,
) -> dict:
    """Generate all five graphs; collect statistics + attackability.

    ``workers > 1`` runs each dataset's attackability sweep through the
    lease-queue campaign executor (bit-identical outcomes, drained by
    worker processes).  ``store_datasets`` appends paper-scale rows backed
    by memory-mapped graph stores: ``True`` for every ``*-full`` name, or
    an explicit name list (``["blogcatalog-full"]`` is the one the paper
    attacks at 88.8k nodes).  Store rows run their attackability sweep
    through ``store``-kind engine specs — workers mmap the graph instead
    of receiving an array payload.
    """
    seeds = SeedSequenceFactory(seed)
    detector = OddBall()
    rows = []
    for name in DATASET_NAMES:
        dataset = load_experiment_graph(name, scale, seeds)
        stats = dataset_statistics(dataset)
        paper_nodes, paper_edges = PAPER_TABLE_I[name]
        stats["paper_nodes"] = round(paper_nodes * scale.graph_scale)
        stats["paper_edges"] = round(paper_edges * scale.graph_scale)

        # Attackability: one campaign, one job per top-scoring target.
        graph = dataset.graph
        budget = scale.budgets_for(graph.number_of_edges)[0]
        targets = detector.analyze(graph).top_k(ATTACK_TARGETS).tolist()
        rows.append(
            _attackability(stats, graph, targets, budget, workers)
        )

    if store_datasets:
        from repro.store import STORE_DATASET_NAMES

        names = (
            STORE_DATASET_NAMES if store_datasets is True else store_datasets
        )
        for name in names:
            rows.append(_store_row(name, scale, seed, workers, store_cache))
    return {"scale": scale.name, "seed": seed, "rows": rows}


def _attackability(
    stats: dict, graph, targets: "list[int]", budget: int, workers: int,
) -> dict:
    """Fill the attackability columns of one table row in place."""
    campaign = build_campaign(graph, workers=workers)
    sweep = campaign.run(
        grid_jobs(
            "gradmaxsearch",
            [[t] for t in targets],
            budgets=[budget],
            candidates="target_incident",
        )
    )
    shifts = [
        shift for outcome in sweep for shift in outcome.rank_shifts.values()
    ]
    stats["attack_budget"] = budget
    stats["attack_tau"] = float(
        np.mean([outcome.score_decrease for outcome in sweep])
    )
    stats["attack_rank_shift"] = float(np.mean(shifts)) if shifts else 0.0
    return stats


def _store_row(
    name: str, scale: Scale, seed: int, workers: int, store_cache,
) -> dict:
    """One paper-scale row: store-backed stats + a budget-5 sweep."""
    from repro.graph.datasets import load_dataset

    dataset = load_dataset(name, rng=seed, scale=scale.graph_scale,
                           cache_dir=store_cache)
    stats = dataset_statistics(dataset)
    store = dataset.graph
    stats["paper_nodes"] = store.recipe["nodes"]
    stats["paper_edges"] = store.recipe["edges"]
    targets = store.top_targets(ATTACK_TARGETS)
    return _attackability(stats, store, targets, STORE_ATTACK_BUDGET,
                          workers)


def format_results(payload: dict) -> str:
    """Printable Table I reproduction (+ attackability summary)."""
    rows = [
        [
            r["name"],
            r["nodes"],
            r["edges"],
            r["paper_nodes"],
            r["paper_edges"],
            r["mean_degree"],
            r["max_degree"],
            "yes" if r["connected"] else "no",
            f"{r['attack_tau']:.3f}@{r['attack_budget']}",
            r["attack_rank_shift"],
        ]
        for r in payload["rows"]
    ]
    return format_table(
        ["dataset", "nodes", "edges", "paper-nodes(scaled)", "paper-edges(scaled)",
         "mean-deg", "max-deg", "connected", "tau@b", "rank-shift"],
        rows,
        title=f"Table I — dataset statistics (scale={payload['scale']})",
    )
