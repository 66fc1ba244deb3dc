"""Fig. 7 — probability densities of ego-features N and E, clean vs
poisoned (Bitcoin-Alpha in the paper).

The plotted curves are reproduced as numeric (bin-center, density) series,
plus summary statistics making the "distributions barely move" point
quantitative.
"""

from __future__ import annotations

import numpy as np

from repro.attacks import BinarizedAttack
from repro.experiments.common import format_table, load_experiment_graph, sample_targets
from repro.experiments.config import CI, Scale
from repro.graph.sparse import egonet_features_sparse
from repro.ml.stats import histogram_density
from repro.oddball.detector import OddBall
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]


def run(
    scale: Scale = CI,
    seed: int = 7,
    dataset: str = "bitcoin-alpha",
    paper_targets: int = 30,
    bins: int = 30,
) -> dict:
    """Density series of N and E before/after a max-budget attack."""
    seeds = SeedSequenceFactory(seed)
    ds = load_experiment_graph(dataset, scale, seeds)
    graph = ds.graph
    detector = OddBall()
    report = detector.analyze(graph)
    targets = sample_targets(
        report, max(scale.scaled(paper_targets), 5), seeds.generator("fig7-targets")
    )
    budget = scale.budgets_for(graph.number_of_edges)[-1]
    result = BinarizedAttack(iterations=scale.attack_iterations).attack(graph, targets, budget)
    n_clean, e_clean = report.n_feature, report.e_feature
    n_poisoned, e_poisoned = egonet_features_sparse(result.poisoned())

    payload = {"scale": scale.name, "seed": seed, "dataset": dataset, "budget": budget,
               "series": {}, "summary": {}}
    for label, clean, dirty in (("N", n_clean, n_poisoned), ("E", e_clean, e_poisoned)):
        low = float(min(clean.min(), dirty.min()))
        high = float(max(clean.max(), dirty.max()))
        centers, density_clean = histogram_density(clean, bins=bins, value_range=(low, high))
        _, density_poisoned = histogram_density(dirty, bins=bins, value_range=(low, high))
        payload["series"][label] = {
            "centers": centers.tolist(),
            "clean": density_clean.tolist(),
            "poisoned": density_poisoned.tolist(),
        }
        payload["summary"][label] = {
            "mean_clean": float(clean.mean()),
            "mean_poisoned": float(dirty.mean()),
            "std_clean": float(clean.std()),
            "std_poisoned": float(dirty.std()),
            "total_variation": float(
                0.5 * np.abs(density_clean - density_poisoned).sum()
                * (centers[1] - centers[0] if len(centers) > 1 else 1.0)
            ),
        }
    return payload


def format_results(payload: dict) -> str:
    rows = []
    for feature, stats in payload["summary"].items():
        rows.append(
            [
                feature,
                stats["mean_clean"],
                stats["mean_poisoned"],
                stats["std_clean"],
                stats["std_poisoned"],
                stats["total_variation"],
            ]
        )
    return format_table(
        ["feature", "mean-clean", "mean-poisoned", "std-clean", "std-poisoned", "TV-distance"],
        rows,
        title=(
            f"Fig 7 — ego-feature distributions on {payload['dataset']} "
            f"(B={payload['budget']}, scale={payload['scale']})"
        ),
    )
