"""Fig. 10 — countermeasures: OddBall with robust estimators under attack.

BinarizedAttack poisons the graph as usual (against OLS OddBall); the
defender then re-estimates the regression with Huber or RANSAC.  Paper
finding: both robust estimators *slightly* mitigate the attack — the τ_as
curves sit a little below the no-defence curve — but the attack remains very
effective.
"""

from __future__ import annotations

import numpy as np

from repro.attacks import BinarizedAttack
from repro.experiments.common import format_table, load_experiment_graph, sample_targets
from repro.experiments.config import CI, Scale
from repro.oddball.detector import OddBall
from repro.oddball.robust import ESTIMATORS
from repro.oddball.scores import tau_as
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]

DATASETS = ("bitcoin-alpha", "wikivote")


def run(
    scale: Scale = CI,
    seed: int = 7,
    datasets=DATASETS,
    paper_targets: int = 10,
) -> dict:
    """τ_as under each estimator, averaged over target samplings."""
    seeds = SeedSequenceFactory(seed)
    detector = OddBall()
    results = {}
    for name in datasets:
        dataset = load_experiment_graph(name, scale, seeds)
        graph = dataset.graph
        budgets = scale.budgets_for(graph.number_of_edges)
        n_targets = max(scale.scaled(paper_targets), 3)
        report = detector.analyze(graph)
        attack = BinarizedAttack(iterations=scale.attack_iterations)

        curves = {est: np.zeros(len(budgets)) for est in ESTIMATORS}
        for repeat in range(scale.n_repeats):
            rng = seeds.generator(f"fig10-{name}-{repeat}")
            targets = sample_targets(report, n_targets, rng)
            result = attack.attack(graph, targets, budgets[-1])
            for estimator in ESTIMATORS:
                est_rng = seeds.generator(f"fig10-est-{name}-{estimator}-{repeat}")
                before = float(OddBall(estimator, est_rng).scores(graph)[targets].sum())
                for i, budget in enumerate(budgets):
                    est_rng_b = seeds.generator(
                        f"fig10-est-{name}-{estimator}-{repeat}-{budget}"
                    )
                    poisoned = result.poisoned(budget)
                    after = float(OddBall(estimator, est_rng_b).scores(poisoned)[targets].sum())
                    curves[estimator][i] += tau_as(before, after) / scale.n_repeats
        results[name] = {
            "budgets": budgets,
            "edges_changed_pct": [100.0 * b / graph.number_of_edges for b in budgets],
            "tau": {est: curve.tolist() for est, curve in curves.items()},
        }
    return {"scale": scale.name, "seed": seed, "datasets": results}


def format_results(payload: dict) -> str:
    blocks = []
    for name, data in payload["datasets"].items():
        rows = []
        for i, pct in enumerate(data["edges_changed_pct"]):
            rows.append(
                [
                    f"{pct:.2f}%",
                    data["tau"]["ols"][i],
                    data["tau"]["huber"][i],
                    data["tau"]["ransac"][i],
                ]
            )
        blocks.append(
            format_table(
                ["edges-changed", "no-defence(OLS)", "Huber", "RANSAC"],
                rows,
                title=f"Fig 10 [{name}] — defence curves (scale={payload['scale']})",
            )
        )
    return "\n\n".join(blocks)
