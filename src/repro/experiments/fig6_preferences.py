"""Fig. 6 — attack preferences across initial-AScore groups.

Nodes are split at the 10th/90th AScore percentiles into low/medium/high
groups; 10 targets are sampled from each and attacked *jointly*.  The paper
observes that the high group's scores drop far more than the others', i.e.
BinarizedAttack concentrates its budget on the most anomalous targets.  The
companion panels report the log-log regression line before (B=0) and after
(B=60) poisoning.
"""

from __future__ import annotations

from repro.attacks import BinarizedAttack
from repro.experiments.common import format_table, load_experiment_graph, top_score_groups
from repro.experiments.config import CI, Scale
from repro.oddball.detector import OddBall
from repro.oddball.scores import tau_as
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]


def run(
    scale: Scale = CI,
    seed: int = 7,
    dataset: str = "blogcatalog",
    per_group: int = 10,
    paper_budget: int = 60,
) -> dict:
    """Joint attack on a low/medium/high target mix; per-group τ series."""
    seeds = SeedSequenceFactory(seed)
    ds = load_experiment_graph(dataset, scale, seeds)
    graph = ds.graph
    scores, low, medium, high = top_score_groups(graph)

    rng = seeds.generator("fig6-targets")
    per_group = min(per_group, len(low), len(medium), len(high))
    groups = {
        "low": sorted(int(v) for v in rng.choice(low, size=per_group, replace=False)),
        "medium": sorted(int(v) for v in rng.choice(medium, size=per_group, replace=False)),
        "high": sorted(int(v) for v in rng.choice(high, size=per_group, replace=False)),
    }
    targets = sorted(groups["low"] + groups["medium"] + groups["high"])

    max_budget = max(scale.scaled(paper_budget), 6)
    budgets = sorted({max(int(round(f * max_budget)), 1) for f in (0.25, 0.5, 0.75, 1.0)})
    attack = BinarizedAttack(iterations=scale.attack_iterations)
    result = attack.attack(graph, targets, max_budget)

    detector = OddBall()
    series: dict[str, list[float]] = {name: [] for name in groups}
    for budget in budgets:
        poisoned_scores = detector.scores(result.poisoned(budget))
        for name, members in groups.items():
            before = float(scores[members].sum())
            after = float(poisoned_scores[members].sum())
            series[name].append(tau_as(before, after))

    fit_clean = detector.analyze(graph).fit
    fit_poisoned = detector.analyze(result.poisoned(max_budget)).fit
    return {
        "scale": scale.name,
        "seed": seed,
        "dataset": dataset,
        "budgets": budgets,
        "edges_changed_pct": [100.0 * b / graph.number_of_edges for b in budgets],
        "groups": groups,
        "tau_by_group": series,
        "regression_clean": {"beta0": fit_clean.beta0, "beta1": fit_clean.beta1},
        "regression_poisoned": {"beta0": fit_poisoned.beta0, "beta1": fit_poisoned.beta1},
    }


def format_results(payload: dict) -> str:
    rows = []
    for i, pct in enumerate(payload["edges_changed_pct"]):
        rows.append(
            [
                f"{pct:.2f}%",
                payload["tau_by_group"]["low"][i],
                payload["tau_by_group"]["medium"][i],
                payload["tau_by_group"]["high"][i],
            ]
        )
    table = format_table(
        ["edges-changed", "tau-low", "tau-medium", "tau-high"],
        rows,
        title=(
            f"Fig 6 — per-group AScore decrease on {payload['dataset']} "
            f"(scale={payload['scale']})"
        ),
    )
    clean = payload["regression_clean"]
    poisoned = payload["regression_poisoned"]
    lines = [
        table,
        "",
        f"regression clean    : lnE = {clean['beta0']:.3f} + {clean['beta1']:.3f} lnN",
        f"regression poisoned : lnE = {poisoned['beta0']:.3f} + {poisoned['beta1']:.3f} lnN",
    ]
    return "\n".join(lines)
