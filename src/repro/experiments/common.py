"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks import BinarizedAttack, ContinuousA, GradMaxSearch, StructuralAttack
from repro.experiments.config import Scale
from repro.graph.datasets import Dataset, load_dataset
from repro.graph.graph import Graph
from repro.oddball.detector import DetectionReport, OddBall
from repro.oddball.scores import anomaly_scores
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "attack_suite",
    "attack_suite_params",
    "format_table",
    "load_experiment_graph",
    "sample_targets",
    "tau_for_budgets",
]


def load_experiment_graph(name: str, scale: Scale, seeds: SeedSequenceFactory) -> Dataset:
    """Dataset for an experiment, at the preset's graph scale."""
    return load_dataset(name, rng=seeds.generator(f"dataset-{name}"), scale=scale.graph_scale)


def sample_targets(
    report: DetectionReport,
    count: int,
    rng: np.random.Generator,
    pool_size: int = 50,
) -> list[int]:
    """Sample ``count`` targets from the top-``pool_size`` AScore nodes.

    Mirrors the paper's protocol: "sampling 10 or 30 target nodes from the
    top-50 nodes based on AScore rankings".
    """
    pool = report.top_k(min(pool_size, len(report.scores)))
    count = min(count, len(pool))
    chosen = rng.choice(pool, size=count, replace=False)
    return sorted(int(v) for v in chosen)


def attack_suite(scale: Scale) -> dict[str, StructuralAttack]:
    """The paper's three methods with scale-appropriate iteration counts."""
    return {
        "gradmaxsearch": GradMaxSearch(),
        "continuousa": ContinuousA(max_iter=scale.attack_iterations),
        "binarizedattack": BinarizedAttack(iterations=scale.attack_iterations),
    }


def attack_suite_params(scale: Scale) -> dict[str, dict]:
    """:func:`attack_suite` as campaign job parameters.

    The campaign layer instantiates attacks from serialisable specs, so
    the sweep drivers describe the suite as constructor kwargs instead of
    instances — keeping :func:`attack_suite` and the campaign-driven
    figures in lock-step (a mismatch here would break the figure-level
    equivalence tests).
    """
    return {
        "gradmaxsearch": {},
        "continuousa": {"max_iter": scale.attack_iterations},
        "binarizedattack": {"iterations": scale.attack_iterations},
    }


def tau_for_budgets(
    original: np.ndarray,
    result,
    targets: Sequence[int],
    budgets: Sequence[int],
) -> list[float]:
    """τ_as at each budget, computing clean scores once."""
    targets = list(targets)
    before = float(anomaly_scores(original)[targets].sum())
    out = []
    for budget in budgets:
        after = float(anomaly_scores(result.poisoned(budget))[targets].sum())
        out.append(0.0 if before <= 0 else (before - after) / before)
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width text table (the benches print these as the paper's artefacts)."""
    headers = [str(h) for h in headers]
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def top_score_groups(
    graph: Graph, low_pct: float = 10.0, high_pct: float = 90.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split nodes into low/medium/high AScore groups (Fig. 6 protocol)."""
    scores = OddBall().scores(graph)
    q1, q2 = np.percentile(scores, [low_pct, high_pct])
    low = np.flatnonzero(scores <= q1)
    high = np.flatnonzero(scores >= q2)
    medium = np.flatnonzero((scores > q1) & (scores < q2))
    return scores, low, medium, high
