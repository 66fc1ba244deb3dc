"""Fig. 4 — attack effectiveness: τ_as vs. edges-changed % for the three
attack methods on all five datasets.

Protocol (Section VIII-A/B): targets are sampled from the top-50 AScore
nodes (|T| = 10 for the synthetic graphs and both 10 and 30 for the real
ones), 5 samplings are averaged, and each attack is swept over a budget grid
expressed as a fraction of the clean edge count.

The sweep itself — (repeat × method) jobs per panel — is executed through
:class:`~repro.attacks.campaign.AttackCampaign`: one shared surrogate
engine per dataset instead of one per attack call, duplicate target
samplings deduplicated, and (with ``campaign_checkpoint``) every panel
resumable mid-sweep.  Flip sets are identical to the pre-campaign
per-call driver (the campaign equivalence suite pins this down).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.attacks.campaign import AttackJob
from repro.attacks.candidates import block_params
from repro.attacks.executor import build_campaign
from repro.experiments.common import (
    attack_suite_params,
    format_table,
    load_experiment_graph,
    sample_targets,
    tau_for_budgets,
)
from repro.experiments.config import CI, Scale
from repro.graph.sparse import to_sparse
from repro.oddball.detector import OddBall
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]

_log = get_logger("experiments.fig4")

#: (dataset, paper target count) pairs — one per Fig. 4 panel.
PANELS = (
    ("er", 10),
    ("ba", 10),
    ("blogcatalog", 10),
    ("blogcatalog", 30),
    ("bitcoin-alpha", 10),
    ("bitcoin-alpha", 30),
    ("wikivote", 10),
    ("wikivote", 30),
)


def run(
    scale: Scale = CI,
    seed: int = 7,
    panels=PANELS,
    candidates: "str | None" = None,
    block_size: "int | None" = None,
    block_seed: int = 0,
    campaign_checkpoint: "Path | str | None" = None,
    workers: int = 1,
) -> dict:
    """Sweep every panel; returns per-panel series (mean over repeats).

    ``candidates`` picks an optional candidate-pair strategy (one of
    :data:`~repro.attacks.candidates.CANDIDATE_STRATEGIES`; ``None`` means
    ``"full"``, every pair a decision variable).  At
    large n it matters: the sparse engine removes the O(n³) forward, and
    a pruned candidate set removes the O(n²) decision-variable arrays.
    ``block_size``/``block_seed``
    parametrise the ``"block"`` strategy (they enter each job's content
    hash, keeping block sweeps checkpoint-resumable); with any other
    strategy they raise ``ValueError``
    (:func:`~repro.attacks.candidates.block_params`).

    ``campaign_checkpoint`` names a directory: each panel's campaign then
    persists completed jobs to ``fig4_<panel>.json`` there, and an
    interrupted sweep resumes from the last completed job.

    ``workers > 1`` drains each panel's job grid through a
    :class:`~repro.attacks.scheduler.SchedulingCampaignExecutor` (one
    engine per worker process, shared lease queue) — results are
    bit-identical to the serial campaign, the mixed-cost panel grids drain
    without idle workers, a killed worker's jobs are requeued, and
    checkpoints interoperate across worker counts.
    """
    seeds = SeedSequenceFactory(seed)
    detector = OddBall()
    method_params = attack_suite_params(scale)
    strategy_params = block_params(candidates, block_size, block_seed)
    results = []
    for dataset_name, paper_targets in panels:
        dataset = load_experiment_graph(dataset_name, scale, seeds)
        graph = dataset.graph
        # validated once: the campaign, every attack result and every τ
        # re-score hold this CSR instead of re-reading the dense array
        adjacency = to_sparse(graph)
        n_edges = graph.number_of_edges
        budgets = scale.budgets_for(n_edges)
        n_targets = max(scale.scaled(paper_targets), 3)
        report = detector.analyze(adjacency)

        # Build the whole panel's job grid up front: (repeat × method) jobs
        # against ONE shared engine.  Identical samplings collapse to one
        # job (same content hash), so repeated target draws are free.
        panel_name = f"{dataset_name}-{paper_targets}"
        repeat_jobs: list[dict[str, AttackJob]] = []
        unique_jobs: dict[str, AttackJob] = {}
        for repeat in range(scale.n_repeats):
            rng = seeds.generator(f"targets-{dataset_name}-{paper_targets}-{repeat}")
            targets = sample_targets(report, n_targets, rng)
            methods = {}
            for method_name, params in method_params.items():
                job = AttackJob.make(
                    method_name, targets, budgets[-1],
                    candidates=candidates, **params, **strategy_params,
                )
                methods[method_name] = job
                unique_jobs.setdefault(job.job_id, job)
            repeat_jobs.append(methods)

        checkpoint_path = None
        if campaign_checkpoint is not None:
            checkpoint_path = Path(campaign_checkpoint) / f"fig4_{panel_name}.json"
        campaign = build_campaign(
            adjacency, checkpoint_path=checkpoint_path,
            compute_ranks=False, workers=workers,
        )
        sweep = campaign.run(unique_jobs.values())

        per_method: dict[str, list[list[float]]] = {
            name: [] for name in method_params
        }
        for repeat, methods in enumerate(repeat_jobs):
            for method_name, job in methods.items():
                outcome = sweep.outcome(job)
                result = outcome.attack_result(adjacency)
                taus = tau_for_budgets(adjacency, result, job.targets, budgets)
                per_method[method_name].append(taus)
                _log.info(
                    "%s |T|=%d rep=%d %s tau@max=%.3f",
                    dataset_name, n_targets, repeat, method_name, taus[-1],
                )
        results.append(
            {
                "panel": panel_name,
                "dataset": dataset_name,
                "paper_target_count": paper_targets,
                "target_count": n_targets,
                "n_edges": n_edges,
                "budgets": budgets,
                "edges_changed_pct": [100.0 * b / n_edges for b in budgets],
                "campaign_seconds": sweep.seconds,
                "campaign_jobs": len(sweep),
                "campaign_resumed_jobs": sweep.resumed_jobs,
                "campaign_peak_rss_kb": sweep.peak_rss_kb,
                "campaign_dead_workers": list(sweep.dead_workers),
                "campaign_requeues": sweep.requeues,
                "tau_mean": {
                    name: np.mean(np.array(rows), axis=0).tolist()
                    for name, rows in per_method.items()
                },
                "tau_std": {
                    name: np.std(np.array(rows), axis=0).tolist()
                    for name, rows in per_method.items()
                },
            }
        )
    return {
        "scale": scale.name,
        "seed": seed,
        "candidates": candidates,
        "block_size": block_size,
        "block_seed": block_seed,
        "workers": workers,
        "panels": results,
    }


def format_results(payload: dict) -> str:
    """One text block per Fig. 4 panel: the plotted series as numbers."""
    blocks = []
    for panel in payload["panels"]:
        rows = []
        for i, pct in enumerate(panel["edges_changed_pct"]):
            rows.append(
                [
                    f"{pct:.2f}%",
                    panel["tau_mean"]["gradmaxsearch"][i],
                    panel["tau_mean"]["continuousa"][i],
                    panel["tau_mean"]["binarizedattack"][i],
                ]
            )
        blocks.append(
            format_table(
                ["edges-changed", "gradmaxsearch", "continuousa", "binarizedattack"],
                rows,
                title=(
                    f"Fig 4 [{panel['panel']}] τ_as (|T|={panel['target_count']}, "
                    f"mean of repeats, scale={payload['scale']})"
                ),
            )
        )
        if panel.get("campaign_peak_rss_kb") or panel.get("campaign_requeues"):
            blocks.append(
                f"  run stats [{panel['panel']}]: "
                f"peak worker RSS {panel['campaign_peak_rss_kb'] / 1024:.1f} MiB, "
                f"requeues {panel['campaign_requeues']}, "
                f"dead workers {panel['campaign_dead_workers'] or 'none'}"
            )
    return "\n\n".join(blocks)
