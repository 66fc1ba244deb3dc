"""Experiment runner: regenerate any (or every) table/figure of the paper.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --experiment fig4 --scale ci
    python -m repro.experiments.runner --all --scale paper --output results/

Each driver returns a JSON-serialisable payload and a formatted text block;
the runner prints the text and optionally persists the payload.

``--candidates {target_incident,two_hop,adaptive}`` optionally prunes the
decision variables of the attack-driven figures (fig4, fig5).  At large n
add a strategy: the sparse engine removes the O(n³) forward pass and the
candidate strategy removes the O(n²) pair arrays — e.g.::

    python -m repro.experiments.runner -e fig4 --candidates target_incident

``--kernels {auto,numpy,compiled}`` sets the process-wide default for the
hot-loop kernel backend (:mod:`repro.kernels`); flip sets are bit-identical
either way, ``compiled`` is purely a wall-clock lever.

``--campaign-checkpoint DIR`` makes the campaign-driven sweeps (fig4)
persist per-panel job checkpoints under DIR, so an interrupted sweep
resumes from the last completed job::

    python -m repro.experiments.runner -e fig4 --scale paper \
        --campaign-checkpoint results/checkpoints/

``--workers N`` drains the campaign-driven sweeps (fig4, table1) on N
worker processes through the lease queue of :mod:`repro.attacks.scheduler`
— one surrogate engine per worker, results bit-identical to the serial
run, checkpoints that resume across *different* worker counts, and a
killed worker's jobs requeued after the lease TTL (``$REPRO_LEASE_TTL``,
default 30 s) instead of failing the sweep::

    python -m repro.experiments.runner -e fig4 --scale paper --workers 4

``--telemetry DIR`` turns on :mod:`repro.telemetry` process-wide: the
campaigns, executors, scheduler and kernels the drivers touch write a
structured trace (spans, scheduler events, kernel counters) under DIR —
inspect it afterwards with ``python -m repro.telemetry report DIR``.
Results are bit-identical with or without it.

Drivers that do not run attacks ignore these flags.
"""

from __future__ import annotations

import argparse
import inspect
from pathlib import Path
from typing import Callable

from repro.experiments import (
    fig4_effectiveness,
    fig5_case_study,
    fig6_preferences,
    fig7_distributions,
    fig8_9_embeddings,
    fig10_defense,
    table1_datasets,
    table2_side_effects,
    table3_gal,
    table4_refex,
)
from repro.experiments.config import CI, PAPER, SMOKE, Scale
from repro.utils.serialization import save_json

__all__ = ["EXPERIMENTS", "main", "run_experiment"]

EXPERIMENTS: dict[str, tuple[Callable, Callable]] = {
    "table1": (table1_datasets.run, table1_datasets.format_results),
    "fig4": (fig4_effectiveness.run, fig4_effectiveness.format_results),
    "fig5": (fig5_case_study.run, fig5_case_study.format_results),
    "fig6": (fig6_preferences.run, fig6_preferences.format_results),
    "table2": (table2_side_effects.run, table2_side_effects.format_results),
    "fig7": (fig7_distributions.run, fig7_distributions.format_results),
    "table3": (table3_gal.run, table3_gal.format_results),
    "table4": (table4_refex.run, table4_refex.format_results),
    "fig8_9": (fig8_9_embeddings.run, fig8_9_embeddings.format_results),
    "fig10": (fig10_defense.run, fig10_defense.format_results),
}

_SCALES = {"paper": PAPER, "ci": CI, "smoke": SMOKE}


def run_experiment(
    name: str,
    scale: Scale = CI,
    seed: int = 7,
    output_dir: "Path | None" = None,
    candidates: "str | None" = None,
    block_size: "int | None" = None,
    block_seed: int = 0,
    campaign_checkpoint: "Path | None" = None,
    workers: int = 1,
    store_datasets: bool = False,
    store_cache: "Path | None" = None,
) -> tuple[dict, str]:
    """Run one experiment; returns (payload, formatted text).

    ``candidates``, ``campaign_checkpoint``, ``workers`` and the store
    flags are forwarded to
    drivers that accept them (the attack-driven figures;
    ``store_datasets`` currently extends table1 with memory-mapped
    paper-scale rows); the rest run unchanged.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    run_fn, format_fn = EXPERIMENTS[name]
    parameters = inspect.signature(run_fn).parameters
    kwargs = {}
    if "candidates" in parameters:
        kwargs["candidates"] = candidates
    if "block_size" in parameters and candidates == "block":
        kwargs["block_size"] = block_size
        kwargs["block_seed"] = block_seed
    if "campaign_checkpoint" in parameters and campaign_checkpoint is not None:
        kwargs["campaign_checkpoint"] = campaign_checkpoint
    if "workers" in parameters and workers != 1:
        kwargs["workers"] = workers
    if "store_datasets" in parameters and store_datasets:
        kwargs["store_datasets"] = store_datasets
        kwargs["store_cache"] = store_cache
    payload = run_fn(scale=scale, seed=seed, **kwargs)
    text = format_fn(payload)
    if output_dir is not None:
        save_json(Path(output_dir) / f"{name}_{scale.name}.json", payload)
        (Path(output_dir) / f"{name}_{scale.name}.txt").write_text(text + "\n")
    return payload, text


def _list_experiments() -> str:
    """One line per experiment: name, whether it takes --candidates, summary."""
    lines = []
    for name in sorted(EXPERIMENTS):
        run_fn, _ = EXPERIMENTS[name]
        doc = (inspect.getdoc(inspect.getmodule(run_fn)) or "").splitlines()
        summary = doc[0].strip() if doc else ""
        attack_driven = "candidates" in inspect.signature(run_fn).parameters
        flag = " [--candidates]" if attack_driven else ""
        lines.append(f"{name:<8}{flag:<15} {summary}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", "-e", choices=sorted(EXPERIMENTS), default=None)
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--scale", choices=sorted(_SCALES), default="ci")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kernels", choices=["auto", "numpy", "compiled"],
                        default=None,
                        help="hot-loop kernel backend (repro.kernels); sets "
                             "the process-wide default, so every engine the "
                             "drivers build picks it up")
    parser.add_argument("--candidates",
                        choices=["full", "target_incident", "two_hop",
                                 "adaptive", "adaptive_gradient", "block"],
                        default=None,
                        help="candidate-pair strategy for the attack-driven "
                             "figures (default: legacy full-pair variables); "
                             "'block' is the PRBCD random block with "
                             "gradient resampling, O(block-size) memory "
                             "regardless of n")
    parser.add_argument("--block-size", type=int, default=None,
                        help="size cap of the 'block' candidate strategy "
                             "(default: budget-scaled via "
                             "repro.attacks.candidates.default_block_size)")
    parser.add_argument("--block-seed", type=int, default=0,
                        help="sampling seed of the 'block' strategy; part "
                             "of each job's content hash, so reruns and "
                             "checkpoint resumes reproduce the same blocks")
    parser.add_argument("--campaign-checkpoint", type=Path, default=None,
                        help="directory for resumable per-panel campaign "
                             "checkpoints (campaign-driven sweeps only)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the campaign-driven sweeps "
                             "(1 = serial; results are identical either way)")
    parser.add_argument("--store-datasets", action="store_true",
                        help="include the memory-mapped paper-scale *-full "
                             "datasets (table1; builds/reuses graph stores)")
    parser.add_argument("--store-cache", type=Path, default=None,
                        help="graph-store cache directory (default: "
                             "$REPRO_STORE_CACHE or ./.repro-store-cache)")
    parser.add_argument("--telemetry", type=Path, default=None, metavar="DIR",
                        help="write a structured trace (repro.telemetry "
                             "spans/events/counters) under DIR; inspect "
                             "afterwards with `python -m repro.telemetry "
                             "report DIR` (default: $REPRO_TELEMETRY or "
                             "off; results are bit-identical either way)")
    parser.add_argument("--output", type=Path, default=None, help="directory for JSON/text dumps")
    args = parser.parse_args(argv)

    if args.list:
        print(_list_experiments())
        return 0
    if args.kernels is not None:
        from repro.kernels import set_default_kernels

        # Process-wide default: drivers build engines many layers down, so
        # one switch here beats threading the flag through every driver
        # signature (workers inherit it through the EngineSpec they get).
        set_default_kernels(args.kernels)
    if args.telemetry is not None:
        from repro import telemetry

        # Same process-wide pattern as --kernels: the drivers' campaigns,
        # executors and engines pick the active tracer up wherever they
        # run, and executor children get their own sink via worker specs.
        telemetry.configure(args.telemetry)
    names = sorted(EXPERIMENTS) if args.all else [args.experiment]
    if names == [None]:
        parser.error("provide --experiment NAME, --all or --list")
    from repro import telemetry

    for name in names:
        # One span per experiment even when the driver itself emits
        # nothing (dense path, no campaign), so a --telemetry run always
        # produces a trace to report on.
        with telemetry.span("runner.experiment", experiment=name,
                            scale=args.scale):
            _, text = run_experiment(
                name,
                scale=_SCALES[args.scale],
                seed=args.seed,
                output_dir=args.output,
                candidates=args.candidates,
                block_size=args.block_size,
                block_seed=args.block_seed,
                campaign_checkpoint=args.campaign_checkpoint,
                workers=args.workers,
                store_datasets=args.store_datasets,
                store_cache=args.store_cache,
            )
        print(text)
        print()
    if args.telemetry is not None:
        from repro import telemetry

        telemetry.shutdown()
        print(
            f"telemetry trace: {args.telemetry} (inspect with "
            f"`python -m repro.telemetry report {args.telemetry}`)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
