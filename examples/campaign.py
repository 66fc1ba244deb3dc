"""AttackCampaign walkthrough: a targets × budgets sweep on one graph.

README-level summary
--------------------
The paper's experiments never run ONE attack — they sweep grids: many
targets × many budgets × several attacks, all against the same clean
graph.  Run naively, every ``attack()`` call pays the same
fixed costs again (adjacency validation, the O(n + m) sparse feature
build, candidate arrays, poisoned-graph materialisation for evaluation).

``AttackCampaign`` batches the whole grid onto one shared sparse surrogate
engine: between jobs it *retargets* (swap targets/candidates in O(|C|))
and *rolls back* the previous job's flips (O(deg) per flip) instead of
rebuilding anything.  Results are identical to independent runs — the
campaign is purely a performance layer.

Campaigns are resumable: pass ``checkpoint_path`` and every completed job
is persisted; rerunning the same spec skips straight past them, so an
interrupted overnight sweep restarts from the last completed job.

Run:  python examples/campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.attacks import AttackCampaign, grid_jobs
from repro.graph import load_dataset
from repro.oddball import OddBall


def main() -> None:
    # 1. One clean graph, many anomalous targets.  (At this demo scale the
    #    graph is small; the campaign machinery is the same one that runs
    #    50-target sweeps on sparse 10k-node graphs.)
    dataset = load_dataset("bitcoin-alpha", rng=7, scale=0.5)
    graph = dataset.graph
    report = OddBall().analyze(graph)
    targets = report.top_k(12).tolist()
    print(f"graph: {graph.number_of_nodes} nodes, {graph.number_of_edges} edges")
    print(f"sweeping {len(targets)} targets")

    # 2. The job grid.  grid_jobs is the paper's sweep shape: per-target
    #    jobs × budgets.  Here: every target gets a GradMax and a
    #    BinarizedAttack job at each of three budgets.
    budgets = [2, 4, 6]
    budget = budgets[-1]
    jobs = grid_jobs(
        "gradmaxsearch",
        [[t] for t in targets],
        budgets=budgets,
        candidates="target_incident",
    )
    jobs += grid_jobs(
        "binarizedattack",
        [[t] for t in targets],
        budgets=budgets,
        candidates="target_incident",
        iterations=60,
    )
    print(f"job grid: {len(jobs)} jobs "
          f"({len(targets)} targets × {len(budgets)} budgets × 2 attacks)")

    # 3. Run the whole grid on one shared engine — with a checkpoint, so
    #    an interrupted sweep would resume instead of restarting.
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = Path(scratch) / "campaign_checkpoint.json"
        campaign = AttackCampaign(graph, checkpoint_path=checkpoint)
        sweep = campaign.run(jobs)
        print(f"completed {len(sweep)} jobs in {sweep.seconds:.2f}s "
              f"(resumed {sweep.resumed_jobs})")

        # Rerunning the same spec is free — everything replays from the
        # checkpoint.
        replay = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        print(f"replay: {replay.resumed_jobs}/{len(replay)} jobs from checkpoint")

    # 4. Per-budget aggregation: mean flips spent, mean AScore decrease
    #    and mean rank burial, per attack.
    print("\nbudget sweep summary:")
    print(f"{'attack':>16} {'budget':>7} {'mean flips':>11} {'mean tau':>9} "
          f"{'mean burial':>12}")
    for attack in ("gradmaxsearch", "binarizedattack"):
        for b in budgets:
            outcomes = [
                o for o in sweep if o.job.attack == attack and o.job.budget == b
            ]
            flips = np.mean([len(o.flips) for o in outcomes])
            tau = np.mean([o.score_decrease for o in outcomes])
            burial = np.mean([
                shift for o in outcomes for shift in o.rank_shifts.values()
            ])
            print(f"{attack:>16} {b:>7} {flips:>11.1f} {tau:>9.1%} {burial:>12.1f}")

    gradmax = [
        o for o in sweep if o.job.attack == "gradmaxsearch" and o.job.budget == budget
    ]
    print(f"\ngradmax baseline at budget {budget}: mean tau "
          f"{np.mean([o.score_decrease for o in gradmax]):.1%}, "
          f"mean seconds/job {np.mean([o.seconds for o in gradmax]):.4f}")

    # 5. Every outcome reconstructs a full AttackResult when you need the
    #    budget-indexed artefacts (poisoned graphs, per-budget flips):
    best = max(sweep, key=lambda o: o.score_decrease)
    result = best.attack_result(graph.adjacency)
    print(f"\nbest job: {best.job.attack} on target {list(best.job.targets)} "
          f"(tau {best.score_decrease:.1%}, flips {result.flips()})")

    # 6. The same grid drains on worker processes (one engine per worker,
    #    jobs claimed from a shared lease queue) with bit-identical results
    #    — the multiplier for Fig. 4-scale sweeps.  See
    #    `python -m repro.experiments.runner --workers N`.
    from repro.attacks import SchedulingCampaignExecutor

    parallel = SchedulingCampaignExecutor(graph, workers=2).run(jobs)
    assert [o.flips for o in parallel] == [o.flips for o in sweep]
    print(f"parallel executor (2 workers): {len(parallel)} jobs, "
          f"flips identical to the serial campaign")

    # 7. When no locality assumption is wanted (or the graph is too big
    #    for two-hop balls), the `block` strategy searches the WHOLE upper
    #    triangle through a seeded random block of `block_size` pairs —
    #    memory O(block_size) regardless of graph size, deterministic per
    #    seed (block_seed and block_size are content-hashed into each
    #    job_id, so checkpoints resume the exact same blocks).  This is
    #    the strategy that runs the gradient attacks on the full
    #    88.8k-node store graph: benchmarks/results/BENCH_prbcd.json.
    block_jobs = grid_jobs(
        "gradmaxsearch",
        [[t] for t in targets],
        budgets=[budget],
        candidates="block",
        block_size=4096,
        block_seed=1,
    )
    block_sweep = AttackCampaign(graph).run(block_jobs)
    block_tau = np.mean([o.score_decrease for o in block_sweep])
    print(f"\nblock candidates (4096 pairs, whole triangle): "
          f"mean tau {block_tau:.1%} vs "
          f"{np.mean([o.score_decrease for o in gradmax]):.1%} "
          f"for target_incident")

    # 8. Any run can be traced: pass telemetry= (or set REPRO_TELEMETRY,
    #    or --telemetry on the CLIs) and every layer writes spans, events
    #    and kernel counters to per-worker JSONL sinks — with results
    #    bit-identical to the untraced run.  Inspect the merged trace
    #    with `python -m repro.telemetry report <dir>` (add --chrome for
    #    a chrome://tracing timeline).
    from repro import telemetry
    from repro.telemetry.report import render_report, summarize

    with tempfile.TemporaryDirectory() as trace_dir:
        traced = AttackCampaign(graph, telemetry=trace_dir).run(jobs)
        telemetry.shutdown()
        assert [o.flips for o in traced] == [o.flips for o in sweep]
        summary = summarize(telemetry.load_trace_dir(trace_dir))
        print(f"\ntraced campaign: {summary['spans']} spans, "
              f"flips identical to the untraced run")
        print(render_report(summary, top=3))


if __name__ == "__main__":
    main()
