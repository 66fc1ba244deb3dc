"""Telemetry overhead: a fully traced campaign vs the untraced baseline.

Telemetry's claim is *observability for free*: tracing a run changes no
result (flip sets asserted bit-identical here on every comparison) and
costs almost no time — spans are two ``perf_counter_ns`` reads and one
buffered JSONL append, counters are a dict update that only becomes I/O
when the root span closes.  This study times the worst reasonable case,
a budget-5 gradmaxsearch sweep where every job emits job/attack/score
spans and the kernel counters tick on every flip, and records the
overhead percentage against the same sweep with telemetry off.

The committed artefact pins the overhead **target at ≤ 3 %** at the
largest (n=10,000) case; the full run asserts it (best-of-repeats
against best-of-repeats, so scheduler noise on a quiet host doesn't
fail a healthy build).  Smaller cases are reported for transparency —
per-run fixed costs dominate sweeps that finish in under 0.1 s.  CI
smokes assert behaviour only — parity and a non-empty trace — because
shared-runner timings are noise.

Run the study directly::

    PYTHONPATH=src python benchmarks/bench_telemetry.py            # full
    PYTHONPATH=src python benchmarks/bench_telemetry.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_telemetry.py --trace-out DIR

``--trace-out`` keeps the largest case's trace directory (the weekly
benchmark job uploads it as an artifact next to the ``BENCH_*.json``
files, so a real cross-process trace is always one download away).

Every run emits ``benchmarks/results/BENCH_telemetry.json`` (smoke runs
a ``_smoke`` sibling); the full-run artefact is committed.
"""

import _benchenv  # first: pins BLAS/OpenMP threads before numpy loads

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import sparse

from repro import telemetry
from repro.attacks import AttackCampaign, grid_jobs
from repro.graph.sparse import anomaly_scores_sparse
from repro.telemetry.report import summarize

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_telemetry.json"

_BUDGET = 5
_CANDIDATES = "target_incident"
_OVERHEAD_TARGET_PCT = 3.0


def _random_sparse_graph(n: int, m: int, seed: int) -> sparse.csr_matrix:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    mask = rows != cols
    matrix = sparse.csr_matrix(
        (np.ones(mask.sum()), (rows[mask], cols[mask])), shape=(n, n)
    )
    matrix = ((matrix + matrix.T) > 0).astype(np.float64)
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix


def _campaign_instance(n: int, n_targets: int, seed: int = 0):
    graph = _random_sparse_graph(n=n, m=4 * n, seed=seed)
    scores = anomaly_scores_sparse(graph)
    targets = np.argsort(-scores, kind="stable")[:n_targets].tolist()
    return graph, targets


def _sweep(graph, targets):
    return grid_jobs(
        "gradmaxsearch",
        [[t] for t in targets],
        budgets=[_BUDGET],
        candidates=_CANDIDATES,
    )


def _timed_run(graph, jobs, trace_dir=None):
    """One campaign run (traced into ``trace_dir`` when given), timed."""
    start = time.perf_counter()
    result = AttackCampaign(graph, telemetry=trace_dir).run(jobs)
    seconds = time.perf_counter() - start
    telemetry.shutdown()
    return result, seconds


def _run_case(
    n: int, n_targets: int, repeats: int = 3, seed: int = 0,
    keep_trace: "Path | None" = None,
) -> dict:
    graph, targets = _campaign_instance(n, n_targets, seed)
    jobs = _sweep(graph, targets)

    # Interleave off/on repeats so cache warm-up and host drift hit both
    # modes equally; compare best against best.
    off_times, on_times = [], []
    baseline = traced = None
    trace_stats = {}
    for _ in range(repeats):
        baseline, seconds = _timed_run(graph, jobs)
        off_times.append(seconds)
        with tempfile.TemporaryDirectory() as scratch:
            trace_dir = Path(scratch) / "trace"
            traced, seconds = _timed_run(graph, jobs, trace_dir)
            on_times.append(seconds)
            events = telemetry.load_trace_dir(trace_dir)
            summary = summarize(events)
            trace_stats = {
                "spans": summary["spans"],
                "counter_records": summary["counter_records"],
                "trace_bytes": sum(
                    p.stat().st_size for p in trace_dir.glob("trace-*.jsonl")
                ),
            }
            if keep_trace is not None:
                keep_trace.mkdir(parents=True, exist_ok=True)
                for sink in trace_dir.glob("trace-*.jsonl"):
                    shutil.copy2(sink, keep_trace / sink.name)

    for off_outcome, on_outcome in zip(baseline, traced):
        assert off_outcome.flips_by_budget == on_outcome.flips_by_budget
        assert off_outcome.score_after == on_outcome.score_after

    seconds_off = min(off_times)
    seconds_on = min(on_times)
    overhead_pct = (seconds_on - seconds_off) / seconds_off * 100.0
    return {
        "n": n,
        "edges": int(graph.nnz // 2),
        "jobs": len(jobs),
        "budget": _BUDGET,
        "candidates": _CANDIDATES,
        "repeats": repeats,
        "seconds_off": round(seconds_off, 4),
        "seconds_on": round(seconds_on, 4),
        "overhead_pct": round(overhead_pct, 2),
        "flip_sets_identical": True,
        **trace_stats,
    }


# --------------------------------------------------------------------- #
# CI smoke (pytest entries)
# --------------------------------------------------------------------- #


def test_bench_telemetry_parity_smoke():
    row = _run_case(n=400, n_targets=6, repeats=1)
    assert row["flip_sets_identical"]
    assert row["spans"] > row["jobs"]  # campaign.run + per-job span tree
    assert row["trace_bytes"] > 0


def test_bench_telemetry_report_loads(tmp_path):
    graph, targets = _campaign_instance(n=300, n_targets=4)
    result = AttackCampaign(
        graph, telemetry=tmp_path / "trace"
    ).run(_sweep(graph, targets))
    telemetry.shutdown()
    assert len(result) == 4
    summary = summarize(telemetry.load_trace_dir(tmp_path / "trace"))
    assert [row["name"] for row in summary["phases"]][0] in (
        "campaign.run", "job", "job.attack"
    )
    assert summary["critical_path"][0]["name"] == "campaign.run"


# --------------------------------------------------------------------- #
# Overhead study (the committed artefact)
# --------------------------------------------------------------------- #


def run_telemetry_overhead(
    smoke: bool = False,
    output: "Path | None" = None,
    trace_out: "Path | None" = None,
) -> dict:
    """Time traced vs untraced sweeps; print a table, emit JSON.

    Smoke runs write to a ``_smoke`` sibling so CI never clobbers the
    committed full-run artefact.
    """
    if output is None:
        output = (
            RESULTS_PATH.with_name("BENCH_telemetry_smoke.json")
            if smoke
            else RESULTS_PATH
        )
    # The gated case is deliberately the longest (n=10,000, 40 jobs,
    # ~1 s per run): per-run fixed costs and host jitter are a few
    # milliseconds, so only a sweep well clear of that resolves a 3%
    # target instead of measuring the container's scheduler.
    cases = [(500, 8)] if smoke else [(1000, 10), (4000, 16), (10000, 40)]
    repeats = 1 if smoke else 5

    print("repro.telemetry: fully traced campaign vs untraced baseline")
    print(
        f"(gradmaxsearch, budget={_BUDGET}, candidates={_CANDIDATES}, "
        f"m ≈ 4n; best of {repeats}, seconds)"
    )
    print()
    header = (
        f"{'n':>7} {'jobs':>5} {'off':>9} {'on':>9} "
        f"{'overhead':>9} {'spans':>6} {'bytes':>9}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for index, (n, n_targets) in enumerate(cases):
        keep = trace_out if index == len(cases) - 1 else None
        row = _run_case(n=n, n_targets=n_targets, repeats=repeats, keep_trace=keep)
        rows.append(row)
        print(
            f"{n:>7} {row['jobs']:>5} {row['seconds_off']:>9.3f} "
            f"{row['seconds_on']:>9.3f} {row['overhead_pct']:>8.2f}% "
            f"{row['spans']:>6} {row['trace_bytes']:>9}"
        )

    # The target is pinned at the largest case: per-run fixed costs (sink
    # creation, the first few dozen span writes) dominate sub-0.1 s sweeps
    # and amortise to nothing at working sizes — the smaller rows are
    # reported for transparency, not gated.
    headline = rows[-1]["overhead_pct"]
    print(
        f"\noverhead at n={rows[-1]['n']}: {headline:.2f}% "
        f"(target ≤ {_OVERHEAD_TARGET_PCT}%)"
    )
    if not smoke:
        assert headline <= _OVERHEAD_TARGET_PCT, (
            f"telemetry overhead {headline:.2f}% at n={rows[-1]['n']} "
            f"exceeds the {_OVERHEAD_TARGET_PCT}% target"
        )
    if trace_out is not None:
        print(f"kept largest-case trace in {trace_out}")

    payload = {
        "benchmark": "telemetry_overhead",
        "attack": "gradmaxsearch",
        "budget": _BUDGET,
        "candidates": _CANDIDATES,
        "edges_per_node": 4,
        "smoke": smoke,
        "overhead_target_pct": _OVERHEAD_TARGET_PCT,
        "headline_overhead_pct": round(headline, 2),
        "env": _benchenv.bench_env(),
        "results": rows,
        "notes": (
            "off/on repeats are interleaved and compared best-of against "
            "best-of; every comparison asserts bit-identical flip sets and "
            "scores between the traced and untraced runs. spans/trace_bytes "
            "describe the traced run's sink output. The <=3% target is "
            "gated on the largest case only: per-run fixed costs (sink "
            "creation, first span writes) dominate sub-0.1s sweeps."
        ),
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    return payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    cli = parser.parse_args()
    run_telemetry_overhead(smoke=cli.smoke, trace_out=cli.trace_out)
