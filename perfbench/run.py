"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-ci --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload store-88k --seed 1 --trace 1 --out new.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run sets the workload up (several times where that is cheap, reporting
the median as ``setup_s``), then drains its job grid in passes until
``--seconds`` have been measured (at least the workload's minimum number
of passes) and reports medians.  With ``--trace 1`` it instead sets up
once under tracing, runs one untraced and one traced pass, and reports
the per-layer metrics; their difference is ``telemetry.overhead_pct``.

Every run checks the program's outputs: each job's flips must agree
across passes (traced and untraced), and with every earlier run of the
same workload and seed in this checkout; a fixed sample of jobs is
re-scored from scratch with OddBall outside the timed region and must
match the campaign's score.  A failed check marks its jobs failed, the
result ``"correct": false``, and the exit code 1.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment (``benchmarks/_benchenv.py`` plus the CPU model and
the kernels backend in use) and the per-setup/per-pass samples behind
each median.  ``--out FILE`` also appends both, with the workload and
seed, to a JSONL result set that ``--compare`` reads.  All caches and
scratch files live under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

# numpy-free: safe to import before the thread pins below take effect
from metrics import cpu_seconds, peak_rss_mb, quartiles, usage

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSONL file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="compare two JSONL result sets and exit")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required (or use --compare)")
    return args


def _prepare_environment() -> None:
    """Point every cache and temp dir into the checkout; pin thread pools."""
    missing = [p for p in ("src/repro", "benchmarks/_benchenv.py", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}",
              file=sys.stderr)
        raise SystemExit(2)
    for sub in ("kernels", "tmp", "digests", "runs"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(STATE / "kernels")
    os.environ["REPRO_STORE_CACHE"] = str(STATE / "stores")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    os.environ.pop("REPRO_TELEMETRY", None)
    tempfile.tempdir = str(STATE / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import _benchenv  # noqa: F401  (pins BLAS/OpenMP threads before numpy loads)


def _timed_pass(workload, prepared, workdir):
    gc.collect()
    before = usage()
    start = time.perf_counter()
    result = workload.run_pass(prepared, workdir)
    wall = time.perf_counter() - start
    return result, wall, cpu_seconds(before, usage())


def _check(workload, seed, prepared, passes) -> "set[str]":
    """Job ids failing any output check (see the module docstring)."""
    from workloads import flip_digest

    expected = {job.job_id for job in prepared.jobs}
    failed: "set[str]" = set()
    reference: "dict[str, str]" = {}
    for result in passes:
        seen = {o.job_id: flip_digest(o) for o in result.outcomes}
        failed |= expected - set(seen)
        for job_id, digest in seen.items():
            if reference.setdefault(job_id, digest) != digest:
                failed.add(job_id)
    record = STATE / "digests" / f"{workload.name}-seed{seed}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        failed |= {j for j, d in reference.items() if earlier.get(j, d) != d}
    else:
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference, sort_keys=True))
        tmp.rename(record)
    survivors = [o for o in passes[0].outcomes if o.job_id not in failed]
    failed |= set(workload.rescore_sample(prepared, survivors))
    return failed


def _untraced(workload, seed: int, seconds: float, workdir: Path):
    """Set up ``setup_repeats`` times, then run passes for ``seconds``."""
    setups = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        start = time.perf_counter()
        prepared = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
    passes, walls, cpus = [], [], []
    begin = time.perf_counter()
    while len(passes) < workload.min_passes or (
        time.perf_counter() - begin + quartiles(walls).median <= seconds
    ):
        result, wall, cpu = _timed_pass(workload, prepared, workdir)
        passes.append(result)
        walls.append(wall)
        cpus.append(cpu)
    worker_stats = [s for result in passes for s in result.worker_stats]
    taus = [o.score_decrease for o in passes[0].outcomes]
    metrics = {
        "setup_s": (quartiles(setups).median, "s"),
        "wall_s": (quartiles(walls).median, "s"),
        "cpu_s": (quartiles(cpus).median, "s"),
        "peak_rss_mb": (peak_rss_mb(usage(), worker_stats), "MB"),
        "tau_mean": (sum(taus) / len(taus), "ratio"),
    }
    samples = {"setup_s": setups, "wall_s": walls, "cpu_s": cpus}
    return prepared, passes, samples, metrics


def _traced(workload, seed: int, workdir: Path):
    """Traced set-up, one untraced and one traced pass, per-layer metrics."""
    from instrument import instrument, layer_metrics
    from repro import telemetry

    setup_dir = workdir / "trace-setup"
    pass_dir = workdir / "trace-pass"
    telemetry.configure(setup_dir, worker="setup")
    with instrument(), telemetry.span("bench.setup"):
        prepared = workload.setup(seed, workdir)
    telemetry.shutdown()
    untraced, untraced_wall, _ = _timed_pass(workload, prepared, workdir)
    # The executors' workers inherit this tracer (and the wrappers) at fork.
    telemetry.configure(pass_dir, worker="main")
    with instrument(), telemetry.span("bench.pass"):
        traced, traced_wall, _ = _timed_pass(workload, prepared, workdir)
    telemetry.shutdown()
    records = telemetry.load_trace_dir(setup_dir) + telemetry.load_trace_dir(pass_dir)
    metrics = layer_metrics(
        records,
        overhead_pct=100.0 * (traced_wall - untraced_wall) / untraced_wall,
        store_bytes=prepared.store_bytes,
        worker_stats=traced.worker_stats,
    )
    samples = {"wall_s": [untraced_wall], "traced_wall_s": [traced_wall]}
    return prepared, [untraced, traced], samples, metrics


def _measure(workload, seed: int, seconds: float, trace: bool,
             workdir: Path) -> "tuple[dict, dict]":
    """``(samples, result)`` of one run; ``result`` is the printed JSON."""
    if trace:
        prepared, passes, samples, metrics = _traced(workload, seed, workdir)
    else:
        prepared, passes, samples, metrics = _untraced(workload, seed, seconds, workdir)
    failed_ids = _check(workload, seed, prepared, passes)
    attempted = len(prepared.jobs) * len(passes)
    failed = len(failed_ids) * len(passes)
    if not trace:
        metrics["jobs_ok_frac"] = ((attempted - failed) / attempted, "ratio")
    return samples, {
        "correct": not failed_ids,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def _environment(benchenv) -> dict:
    """``bench_env()`` plus the CPU model and the kernels backend in use."""
    from repro.kernels import resolve_kernels

    env = benchenv.bench_env()
    env["cpu_model"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    env["kernels_resolved"] = resolve_kernels("auto")
    return env


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare is not None:
        from compare import compare

        print(compare(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json"))
        return 0
    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import _benchenv

    workdir = STATE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        samples, result = _measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = _environment(_benchenv)
    if args.out is not None:
        with args.out.open("a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "env": env, "samples": samples,
                "result": result,
            }) + "\n")
    print(json.dumps({"env": env, "samples": samples}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
