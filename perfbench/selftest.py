"""Self-tests of the benchmark's metric math.

Run from the repository root, either way::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from compare import verdict  # noqa: E402
from metrics import (  # noqa: E402
    Usage,
    cpu_seconds,
    peak_rss_mb,
    quartiles,
    self_times,
    tail_percentile,
    unattributed_share,
    usage,
)


def _span(span_id, name, worker, parent, start, end):
    return {"kind": "span", "span": span_id, "name": name, "worker": worker,
            "parent": parent, "start_ns": start, "dur_ns": end - start}


#: main: bench.pass [0,100) > executor.drain [10,90)
#: worker-0: worker.run [20,60) (parent: the drain, in main) > job [25,55)
#: worker-1: worker.run [30,80) (parent: the drain) > job [70,95) overrunning it
TREE = [
    _span("main:1", "bench.pass", "main", None, 0, 100),
    _span("main:2", "executor.drain", "main", "main:1", 10, 90),
    _span("worker-0:1", "worker.run", "worker-0", "main:2", 20, 60),
    _span("worker-0:2", "job", "worker-0", "worker-0:1", 25, 55),
    _span("worker-1:1", "worker.run", "worker-1", "main:2", 30, 80),
    _span("worker-1:2", "job", "worker-1", "worker-1:1", 70, 95),
]


def test_self_time_subtracts_union_of_cross_process_children():
    selfs = self_times(TREE)
    assert selfs["main:1"] == 100 - 80
    # two overlapping workers cover [20, 80) once: 80 - 60
    assert selfs["main:2"] == 80 - 60
    assert selfs["worker-0:1"] == 40 - 30
    # the child overruns its parent: only [70, 80) counts
    assert selfs["worker-1:1"] == 50 - 10
    assert selfs["worker-0:2"] == 30 and selfs["worker-1:2"] == 25


def test_unattributed_share_sums_process_roots():
    # roots: bench.pass (no parent) and both worker.run (parent in main)
    assert unattributed_share(TREE) == (20 + 10 + 40) / (100 + 40 + 50)
    assert unattributed_share([]) == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    pct, value = tail_percentile(list(range(11)))
    assert value == 0 and abs(pct - 100 / 11) < 1e-12
    samples = [float(i) for i in range(400)][::-1]
    pct, value = tail_percentile(samples)
    assert pct == 97.5 and value == 389.0
    assert sum(s > value for s in samples) == 10


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_cpu_seconds_counts_reaped_children():
    before = usage()
    child = multiprocessing.get_context("fork").Process(target=_burn, args=(0.3,))
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    after = usage()
    assert after.children_cpu - before.children_cpu >= 0.28
    assert cpu_seconds(before, after) >= 0.28
    synthetic = cpu_seconds(Usage(1.0, 2.0, 0, 0), Usage(1.5, 4.0, 0, 0))
    assert abs(synthetic - 2.5) < 1e-12


def test_peak_rss_takes_the_largest_of_parent_children_and_workers():
    snapshot = Usage(0.0, 0.0, self_maxrss_kb=1024, children_maxrss_kb=2048)
    assert peak_rss_mb(snapshot) == 2.0
    assert peak_rss_mb(snapshot, [{"max_rss_kb": 4096}, {"jobs": 3}]) == 4.0
    assert peak_rss_mb(Usage(0.0, 0.0, 8192, 0), [{"max_rss_kb": 10}]) == 8.0


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q = quartiles(values)
    assert (q.q1, q.median, q.q3) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]).spread == 0.0


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.0], 0.1, "lower") == "worse"
    assert verdict(base, [10.02, 9.98, 10.0, 10.01, 9.99], 0.1, "lower") == "same"
    assert verdict(base, [9.0, 9.05, 8.95, 9.0, 9.02], 0.1, "lower") == "better"
    assert verdict(base, [9.0, 9.05, 8.95, 9.0, 9.02], 0.1, "higher") == "same"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert verdict(base, [20.0, 30.0, 25.0, 21.0, 29.0], 0.1, "lower") == "worse"


def test_instrument_restores_every_wrapped_attribute_and_reports_every_metric():
    import instrument
    from repro.attacks.scheduler import WorkQueue
    from repro.experiments import common
    from repro.oddball.surrogate import SurrogateEngine

    before = (WorkQueue.__dict__["claim"], SurrogateEngine.__dict__["create"],
              common.tau_for_budgets)
    with instrument.instrument():
        assert WorkQueue.__dict__["claim"] is not before[0]
        assert common.tau_for_budgets is not before[2]
    after = (WorkQueue.__dict__["claim"], SurrogateEngine.__dict__["create"],
             common.tau_for_budgets)
    assert after == before
    metrics = instrument.layer_metrics(TREE, overhead_pct=1.0, store_bytes=0,
                                       worker_stats=[])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_value, unit) in metrics.items()
    }


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failures = 0
    for name, test in tests:
        try:
            test()
        except Exception as error:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {name}: {error!r}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failures else 0)
