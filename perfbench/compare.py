"""Compare two result sets (JSONL files written by ``run.py --out``).

For each workload and end-to-end metric it prints both sides' median and
quartiles and a verdict, using the metric's ``bound`` and ``better``
direction from ``BENCHMARK.json``:

* ``worse`` — the new median is worse than the base median by more than
  the bound;
* ``better`` — the new median is better by more than the base's own
  interquartile spread, and new runs beat base runs in at least nine
  tenths of all (base, new) pairs;
* ``same`` — neither, and both sides' spreads are within the bound;
* ``unresolved`` — a side's spread exceeds the bound, unless every new
  run is better (``better``) or worse (``worse``) than every base run.

Per-layer metrics (from traced runs) are listed with their median delta,
for information only: they carry no bound and no verdict.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from metrics import quartiles


def load_results(path: Path) -> "dict[tuple[str, int], dict[str, list[float]]]":
    """``(workload, trace) -> metric -> values`` from one JSONL result set."""
    values: "dict[tuple[str, int], dict[str, list[float]]]" = defaultdict(
        lambda: defaultdict(list)
    )
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["workload"], int(record["trace"]))
        for name, metric in record["result"]["metrics"].items():
            values[key][name].append(float(metric["value"]))
    return values


def verdict(base: "list[float]", new: "list[float]", bound: float, better: str) -> str:
    """One end-to-end verdict (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    b, n = quartiles(base), quartiles(new)
    # positive = the new side is worse, as a share of the base median
    change = sign * (n.median - b.median) / abs(b.median) if b.median else 0.0
    if max(b.spread, n.spread) > bound:
        if all(sign * x < sign * y for x in new for y in base):
            return "better"
        if all(sign * x > sign * y for x in new for y in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    wins = sum(sign * x < sign * y for x in new for y in base)
    if -change > b.spread and wins >= 0.9 * len(new) * len(base):
        return "better"
    return "same"


def compare(base_path: Path, new_path: Path, benchmark_path: Path) -> str:
    """The comparison report as text."""
    spec = json.loads(Path(benchmark_path).read_text())
    base, new = load_results(base_path), load_results(new_path)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metric_specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            left, right = base.get((workload, trace)), new.get((workload, trace))
            if not left or not right:
                continue
            rows.append("")
            for metric in metric_specs:
                name = metric["name"]
                if name not in left or name not in right:
                    continue
                b, n = quartiles(left[name]), quartiles(right[name])
                change = (n.median - b.median) / abs(b.median) if b.median else 0.0
                label = (
                    verdict(left[name], right[name], metric["bound"], metric["better"])
                    if trace == 0 else "info"
                )
                rows.append(
                    f"{workload:<10} {name:<40} "
                    f"{b.q1:>9.4g}/{b.median:>9.4g}/{b.q3:>9.4g} "
                    f"{n.q1:>9.4g}/{n.median:>9.4g}/{n.q3:>9.4g} "
                    f"{100 * change:>+7.1f}%  {label}"
                )
    if not rows:
        return "no workloads in common"
    header = (f"{'workload':<10} {'metric':<40} {'base q1/med/q3':>29} "
              f"{'new q1/med/q3':>29} {'change':>8}  verdict")
    return "\n".join([header, *rows])
