"""Metric math of the benchmark: pure functions over spans, samples and rusage.

Kept free of workload code so ``selftest.py`` can pin every rule on
synthetic inputs:

* :func:`self_times` — a span's duration minus the part of its interval
  that its child spans cover (children may live in other processes: a
  worker's root span parents to the executor's drain span);
* :func:`tail_percentile` — the highest percentile that still has at
  least ten samples beyond it;
* :func:`cpu_seconds` / :func:`peak_rss_mb` — CPU time and peak RSS of the
  benchmark process together with its reaped worker processes;
* :func:`quartiles` — median and quartiles as ``statistics.quantiles``
  gives them.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from typing import NamedTuple, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def covered_ns(intervals: "Sequence[tuple[int, int]]", start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end)``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: "Sequence[dict]") -> "dict[str, int]":
    """Self time in ns of every span record, keyed by span id.

    A span's self time is its duration minus the union of its direct
    children's intervals.  Children are matched by parent id only, so a
    worker's root span counts against the parent-process span it names —
    and two workers running at once cover the parent's interval once, not
    twice.
    """
    children: "dict[str, list[tuple[int, int]]]" = defaultdict(list)
    for record in spans:
        parent = record.get("parent")
        if parent is not None:
            start = int(record["start_ns"])
            children[parent].append((start, start + int(record["dur_ns"])))
    out = {}
    for record in spans:
        start = int(record["start_ns"])
        end = start + int(record["dur_ns"])
        out[record["span"]] = (end - start) - covered_ns(
            children.get(record["span"], ()), start, end
        )
    return out


def process_roots(spans: "Sequence[dict]") -> "list[dict]":
    """Spans whose parent is absent or lives in another process (worker)."""
    worker_of = {record["span"]: record["worker"] for record in spans}
    return [
        record for record in spans
        if worker_of.get(record.get("parent")) != record["worker"]
    ]


def unattributed_share(spans: "Sequence[dict]") -> float:
    """Share of each process's traced time that no named child span covers.

    Sums, over every process root (the benchmark's own root span, each
    worker's root), the root's self time, and divides by the roots' total
    duration.  0.0 for an empty trace.
    """
    roots = process_roots(spans)
    total = sum(int(record["dur_ns"]) for record in roots)
    if total <= 0:
        return 0.0
    selfs = self_times(spans)
    return sum(selfs[record["span"]] for record in roots) / total


def tail_percentile(samples: "Sequence[float]") -> "tuple[float, float] | None":
    """``(percentile, value)`` of the highest percentile with ≥10 samples beyond.

    With ``n`` sorted samples, the value is the order statistic that has
    exactly :data:`TAIL_MIN_BEYOND` samples ranked above it, and the
    percentile is the share of samples at or below it.  ``None`` when
    fewer than ``TAIL_MIN_BEYOND + 1`` samples exist.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        return None
    ordered = sorted(samples)
    rank = n - TAIL_MIN_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, float(ordered[rank - 1])


class Usage(NamedTuple):
    """A ``getrusage`` snapshot of this process and its reaped children."""

    self_cpu: float
    children_cpu: float
    self_maxrss_kb: int
    children_maxrss_kb: int


def usage() -> Usage:
    """Snapshot CPU seconds and peak RSS (KiB) of self and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return Usage(
        own.ru_utime + own.ru_stime,
        kids.ru_utime + kids.ru_stime,
        int(own.ru_maxrss),
        int(kids.ru_maxrss),
    )


def cpu_seconds(before: Usage, after: Usage) -> float:
    """CPU seconds spent between two snapshots by self plus reaped children.

    Children count only once the parent has waited for them, which the
    executors do before ``run`` returns.
    """
    return (after.self_cpu - before.self_cpu) + (
        after.children_cpu - before.children_cpu
    )


def peak_rss_mb(snapshot: Usage, worker_stats: "Sequence[dict]" = ()) -> float:
    """Highest peak RSS in MiB of this process, any reaped child or any worker.

    ``worker_stats`` are the executors' per-worker ``.stats`` records
    (``max_rss_kb``); they cover workers whose rusage the parent cannot
    see, such as a worker still being reaped.
    """
    workers = max((int(s.get("max_rss_kb", 0)) for s in worker_stats), default=0)
    return max(snapshot.self_maxrss_kb, snapshot.children_maxrss_kb, workers) / 1024.0


class Quartiles(NamedTuple):
    """Median and first/third quartiles of a sample."""

    q1: float
    median: float
    q3: float

    @property
    def spread(self) -> float:
        """Interquartile distance as a share of the median (0 if median is 0)."""
        return (self.q3 - self.q1) / abs(self.median) if self.median else 0.0


def quartiles(values: "Sequence[float]") -> Quartiles:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return Quartiles(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Quartiles(q1, median, q3)
