"""repro.telemetry — structured tracing & metrics across the whole stack.

A zero-dependency, span-based observability layer threaded through
store → engine → campaign → executor → scheduler:

* a :class:`Tracer` produces nested **spans** (trace id, span id, parent,
  monotonic start/duration, JSON-primitive attributes), instant
  **events** (scheduler lease claim/steal/heartbeat/requeue, store
  opens) and accumulated **counters** (per-kernel call counts +
  cumulative ns, candidate-set admissions/evictions);
* records land in append-only JSONL :class:`TelemetrySink` files — one
  per worker, written through the same torn-write-tolerant
  :class:`~repro.utils.jsonlog.JsonLog` as the campaign
  :class:`~repro.attacks.campaign.CheckpointStore` — and
  :func:`load_trace_dir` merges them into one coherent timeline (the
  machine-wide monotonic clock makes cross-process timestamps
  comparable, the same property the scheduler's leases rely on);
* telemetry is **off by default** and enabled via ``telemetry=`` on the
  campaign/executor constructors, ``--telemetry DIR`` on the CLIs, or
  ``$REPRO_TELEMETRY`` — and it is excluded from every content hash:
  flip sets, job ids and checkpoints are bit-identical with it on or
  off (parity-tested).

CLI::

    python -m repro.telemetry report TRACE_DIR [--top N] [--chrome OUT.json]

renders per-phase/per-worker/per-job breakdowns, a critical-path walk,
and (``--chrome``) a Chrome ``trace_event`` JSON export.

See ``docs/ARCHITECTURE.md`` §"Telemetry layer" for the event schema,
sink format, merge semantics and overhead numbers
(``benchmarks/results/BENCH_telemetry.json``).
"""

from repro.telemetry.report import chrome_trace, render_report, summarize
from repro.telemetry.sink import (
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    TelemetrySink,
    load_events,
    load_trace_dir,
    sink_path,
)
from repro.telemetry.tracer import (
    TELEMETRY_ENV,
    Span,
    Tracer,
    active_tracer,
    configure,
    count,
    event,
    resolve_telemetry,
    shutdown,
    span,
    worker_configure,
    worker_spec,
)

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "Span",
    "Tracer",
    "TelemetrySink",
    "active_tracer",
    "chrome_trace",
    "configure",
    "count",
    "event",
    "load_events",
    "load_trace_dir",
    "render_report",
    "resolve_telemetry",
    "shutdown",
    "sink_path",
    "span",
    "summarize",
    "worker_configure",
    "worker_spec",
]
