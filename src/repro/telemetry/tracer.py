"""Span tracer + process-global configuration for ``repro.telemetry``.

A :class:`Tracer` produces **nested spans** (trace id, span id, parent
span id, monotonic start + duration in nanoseconds, JSON-primitive
attributes), **instant events** (scheduler lease protocol steps, store
opens) and **accumulated counters** (per-kernel call counts + cumulative
nanoseconds), all written through one per-worker
:class:`~repro.telemetry.sink.TelemetrySink`.

The process-global tracer is *off by default* and costs one function
call + ``None`` check per instrumentation site when off.  It turns on
via, in precedence order: an explicit ``configure(dir)`` /
``telemetry=`` keyword, or the ``$REPRO_TELEMETRY`` environment variable
(consulted lazily on the first :func:`active_tracer` call — the same
env-override pattern as ``$REPRO_KERNELS`` / ``$REPRO_LEASE_TTL``).

Cross-process semantics: executors capture a picklable
:func:`worker_spec` per child carrying the trace directory, the shared
trace id and the parent span id; the child's entry point calls
:func:`worker_configure` *before any work*, which replaces (without
flushing) any tracer inherited through ``fork`` — a child must never
write the parent's sink file.  Worker root spans parent to the
executor's drain span, so the merged trace is one tree.

Telemetry is excluded from every content hash: nothing here touches
job ids, checkpoint payloads or fingerprints, and attribute values are
runtime-checked to be *exact* JSON primitives so a numpy scalar can
never leak into a sink record (parity is additionally pinned by the
JSON round-trip test of every ``to_dict`` payload and the on/off
flip-parity tests).
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from repro.telemetry.sink import TelemetrySink, sink_path
from repro.utils.logging import get_logger

__all__ = [
    "TELEMETRY_ENV",
    "Span",
    "Tracer",
    "active_tracer",
    "configure",
    "count",
    "event",
    "resolve_telemetry",
    "shutdown",
    "span",
    "worker_configure",
    "worker_spec",
]

_log = get_logger("telemetry.tracer")

#: Environment override enabling telemetry process-wide (a directory path).
TELEMETRY_ENV = "REPRO_TELEMETRY"

_now = time.perf_counter_ns

#: Exact types allowed as span/event attribute values.  Checked with
#: ``type() in`` rather than ``isinstance`` on purpose: ``np.float64``
#: subclasses ``float`` and would otherwise slip a numpy scalar into the
#: sink JSONL, where it would read back as a different value.
_ATTR_TYPES = (str, int, float, bool, type(None))


def _pure_attrs(name: str, attrs: dict) -> dict:
    """Validate attribute values as exact JSON primitives; returns ``attrs``."""
    for key, value in attrs.items():
        if type(value) not in _ATTR_TYPES:
            raise TypeError(
                f"telemetry attribute {key!r} of {name!r} must be a JSON "
                f"primitive (str/int/float/bool/None), got "
                f"{type(value).__name__}"
            )
    return attrs


class Span:
    """One traced operation: a named interval with a parent and attributes.

    Used as a context manager; the record is written to the sink when the
    span *exits* (so a killed process loses only its open spans — its
    completed spans and instant events are already durable).
    """

    __slots__ = ("_tracer", "name", "span_id", "parent", "start_ns",
                 "dur_ns", "attrs")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent: "str | None", attrs: dict):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start_ns = 0
        self.dur_ns = 0
        self.attrs = attrs

    def annotate(self, **attrs) -> None:
        """Attach more (JSON-primitive) attributes to an open span."""
        self.attrs.update(_pure_attrs(self.name, attrs))

    def __enter__(self) -> "Span":
        """Start the clock and become the current parent on this thread."""
        self.start_ns = _now()
        self._tracer._push(self)
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the clock and write the completed record."""
        self.dur_ns = _now() - self.start_ns
        self._tracer._pop(self)

    def to_dict(self) -> dict:
        """JSON image of the span (one sink record)."""
        return {
            "kind": "span",
            "name": str(self.name),
            "trace": str(self._tracer.trace),
            "span": str(self.span_id),
            "parent": None if self.parent is None else str(self.parent),
            "worker": str(self._tracer.worker),
            "start_ns": int(self.start_ns),
            "dur_ns": int(self.dur_ns),
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Produce spans/events/counters for one worker of one trace.

    ``trace`` names the whole (possibly multi-process) trace; ``parent``
    is the span id — in *another* process's sink — that this worker's
    root spans hang under.  Span ids are ``<worker>:<n>``, unique across
    processes because worker names are.
    """

    def __init__(self, sink: TelemetrySink, *, worker: str = "main",
                 trace: "str | None" = None, parent: "str | None" = None):
        self.sink = sink
        self.worker = str(worker)
        self.trace = str(trace) if trace else os.urandom(6).hex()
        self.root_parent = parent
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._counters: "dict[str, list[int]]" = {}

    @property
    def directory(self) -> Path:
        """The trace directory this tracer writes into."""
        return self.sink.path.parent

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def _new_span_id(self) -> str:
        with self._lock:
            self._next_span += 1
            return f"{self.worker}:{self._next_span}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> "str | None":
        """Span id new children should parent to (thread-local nesting)."""
        stack = self._stack()
        return stack[-1].span_id if stack else self.root_parent

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # tolerate out-of-order exits rather than corrupting nesting
            try:
                stack.remove(span)
            except ValueError:
                pass
        self.sink.append(span.to_dict())
        if not stack:
            # A root span just closed: make accumulated counters durable
            # now, so serial runs and long-lived workers flush per unit of
            # completed work instead of only at process exit.
            self.flush_counters()

    # ------------------------------------------------------------------ #
    # Producing records
    # ------------------------------------------------------------------ #
    def span(self, name: str, /, **attrs) -> Span:
        """A new child span of the current one (enter it with ``with``)."""
        return Span(
            self, name, self._new_span_id(), self.current_span_id(),
            _pure_attrs(name, attrs),
        )

    def event(self, name: str, /, **attrs) -> None:
        """Record an instant event (durable immediately, unlike spans)."""
        self.sink.append({
            "kind": "event",
            "name": str(name),
            "trace": str(self.trace),
            "worker": str(self.worker),
            "ns": int(_now()),
            "attrs": _pure_attrs(name, attrs),
        })

    def count(self, name: str, n: int = 1, ns: int = 0) -> None:
        """Accumulate a counter: ``n`` occurrences costing ``ns`` nanoseconds.

        Hot-path friendly: two dict/int operations, no I/O.  Flushed as
        one record per name when a root span closes (and on
        :meth:`close`); the report layer sums repeated flushes.
        """
        with self._lock:
            entry = self._counters.get(name)
            if entry is None:
                entry = self._counters[name] = [0, 0]
            entry[0] += n
            entry[1] += ns

    def flush_counters(self) -> None:
        """Write accumulated counters to the sink and reset them."""
        with self._lock:
            counters, self._counters = self._counters, {}
        for name, (count_n, total_ns) in sorted(counters.items()):
            self.sink.append({
                "kind": "counter",
                "name": str(name),
                "trace": str(self.trace),
                "worker": str(self.worker),
                "count": int(count_n),
                "total_ns": int(total_ns),
            })

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush pending counters and close the sink."""
        self.flush_counters()
        self.sink.close()

    def abandon(self) -> None:
        """Drop the tracer WITHOUT flushing.

        For fork-inherited state in a child process: flushing there would
        write the parent's pending counters into the parent's sink a
        second time.
        """
        with self._lock:
            self._counters = {}
        self.sink.close()


# ---------------------------------------------------------------------- #
# Process-global configuration
# ---------------------------------------------------------------------- #
_TRACER: "Tracer | None" = None
_RESOLVED = False           # has THIS process decided on/off yet?
_OWNER_PID: "int | None" = None
_ATEXIT_REGISTERED = False


def resolve_telemetry(value: "Path | str | None" = None) -> "Path | None":
    """Effective trace directory: explicit value > ``$REPRO_TELEMETRY`` > off.

    Mirrors the precedence scheme of :func:`repro.kernels.resolve_kernels`
    and :func:`repro.attacks.scheduler.resolve_lease_ttl`.
    """
    if value is not None:
        return Path(value)
    env = os.environ.get(TELEMETRY_ENV, "").strip()
    return Path(env) if env else None


def configure(directory: "Path | str | None", *, worker: str = "main",
              trace: "str | None" = None,
              parent: "str | None" = None) -> "Tracer | None":
    """(Re)configure the process-global tracer; ``None`` disables it.

    A tracer inherited across ``fork`` is abandoned (closed unflushed —
    its file belongs to the parent); a same-process predecessor is closed
    cleanly, flushing its counters.
    """
    global _TRACER, _RESOLVED, _OWNER_PID, _ATEXIT_REGISTERED
    if _TRACER is not None:
        if _OWNER_PID == os.getpid():
            _TRACER.close()
        else:
            _TRACER.abandon()
        _TRACER = None
    _RESOLVED = True
    _OWNER_PID = os.getpid()
    if directory is None:
        return None
    _TRACER = Tracer(
        TelemetrySink(sink_path(directory, worker), worker=worker),
        worker=worker, trace=trace, parent=parent,
    )
    if not _ATEXIT_REGISTERED:
        _ATEXIT_REGISTERED = True
        atexit.register(shutdown)
    return _TRACER


def active_tracer() -> "Tracer | None":
    """The process-global tracer, or ``None`` when telemetry is off.

    The first call in each process consults ``$REPRO_TELEMETRY`` (so env
    activation needs no code changes anywhere); a tracer inherited
    through ``fork`` is never returned — the child re-resolves, keeping
    parent and child sinks strictly separate.
    """
    if _RESOLVED and _OWNER_PID == os.getpid():
        return _TRACER
    directory = resolve_telemetry(None)
    if directory is None:
        return configure(None)
    return configure(directory, worker=f"main-{os.getpid()}")


def shutdown() -> None:
    """Close and clear the process-global tracer (idempotent)."""
    configure(None)


# ---------------------------------------------------------------------- #
# Null-safe conveniences (the instrumentation surface call sites use)
# ---------------------------------------------------------------------- #
def span(name: str, /, **attrs):
    """A span on the active tracer, or a no-op context when telemetry is off."""
    tracer = active_tracer()
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, **attrs)


def event(name: str, /, **attrs) -> None:
    """Record an instant event iff telemetry is on."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)


def count(name: str, n: int = 1, ns: int = 0, /) -> None:
    """Accumulate a counter iff telemetry is on."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.count(name, n, ns)


# ---------------------------------------------------------------------- #
# Cross-process plumbing for the executors
# ---------------------------------------------------------------------- #
def worker_spec(worker: str) -> "dict | None":
    """Picklable description of the active trace for one child process.

    ``None`` when telemetry is off (children then disable their inherited
    state).  Carries the trace directory, the shared trace id, and the
    parent span id the child's root spans hang under.
    """
    tracer = active_tracer()
    if tracer is None:
        return None
    return {
        "dir": str(tracer.directory),
        "worker": str(worker),
        "trace": str(tracer.trace),
        "parent": tracer.current_span_id(),
    }


def worker_configure(spec: "dict | None") -> "Tracer | None":
    """Child-side counterpart of :func:`worker_spec`.

    MUST run before the child does any traced work: it replaces whatever
    tracer the ``fork`` inherited, giving the child its own sink file
    keyed by its worker id (or disabling telemetry when ``spec`` is
    ``None``).
    """
    if spec is None:
        return configure(None)
    return configure(
        spec["dir"],
        worker=spec["worker"],
        trace=spec.get("trace"),
        parent=spec.get("parent"),
    )
