"""Torn-write-tolerant JSONL telemetry sinks (one file per worker).

A sink is a :class:`~repro.utils.jsonlog.JsonLog`, the append-only JSONL
log the campaign layer's :class:`~repro.attacks.campaign.CheckpointStore`
also writes: one header line naming the format version and the writing
worker, then one JSON record per line.  Every record is durable the
moment its line is flushed, a ``kill -9`` can tear at most the trailing
line, and the loader skips an unreadable record with a warning instead
of failing the whole trace.

Workers write *separate* files (``trace-<worker>.jsonl``) inside one
trace directory, so no cross-process write coordination is ever needed;
:func:`load_trace_dir` merges them at read time into one
timestamp-ordered event stream.  Timestamps are ``perf_counter_ns``
readings — CLOCK_MONOTONIC is machine-wide on Linux (the same property
the scheduler's lease deadlines rely on), so records from different
processes on one host order correctly.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.utils.jsonlog import CorruptHeaderError, JsonLog, parse_line
from repro.utils.logging import get_logger

__all__ = [
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "TelemetrySink",
    "load_events",
    "load_trace_dir",
    "sink_path",
]

_log = get_logger("telemetry.sink")

TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1

#: Sink file naming inside a trace directory: ``trace-<worker>.jsonl``.
SINK_PREFIX = "trace-"
SINK_SUFFIX = ".jsonl"


def sink_path(directory: "Path | str", worker: str) -> Path:
    """The sink file for ``worker`` inside trace directory ``directory``."""
    return Path(directory) / f"{SINK_PREFIX}{worker}{SINK_SUFFIX}"


class TelemetrySink:
    """One append-only JSONL telemetry file.

    The handle stays open across appends (telemetry can emit thousands of
    records per run; reopening per record would dominate the overhead
    budget) and every record is flushed immediately, so a killed process
    loses at most the record it was writing.  Appends are serialised by a
    lock because the scheduler's :class:`~repro.attacks.scheduler.LeaseHeartbeat`
    thread emits events concurrently with the worker's main thread.
    """

    def __init__(self, path: "Path | str", worker: str = "main"):
        self.path = Path(path)
        self.worker = str(worker)
        header = {"format": TELEMETRY_FORMAT, "version": TELEMETRY_VERSION, "worker": self.worker}
        self._log = JsonLog(path, "telemetry sink", json.dumps(header, sort_keys=True).encode())
        self._handle = None
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        """Append one JSON record (opens the file + header on first use)."""
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        with self._lock:
            if self._handle is None:
                self._handle = self._log.open()
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        """Close the underlying handle (idempotent; reopens on next append)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def load_events(path: "Path | str") -> "list[dict]":
    """Records of one sink file, header excluded, unreadable lines skipped.

    The file follows the :class:`~repro.utils.jsonlog.JsonLog` rules: a
    line torn by a hard kill, holding a byte that is not UTF-8, or parsing
    to JSON that is not a telemetry record is skipped with a warning that
    names the file, and a file holding only a torn header loads as empty.
    Every returned record carries a ``worker`` key (defaulted from the
    header for old records).
    """
    path = Path(path)

    def check_header(header: dict) -> None:
        if header.get("format") != TELEMETRY_FORMAT:
            raise ValueError(
                f"{path} is not a telemetry sink (format "
                f"{header.get('format')!r})"
            )
        if header.get("version") != TELEMETRY_VERSION:
            raise ValueError(
                f"telemetry sink {path} has unsupported version "
                f"{header.get('version')!r}"
            )

    header, records = JsonLog(path, "telemetry sink").read(check_header, _read_event)
    worker = str(header.get("worker", path.stem))
    return [{"worker": worker, **record} for _, record in records]


def _read_event(line: bytes) -> "dict | None":
    """The telemetry record on one sink line, ``None`` if it holds none."""
    record = parse_line(line)
    return record if isinstance(record, dict) and "kind" in record else None


def load_trace_dir(directory: "Path | str") -> "list[dict]":
    """Merge every per-worker sink in a trace directory, timestamp-ordered.

    This is the cross-process merge: each worker wrote its own file, all
    timestamps came from the machine-wide monotonic clock, so a plain sort
    interleaves them into one coherent timeline.  Missing or torn files
    degrade per-record, never per-trace — a SIGKILL'd worker's sink
    contributes everything it flushed before dying — and a sink whose
    header is corrupt is skipped with a warning naming it.  A sink of
    another format or version still raises.
    """
    directory = Path(directory)
    if not directory.exists():
        return []
    events: "list[dict]" = []
    for path in sorted(directory.glob(f"{SINK_PREFIX}*{SINK_SUFFIX}")):
        try:
            events.extend(load_events(path))
        except CorruptHeaderError as error:
            _log.warning("%s; skipping its records", error)
    events.sort(key=_event_ns)
    return events


def _event_ns(record: dict) -> int:
    """Sort key: a record's monotonic timestamp in nanoseconds."""
    if "start_ns" in record:
        return int(record["start_ns"])
    return int(record.get("ns", 0))
