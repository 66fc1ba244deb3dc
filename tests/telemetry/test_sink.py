"""TelemetrySink durability: JSONL roundtrip and torn-write tolerance."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.telemetry import (
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    TelemetrySink,
    load_events,
    load_trace_dir,
    sink_path,
)


def _record(name: str, ns: int = 0) -> dict:
    return {"kind": "event", "name": name, "trace": "t", "ns": ns, "attrs": {}}


class TestRoundtrip:
    def test_append_then_load(self, tmp_path):
        path = sink_path(tmp_path, "w0")
        sink = TelemetrySink(path, worker="w0")
        sink.append(_record("a", 1))
        sink.append(_record("b", 2))
        sink.close()
        events = load_events(path)
        assert [e["name"] for e in events] == ["a", "b"]
        # worker is defaulted from the header for records lacking one
        assert all(e["worker"] == "w0" for e in events)

    def test_header_written_once(self, tmp_path):
        path = sink_path(tmp_path, "w0")
        sink = TelemetrySink(path, worker="w0")
        sink.append(_record("a"))
        sink.close()
        # reopening the same file appends, never re-writes the header
        again = TelemetrySink(path, worker="w0")
        again.append(_record("b"))
        again.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {
            "format": TELEMETRY_FORMAT,
            "version": TELEMETRY_VERSION,
            "worker": "w0",
        }
        assert len(lines) == 3

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_events(tmp_path / "trace-none.jsonl") == []
        assert load_trace_dir(tmp_path / "nowhere") == []

    def test_trace_dir_merge_orders_by_timestamp(self, tmp_path):
        a = TelemetrySink(sink_path(tmp_path, "a"), worker="a")
        b = TelemetrySink(sink_path(tmp_path, "b"), worker="b")
        a.append(_record("third", 30))
        b.append(_record("first", 10))
        a.append(_record("second", 20))
        a.close()
        b.close()
        merged = load_trace_dir(tmp_path)
        assert [e["name"] for e in merged] == ["first", "second", "third"]


class TestTornWrites:
    """Sink-specific record rules and the trace-sink fault sweeps.  The log
    rules the sink shares with checkpoints (torn tail, append after a tear,
    torn header, corrupt header, non-UTF-8 record) are checked over both
    formats in ``tests/utils/test_jsonlog.py``."""

    def test_malformed_record_is_skipped(self, tmp_path):
        path = sink_path(tmp_path, "w0")
        sink = TelemetrySink(path, worker="w0")
        sink.append(_record("good"))
        sink.close()
        with path.open("a") as handle:
            handle.write('["not", "a", "record"]\n')
            handle.write('{"no_kind": true}\n')
        assert [e["name"] for e in load_events(path)] == ["good"]

    @staticmethod
    def _two_record_sink(tmp_path):
        path = sink_path(tmp_path, "w0")
        sink = TelemetrySink(path, worker="w0")
        sink.append(_record("a", 1))
        sink.append(_record("b", 2))
        sink.close()
        return path

    def test_chaos_trace_sink_truncated_at_every_byte_offset(self, tmp_path):
        """Wherever a kill cuts the file, the loader returns the records
        wholly before the cut (a torn header: none) and never raises."""
        path = self._two_record_sink(tmp_path)
        data = path.read_bytes()
        _, end_a, end_b = [i for i, byte in enumerate(data) if byte == ord("\n")]
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            complete = (cut >= end_a) + (cut >= end_b)
            names = [e["name"] for e in load_events(path)]
            assert names == ["a", "b"][:complete], cut

    def test_chaos_trace_sink_byte_flipped_at_sampled_offsets(self, tmp_path, caplog):
        """A byte flipped anywhere costs records, with a warning naming
        the file, and never fails the whole trace: a flip in the header
        costs that sink."""
        path = self._two_record_sink(tmp_path)
        data = path.read_bytes()
        newlines = [i for i, byte in enumerate(data) if byte == ord("\n")]
        sampled = np.random.default_rng(0).choice(len(data), 48, replace=False)
        for offset in sorted({0, *newlines, *sampled.tolist()}):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                names = [e["name"] for e in load_trace_dir(tmp_path)]
            assert names in (["a"], ["b"], []), offset
            assert any(str(path) in r.getMessage() for r in caplog.records), offset

    def test_corrupt_sink_header_costs_only_that_sink(self, tmp_path, caplog):
        """One worker's corrupt header skips its sink, with a warning naming
        it; the other workers' records still load."""
        for worker, name in (("w0", "kept"), ("w1", "lost")):
            sink = TelemetrySink(sink_path(tmp_path, worker), worker=worker)
            sink.append(_record(name))
            sink.close()
        flipped_path = sink_path(tmp_path, "w1")
        flipped = bytearray(flipped_path.read_bytes())
        flipped[2] ^= 0xFF
        flipped_path.write_bytes(bytes(flipped))
        with caplog.at_level(logging.WARNING):
            events = load_trace_dir(tmp_path)
        assert [(e["worker"], e["name"]) for e in events] == [("w0", "kept")]
        assert any(str(flipped_path) in r.getMessage() for r in caplog.records)
        with pytest.raises(ValueError, match="corrupt header"):
            load_events(flipped_path)


class TestHeaderValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = sink_path(tmp_path, "w0")
        path.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="not a telemetry sink"):
            load_events(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = sink_path(tmp_path, "w0")
        header = {"format": TELEMETRY_FORMAT, "version": 999, "worker": "w"}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="unsupported version"):
            load_events(path)
