"""The append-only JSONL log rules, checked once over both formats on them.

Campaign checkpoints (:class:`CheckpointStore`) and telemetry sinks
(:class:`TelemetrySink` / :func:`load_events`) share one log
implementation, :class:`repro.utils.jsonlog.JsonLog`; every rule here runs
against both, through each format's own writer and loader.
"""

import json
import logging

import pytest

from repro.attacks import AttackJob, CheckpointStore, JobOutcome
from repro.telemetry import TelemetrySink, load_events, sink_path
from repro.utils.jsonlog import JsonLog


class _Checkpoint:
    """Records are job outcomes; a record's name is its one target."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "campaign.jsonl"

    def _store(self):
        return CheckpointStore(self.path, "fingerprint", 10)

    def write(self, *names):
        store = self._store()
        for name in names:
            store.append(JobOutcome(
                job=AttackJob.make("random", [name], 1),
                flips_by_budget={1: [(0, name)]},
                surrogate_by_budget={1: 0.5},
                score_before=1.0,
                score_after=0.5,
                rank_shifts={name: 0},
                seconds=0.0,
            ))

    def load(self):
        return [o.job.targets[0] for o in self._store().load().values()]


class _Sink:
    """Records are telemetry events; a record's name is its timestamp."""

    def __init__(self, tmp_path):
        self.path = sink_path(tmp_path, "w0")

    def write(self, *names):
        sink = TelemetrySink(self.path, worker="w0")
        for name in names:
            sink.append({"kind": "event", "name": "e", "trace": "t",
                         "ns": name, "attrs": {}})
        sink.close()

    def load(self):
        return [event["ns"] for event in load_events(self.path)]


@pytest.fixture(params=[_Checkpoint, _Sink], ids=["checkpoint", "sink"])
def log(request, tmp_path):
    return request.param(tmp_path)


def _warned_about(caplog, path) -> bool:
    return any(str(path) in record.getMessage() for record in caplog.records)


def _record_start(data: bytes, index: int) -> int:
    """Offset of record ``index`` (0-based, header excluded) in ``data``."""
    start = 0
    for _ in range(index + 1):
        start = data.index(b"\n", start) + 1
    return start


class TestLogRules:
    def test_torn_tail_costs_only_that_record(self, log, caplog):
        log.write(1, 2)
        log.path.write_bytes(log.path.read_bytes()[:-9])  # a kill mid-write
        with caplog.at_level(logging.WARNING):
            assert log.load() == [1]
        assert _warned_about(caplog, log.path)

    def test_append_after_a_tear_starts_a_fresh_line(self, log):
        log.write(1, 2)
        log.path.write_bytes(log.path.read_bytes()[:-9])
        log.write(3)
        # the new record must not be glued onto the torn line
        assert log.load() == [1, 3]

    def test_torn_header_only_loads_empty(self, log, caplog):
        log.write(1)
        log.path.write_bytes(log.path.read_bytes()[:12])
        with caplog.at_level(logging.WARNING):
            assert log.load() == []
        assert _warned_about(caplog, log.path)
        assert len(log.path.read_bytes()) == 12  # loading never writes

    def test_append_after_a_torn_header_starts_the_file_over(self, log):
        """A second run writing to the same file after the first run's
        very first append died mid-header."""
        log.write(1)
        log.path.write_bytes(log.path.read_bytes()[:12])
        log.write(2)
        assert log.load() == [2]
        assert log.path.read_bytes().count(b"\n") == 2  # header + one record

    def test_corrupt_header_with_records_raises(self, log):
        """Garbage where the header should be, but records following it:
        that is not a first-append tear, so refuse to guess."""
        log.write(1, 2)
        data = bytearray(log.path.read_bytes())
        data[3] ^= 0xFF  # not UTF-8 any more
        log.path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt header") as error:
            log.load()
        assert str(log.path) in str(error.value)

    def test_non_utf8_byte_in_a_record_costs_that_record(self, log, caplog):
        """Each line is decoded on its own: one byte that is not UTF-8
        costs its record, not the file."""
        log.write(1, 2, 3)
        data = bytearray(log.path.read_bytes())
        data[_record_start(bytes(data), 1) + 5] ^= 0xFF
        log.path.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING):
            assert log.load() == [1, 3]
        assert _warned_about(caplog, log.path)


class TestJsonLog:
    def test_writes_the_header_with_the_first_append_only(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonLog(path, "log", b'{"v": 1}')
        assert not path.exists()
        log.append([b"[1]"])
        log.append([b"[2]", b"[3]"])
        assert path.read_bytes() == b'{"v": 1}\n[1]\n[2]\n[3]\n'

    def test_an_open_handle_writes_the_header_with_its_first_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonLog(path, "log", b"{}")
        with log.open() as handle:
            assert path.read_bytes() == b""  # the header waits in the buffer
            handle.write(b"[1]\n")
            handle.flush()
            assert path.read_bytes() == b"{}\n[1]\n"
        log.append([b"[2]"])
        assert path.read_bytes() == b"{}\n[1]\n[2]\n"

    def test_read_returns_the_header_and_each_line_with_its_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"v": 1}\n[1]\n\n[2]\n')
        header, records = JsonLog(path, "log").read(
            lambda header: None, lambda line: json.loads(line)
        )
        assert header == {"v": 1}
        assert records == [(b"[1]", [1]), (b"[2]", [2])]

    def test_the_header_check_runs_before_any_record_is_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"v": 2}\n[1]\n')
        read = []

        def check_header(header):
            raise ValueError(f"unsupported version {header['v']}")

        with pytest.raises(ValueError, match="unsupported version 2"):
            JsonLog(path, "log").read(check_header, read.append)
        assert read == []


def test_checkpoint_append_is_its_own_method(monkeypatch, tmp_path):
    """Profilers wrap ``append`` on the class of the MRO that defines it;
    for ``CheckpointStore`` that must be ``CheckpointStore`` itself, and the
    sink's appends must not run through the wrapper, or every trace record
    would open a span that writes a trace record."""
    owner = next(k for k in CheckpointStore.__mro__ if "append" in k.__dict__)
    assert owner is CheckpointStore

    def wrapped(self, outcome):
        raise AssertionError("the sink appended through CheckpointStore.append")

    monkeypatch.setattr(CheckpointStore, "append", wrapped)
    _Sink(tmp_path).write(1)
    assert _Sink(tmp_path).load() == [1]
