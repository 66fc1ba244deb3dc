"""Append-only JSONL logs: one header line, then one JSON record per line.

Campaign checkpoints and telemetry sinks are both such logs, and this
module owns their durability rules.  The header is written with the
first append.  An append after a torn tail starts a fresh line, so a
``kill -9`` mid-write costs exactly the torn record; a file with no
newline at all is a torn header, which the next append starts over.
Each line is decoded from bytes on its own, and a torn, non-UTF-8 or
malformed line is skipped with a warning naming the file.  A torn header
with no records loads as empty; a corrupt header followed by records
raises :class:`CorruptHeaderError` naming the file.  What a header must
say and what makes a record well-formed stay with each caller.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar

from repro.utils.logging import get_logger

__all__ = ["CorruptHeaderError", "JsonLog", "parse_line"]

_log = get_logger("utils.jsonlog")

T = TypeVar("T")


class CorruptHeaderError(ValueError):
    """A log whose header line is unreadable although records follow it."""


def parse_line(line: bytes) -> object:
    """The JSON value on one line; ``None`` if it is torn, not UTF-8 or not JSON."""
    try:
        return json.loads(line.decode())
    except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
        return None


class JsonLog:
    """One append-only JSONL file.

    ``what`` names the kind of file (``"checkpoint"``) in every warning and
    error; ``header`` is the encoded header line, without its newline,
    that the first append writes (a reader may leave it out).
    """

    def __init__(self, path: "Path | str", what: str, header: bytes = b""):
        self.path = Path(path)
        self.what = what
        self.header = header

    def append(self, lines: "list[bytes]") -> None:
        """Append encoded records (no newlines) in one write."""
        with self._open() as handle:
            handle.write(self._head(handle) + b"".join(line + b"\n" for line in lines))

    def open(self) -> "BinaryIO":
        """An append handle for a writer that keeps one open, line by line.

        The tail repair and a missing header go into the handle's buffer,
        so they reach the file with the first flushed record.
        """
        handle = self._open()
        try:
            handle.write(self._head(handle))
        except BaseException:
            handle.close()
            raise
        return handle

    def _open(self) -> "BinaryIO":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return open(self.path, "a+b")

    def _head(self, handle: "BinaryIO") -> bytes:
        """What the first record appended to a freshly opened file needs before it."""
        if handle.seek(0, 2):
            handle.seek(-1, 2)
            if handle.read(1) == b"\n":
                return b""
            handle.seek(0)
            if b"\n" in handle.read():
                # a torn record: glued onto it, the new one would be lost too
                return b"\n"
            handle.truncate(0)  # a torn header: nothing was recorded
        return self.header + b"\n"

    def read(
        self,
        check_header: "Callable[[dict], None]",
        read_record: "Callable[[bytes], T | None]",
    ) -> "tuple[dict, list[tuple[bytes, T]]]":
        """The checked header and every readable ``(line, record)`` pair.

        ``check_header`` raises on a header the caller cannot use;
        ``read_record`` returns ``None`` for a line holding no record.
        An absent or empty file, or one holding only a torn header, reads
        as ``({}, [])``.  Reading never writes.
        """
        try:
            lines = self.path.read_bytes().splitlines()
        except FileNotFoundError:
            return {}, []
        if not lines:
            return {}, []
        header = parse_line(lines[0])
        if not isinstance(header, dict):
            if not any(line.strip() for line in lines[1:]):
                # the first-ever append died mid-header: nothing was
                # recorded, so an empty log is the truthful state
                _log.warning(
                    "%s %s has a torn header and no records; treating it "
                    "as empty", self.what, self.path,
                )
                return {}, []
            raise CorruptHeaderError(
                f"{self.what} {self.path} has a corrupt header; delete it "
                "to start it over"
            )
        check_header(header)
        records = []
        for line in lines[1:]:
            if not line.strip():
                continue
            record = read_record(line)
            if record is None:
                _log.warning(
                    "%s %s has a truncated or unreadable record; skipping it",
                    self.what, self.path,
                )
                continue
            records.append((line, record))
        return header, records
