"""Tests for the logging helpers."""

import logging

from repro.utils.logging import configure, get_logger


class TestLogging:
    def test_namespacing(self):
        assert get_logger("attacks").name == "repro.attacks"
        assert get_logger("repro.graph").name == "repro.graph"

    def test_configure_idempotent(self):
        configure(level=logging.WARNING)
        configure(level=logging.WARNING)
        root = logging.getLogger("repro")
        assert len(root.handlers) <= 1
