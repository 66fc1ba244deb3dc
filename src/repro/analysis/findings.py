"""Finding: one lint observation, located by ``(path, line)``.

Formatting supports the plain terminal style and the ``--format github``
style (``::error file=...`` workflow commands) the CI job consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One invariant violation found by a rule.

    ``snippet`` is the stripped source line the finding anchors to.
    """

    rule: str
    path: str
    line: int
    message: str
    snippet: str = ""

    def format_text(self) -> str:
        """``path:line: [rule] message`` — the terminal style."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def format_github(self) -> str:
        """GitHub Actions workflow-command style (inline PR annotations)."""
        # Workflow commands terminate the message at a newline; the
        # properties segment additionally reserves ',' and '::'.
        message = self.message.replace("\n", " ")
        return (
            f"::error file={self.path},line={self.line},"
            f"title=repro.analysis {self.rule}::{message}"
        )
