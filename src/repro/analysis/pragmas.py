"""Per-line suppression pragmas: ``# repro: allow-<rule>(reason)``.

A pragma acknowledges ONE rule on ONE line, with a mandatory free-text
reason; it is the only way to suppress a finding.  Syntax::

    x = csr.toarray()  # repro: allow-densify(testing-only helper)

The pragma may sit on the flagged line itself or on a comment-only line
directly above it (for lines too long to carry the comment).

Pragmas are *audited*: one that matches no finding is itself reported
(``unused-pragma``), as is one naming an unknown rule or an empty reason
(``malformed-pragma``).  This keeps suppressions from outliving the code
they excused.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

__all__ = ["Pragma", "collect_pragmas", "audit_pragmas"]

#: ``# repro: allow-<rule>(<reason>)`` — rule ids are kebab-case; the
#: pragma spells the rule WITHOUT its ``no-`` prefix where one exists
#: (``allow-densify`` suppresses ``no-densify``), reading as permission.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow-([a-z0-9-]+)\s*\(([^()]*)\)")


@dataclass
class Pragma:
    """One parsed suppression pragma."""

    allow: str  # the token after ``allow-`` (e.g. ``densify``)
    reason: str
    line: int  # 1-indexed line the pragma comment sits on
    used: bool = field(default=False, compare=False)

    def suppresses(self, rule_id: str) -> bool:
        """Whether this pragma acknowledges ``rule_id``.

        ``allow-densify`` matches ``no-densify``: the pragma drops a
        leading ``no-`` so suppressions read as permissions.
        """
        return rule_id in (self.allow, f"no-{self.allow}")


def collect_pragmas(source: str) -> "dict[int, list[Pragma]]":
    """Parse every pragma in ``source``, keyed by the line it *covers*.

    A pragma on a comment-only line covers the next line; a trailing
    pragma covers its own line.  Both keys may coexist (two pragmas).

    Comments are located with :mod:`tokenize`, not a text scan, so pragma
    syntax quoted inside a string/docstring (like the example above) is
    never mistaken for a live suppression.
    """
    covered: dict[int, list[Pragma]] = {}
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return covered  # unparseable files are reported by the engine
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            continue
        lineno, column = token.start
        pragma = Pragma(
            allow=match.group(1), reason=match.group(2).strip(), line=lineno
        )
        comment_only = lineno <= len(lines) and not lines[lineno - 1][:column].strip()
        target = lineno + 1 if comment_only else lineno
        covered.setdefault(target, []).append(pragma)
    return covered


def audit_pragmas(
    pragmas: "dict[int, list[Pragma]]",
    relpath: str,
    lines: "list[str]",
    known_rules: "set[str]",
    applicable_rules: "set[str]",
) -> "list[Finding]":
    """Findings for malformed, unknown-rule, and unused pragmas.

    ``applicable_rules`` are the rules whose scope includes this file: a
    pragma for an in-scope rule that suppressed nothing is dead weight
    (``unused-pragma``); one naming a rule that does not exist at all is
    a typo that would silently suppress nothing (``malformed-pragma``).
    """
    findings: list[Finding] = []
    for entries in pragmas.values():
        for pragma in entries:
            snippet = (
                lines[pragma.line - 1].strip()
                if 0 < pragma.line <= len(lines)
                else ""
            )
            resolved = {pragma.allow, f"no-{pragma.allow}"} & known_rules
            if not pragma.reason:
                findings.append(
                    Finding(
                        rule="malformed-pragma",
                        path=relpath,
                        line=pragma.line,
                        message=(
                            f"pragma allow-{pragma.allow} has an empty reason; "
                            "every suppression must record why it is safe"
                        ),
                        snippet=snippet,
                    )
                )
                continue
            if not resolved:
                findings.append(
                    Finding(
                        rule="malformed-pragma",
                        path=relpath,
                        line=pragma.line,
                        message=(
                            f"pragma allow-{pragma.allow} names no known rule "
                            "(it would suppress nothing)"
                        ),
                        snippet=snippet,
                    )
                )
                continue
            if pragma.used:
                continue
            if resolved & applicable_rules:
                findings.append(
                    Finding(
                        rule="unused-pragma",
                        path=relpath,
                        line=pragma.line,
                        message=(
                            f"pragma allow-{pragma.allow} suppresses no finding; "
                            "remove it (the code it excused is gone)"
                        ),
                        snippet=snippet,
                    )
                )
            else:
                findings.append(
                    Finding(
                        rule="unused-pragma",
                        path=relpath,
                        line=pragma.line,
                        message=(
                            f"pragma allow-{pragma.allow} sits in a file outside "
                            "that rule's scope; remove it"
                        ),
                        snippet=snippet,
                    )
                )
    return findings
