"""CLI: ``python -m repro.analysis [paths] [--root DIR] [--format github]``.

Exit status is the contract CI relies on: 0 when every finding is
suppressed by a pragma, 1 otherwise.  ``--format github`` emits workflow
commands (``::error file=...``) so findings surface as inline PR
annotations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import rules as _rules  # noqa: F401 — registers the rules
from repro.analysis.engine import RULE_REGISTRY, analyze_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Invariant linter for the repro codebase: hot-path "
            "densification, unseeded randomness, mmap write safety."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="directory rule scopes are anchored to (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output style (github = workflow-command annotations)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run the analysis; return the process exit status."""
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[rule_id]
            print(f"{rule_id:24s} {rule.description}")
            print(f"{'':24s} scope: {', '.join(rule.scope)}")
        return 0

    report = analyze_paths([Path(p) for p in args.paths] or None, root=args.root)
    failures = report.errors + report.findings
    for finding in failures:
        print(
            finding.format_github()
            if args.format == "github"
            else finding.format_text()
        )

    summary = (
        f"repro.analysis: {report.files_scanned} file(s) scanned, "
        f"{len(report.findings)} finding(s)"
    )
    if report.errors:
        summary += f", {len(report.errors)} file(s) unparseable"
    print(summary, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
