"""Rule registry + file walker: the mechanical half of the linter.

A :class:`LintRule` owns one invariant: a *scope* (fnmatch patterns over
the path relative to the scanned root — the hot-path contract is a
property of specific modules, not the whole tree) and a ``check`` that
walks a parsed AST and returns :class:`~repro.analysis.findings.Finding`
objects.  Rules register themselves via the :func:`rule` decorator; the
engine parses each file **once** and hands the same
:class:`ModuleContext` to every in-scope rule.

A finding is suppressed only by a ``# repro: allow-<rule>(reason)``
pragma on its line, reviewed in place (see :mod:`repro.analysis.pragmas`);
everything else is a failure.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.pragmas import audit_pragmas, collect_pragmas

__all__ = [
    "AnalysisReport",
    "LintRule",
    "ModuleContext",
    "RULE_REGISTRY",
    "analyze_paths",
    "iter_python_files",
    "rule",
]

#: Every registered rule id → singleton rule instance.  Populated by the
#: :func:`rule` decorator when :mod:`repro.analysis.rules` is imported.
RULE_REGISTRY: "dict[str, LintRule]" = {}


def rule(cls: type) -> type:
    """Class decorator registering a :class:`LintRule` subclass."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} must declare a non-empty id")
    if instance.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    RULE_REGISTRY[instance.id] = instance
    return cls


@dataclass
class ModuleContext:
    """Everything a rule needs about one parsed module (parsed once)."""

    path: Path
    relpath: str  # posix-style, relative to the scanned root
    source: str
    tree: ast.Module
    lines: "list[str]" = field(default_factory=list)

    def snippet(self, lineno: int) -> str:
        """Stripped source line at 1-indexed ``lineno`` ("" out of range)."""
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=rule_id,
            path=self.relpath,
            line=lineno,
            message=message,
            snippet=self.snippet(lineno),
        )


class LintRule(abc.ABC):
    """One mechanical invariant check over a module AST."""

    #: Kebab-case rule id — what pragmas key on.
    id: str = ""
    #: One-line contract statement (shown by ``--list-rules``).
    description: str = ""
    #: fnmatch patterns over the root-relative posix path; a rule only
    #: sees files inside its scope.  The hot-path invariants are module
    #: properties — ``.toarray()`` in an experiment driver is fine.
    scope: "tuple[str, ...]" = ("*",)

    def applies_to(self, relpath: str) -> bool:
        """Whether ``relpath`` (posix, root-relative) is in scope."""
        return any(fnmatch(relpath, pattern) for pattern in self.scope)

    @abc.abstractmethod
    def check(self, module: ModuleContext) -> "list[Finding]":
        """Return every violation of this rule in ``module``."""


@dataclass
class AnalysisReport:
    """Outcome of one analysis run over a file set."""

    findings: "list[Finding]"  # unsuppressed findings — these fail the gate
    errors: "list[Finding]" = field(default_factory=list)  # unparseable files
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        """Gate verdict: no findings and no scan errors."""
        return not self.findings and not self.errors


def iter_python_files(paths: "list[Path]") -> "list[Path]":
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                seen.setdefault(file.resolve(), None)
        elif path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
    return list(seen)


def _relpath(file: Path, root: Path) -> str:
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.name


def analyze_paths(
    paths: "list[Path] | None" = None,
    *,
    root: "Path | None" = None,
    rules: "list[LintRule] | None" = None,
) -> AnalysisReport:
    """Run every (in-scope) rule over ``paths``; apply pragmas.

    ``root`` anchors rule scoping and finding paths; it defaults to the
    installed ``repro`` package directory, so ``analyze_paths()`` with no
    arguments lints the production tree from any working directory.
    """
    import repro

    if root is None:
        root = Path(repro.__file__).resolve().parent
    if paths is None:
        paths = [root]
    active = list(RULE_REGISTRY.values()) if rules is None else list(rules)
    known_rules = {r.id for r in active}

    findings: list[Finding] = []
    errors: list[Finding] = []
    files = iter_python_files([Path(p) for p in paths])
    for file in files:
        relpath = _relpath(file, Path(root))
        try:
            source = file.read_text()
            tree = ast.parse(source, filename=str(file))
        except (OSError, SyntaxError) as error:
            errors.append(
                Finding(
                    rule="parse-error",
                    path=relpath,
                    line=getattr(error, "lineno", 1) or 1,
                    message=f"could not analyse file: {error}",
                )
            )
            continue
        module = ModuleContext(
            path=file,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        applicable = [r for r in active if r.applies_to(relpath)]
        pragmas = collect_pragmas(source)
        for lint_rule in applicable:
            for finding in lint_rule.check(module):
                suppressed = False
                for pragma in pragmas.get(finding.line, ()):
                    if pragma.suppresses(finding.rule) and pragma.reason:
                        pragma.used = True
                        suppressed = True
                if not suppressed:
                    findings.append(finding)
        findings.extend(
            audit_pragmas(
                pragmas,
                relpath,
                module.lines,
                known_rules=known_rules,
                applicable_rules={r.id for r in applicable},
            )
        )

    return AnalysisReport(
        findings=findings,
        errors=errors,
        files_scanned=len(files),
    )
