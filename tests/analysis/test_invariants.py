"""The hot-path invariants, checked over the ``repro`` package source.

Three AST checks guard the contracts the stack's guarantees rest on:

* ``no-densify`` — hot-path modules never materialise a dense adjacency
  (the O(deg)-per-flip scaling story dies with one stray ``.toarray()``);
* ``no-unseeded-random`` — attack/engine/store randomness flows through a
  seeded :class:`numpy.random.Generator`, never global legacy state
  (serial/parallel/resume parity is bit-identical only if it does);
* ``mmap-write-safety`` — arrays obtained from ``adjacency_csr()`` /
  ``GraphStore.csr()`` / read-mode memmaps are never written through
  (a write would corrupt pages shared by every process mapping the store).

Scopes are fnmatch patterns over the path relative to the package root:
the invariants are properties of specific modules (the hot path), not of
the whole tree — densifying in an experiment driver over a 1 000-node
sample is exactly what the paper does.

A finding is excused only by an :data:`ALLOWLIST` entry keyed by
``(path, qualname, rule)``, which records how many findings it excuses
and why.  More findings than the count fail, and so does an entry that
excuses fewer than its count, so an entry cannot outlive the code it
excused.  ``test_package_is_clean`` is the gate; the rest pin each check
against the fixture trees under ``fixtures/``.
"""

from __future__ import annotations

import ast
import re
import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"

#: ``(path, qualname, rule) → (count, reason)``: the findings reviewed as
#: legitimate, per enclosing function.
ALLOWLIST = {
    ("oddball/surrogate.py", "DenseSurrogateEngine.__init__", "no-densify"): (
        1,
        "the dense reference engine is for small graphs and tests; densifying "
        "the validated graph is the point",
    ),
}


@dataclass(frozen=True)
class Finding:
    """One invariant violation, located by ``(path, line)``."""

    rule: str
    path: str
    line: int
    qualname: str
    message: str
    snippet: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class ModuleContext:
    """One parsed module, handed to every in-scope check."""

    relpath: str  # posix-style, relative to the scanned root
    tree: ast.Module
    lines: "list[str]"
    scopes: "list[tuple[int, int, str]]"  # (first, last line, qualname)

    def qualname(self, lineno: int) -> str:
        """Dotted name of the innermost def/class holding ``lineno``."""
        inner = [name for first, last, name in self.scopes if first <= lineno <= last]
        return inner[-1] if inner else "<module>"

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        snippet = self.lines[lineno - 1].strip() if 0 < lineno <= len(self.lines) else ""
        return Finding(rule_id, self.relpath, lineno, self.qualname(lineno), message, snippet)


def _scopes(tree: ast.Module) -> "list[tuple[int, int, str]]":
    """Every def and class as ``(first line, last line, qualname)``, in
    pre-order, so the last span holding a line is its innermost scope."""
    spans: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                spans.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


# --------------------------------------------------------------------- #
# The checks
# --------------------------------------------------------------------- #

#: Terminal-name tokens that mark a variable as sparse-matrix-like for the
#: ``np.asarray``/``np.array`` branch of ``no-densify``.
_SPARSE_NAME_TOKENS = {"csr", "coo", "sparse", "spmatrix"}

#: Zero-argument-call producers whose result is sparse (``to_sparse(g)``,
#: ``graph.adjacency_csr()``, ``matrix.tocsr()``, ``store.csr()``).
_SPARSE_PRODUCERS = {"to_sparse", "adjacency_csr", "tocsr", "tocoo", "csr"}

#: scipy/ndarray methods that mutate the receiver in place.
_MUTATING_METHODS = {
    "sort_indices",
    "setdiag",
    "eliminate_zeros",
    "sum_duplicates",
    "prune",
    "resize",
    "sort",
    "fill",
    "setflags",
    "partition",
}

#: CSR buffer attributes — writes through these hit the mmap pages.
_BUFFER_ATTRS = {"data", "indices", "indptr"}

#: ``np.random`` constructors that are fine anywhere (they *are* the
#: seeded-Generator machinery).
_SEEDED_CONSTRUCTORS = {"Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}


def _terminal_name(node: ast.AST) -> str:
    """Last identifier of a Name/Attribute chain ("" for anything else)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _call_name(node: ast.AST) -> str:
    """Called function's terminal name ("" if not a call)."""
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return ""


def _looks_sparse(node: ast.AST) -> bool:
    """Heuristic: does this expression evaluate to a sparse matrix?

    Matches variables whose terminal name contains a sparse token
    (``csr``, ``adjacency_csr`` …) and calls to known sparse producers.
    Deliberately does NOT match attribute reads *off* such a variable
    (``csr.data`` is a flat buffer — densifying it is meaningless).
    """
    name = _terminal_name(node)
    if name:
        tokens = set(re.split(r"[_\d]+", name.lower()))
        if tokens & _SPARSE_NAME_TOKENS:
            return True
    return _call_name(node) in _SPARSE_PRODUCERS


def _numpy_aliases(tree: ast.Module) -> "set[str]":
    """Local names bound to the numpy module (``np`` by convention)."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def no_densify(module: ModuleContext) -> "list[Finding]":
    """Hot-path modules must not materialise dense adjacencies.

    Flags ``.toarray()`` / ``.todense()`` calls anywhere in scope, and
    ``np.asarray`` / ``np.array`` whose argument is recognisably sparse.
    The incremental engine's whole point is O(deg) flips over a CSR that
    may be an out-of-core memmap; one densify silently reverts to the
    O(n²) regime the paper's scaling results forbid.
    """
    rule_id = "no-densify"
    findings: list[Finding] = []
    numpy_names = _numpy_aliases(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "toarray",
            "todense",
        ):
            findings.append(
                module.finding(
                    rule_id,
                    node,
                    f".{func.attr}() materialises a dense adjacency in a "
                    "hot-path module",
                )
            )
            continue
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("asarray", "array", "asmatrix")
            and isinstance(func.value, ast.Name)
            and func.value.id in numpy_names
            and node.args
            and _looks_sparse(node.args[0])
        ):
            findings.append(
                module.finding(
                    rule_id,
                    node,
                    f"np.{func.attr}() of a sparse matrix densifies it "
                    "in a hot-path module",
                )
            )
    return findings


def no_unseeded_random(module: ModuleContext) -> "list[Finding]":
    """Randomness in attack/engine/store code must be explicitly seeded.

    Flags legacy global-state calls (``np.random.rand`` …, stdlib
    ``random``) and ``np.random.default_rng()`` with no/None seed.  The
    campaign layer's bit-identical serial/parallel/resume parity only
    holds when every stochastic choice derives from a seed recorded in
    the checkpoint.
    """
    rule_id = "no-unseeded-random"
    findings: list[Finding] = []
    numpy_names = _numpy_aliases(module.tree)
    random_modules: set[str] = set()
    random_names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "random":
                    random_modules.add(item.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for item in node.names:
                random_names.add(item.asname or item.name)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in random_names:
            findings.append(
                module.finding(
                    rule_id,
                    node,
                    f"stdlib random.{func.id}() uses unseeded global "
                    "state; use a seeded numpy Generator",
                )
            )
            continue
        if not isinstance(func, ast.Attribute):
            continue
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id in random_modules:
            findings.append(
                module.finding(
                    rule_id,
                    node,
                    f"stdlib random.{func.attr}() uses unseeded global "
                    "state; use a seeded numpy Generator",
                )
            )
            continue
        # np.random.<attr>(...) — the legacy global-state surface.
        if not (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in numpy_names
        ):
            continue
        if func.attr in _SEEDED_CONSTRUCTORS:
            continue
        if func.attr == "default_rng":
            seed = node.args[0] if node.args else None
            unseeded = seed is None or (
                isinstance(seed, ast.Constant) and seed.value is None
            )
            if unseeded:
                findings.append(
                    module.finding(
                        rule_id,
                        node,
                        "np.random.default_rng() without a seed is "
                        "non-deterministic; thread an explicit seed",
                    )
                )
            continue
        findings.append(
            module.finding(
                rule_id,
                node,
                f"np.random.{func.attr}() uses the legacy global RNG; "
                "route through a seeded np.random.Generator",
            )
        )
    return findings


class _TaintVisitor(ast.NodeVisitor):
    """Per-scope taint tracking for the mmap-write-safety check.

    Taints names bound from ``adjacency_csr()`` / ``.csr()`` calls, from
    ``np.memmap(..., mode="r")``, and from the first element of a
    ``csr_with_delta()`` tuple-unpack; propagates through plain aliasing
    and ``.data/.indices/.indptr`` reads; reports any store or in-place
    mutation through a tainted name.
    """

    def __init__(self, rule_id: str, module: ModuleContext, numpy_names: "set[str]"):
        self.rule_id = rule_id
        self.module = module
        self.numpy_names = numpy_names
        self.tainted: set[str] = set()
        self.findings: list[Finding] = []

    # -- taint sources ------------------------------------------------- #
    def _is_readonly_memmap(self, call: ast.Call) -> bool:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "memmap"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.numpy_names
        ):
            return False
        for keyword in call.keywords:
            if keyword.arg == "mode":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value == "r"
                )
        return False  # writable by default (numpy's default mode is r+)

    def _taints(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in ("adjacency_csr", "csr"):
                return True
            return self._is_readonly_memmap(value)
        if isinstance(value, ast.Name):
            return value.id in self.tainted
        if isinstance(value, ast.Attribute):
            return (
                isinstance(value.value, ast.Name)
                and value.value.id in self.tainted
                and value.attr in _BUFFER_ATTRS
            )
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track taint through assignments (incl. csr_with_delta unpack)."""
        tainted_now = self._taints(node.value)
        delta_unpack = _call_name(node.value) == "csr_with_delta"
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tainted_now:
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)
            elif isinstance(target, ast.Tuple) and delta_unpack:
                # (base, delta) = features.csr_with_delta(): the base CSR
                # is store-backed; the delta overlay is a fresh COO.
                if target.elts and isinstance(target.elts[0], ast.Name):
                    self.tainted.add(target.elts[0].id)
            else:
                self._check_store_target(target)
        self.generic_visit(node)

    # -- violations ---------------------------------------------------- #
    def _check_store_target(self, target: ast.AST) -> None:
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.tainted:
            self._report(target, f"write into mmap-backed array {base.id!r}")
        elif (
            isinstance(base, ast.Attribute)
            and base.attr in _BUFFER_ATTRS
            and isinstance(base.value, ast.Name)
            and base.value.id in self.tainted
        ):
            self._report(
                target,
                f"write into CSR buffer {base.value.id}.{base.attr} of an "
                "mmap-backed matrix",
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Flag in-place operator writes through tainted names."""
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Skip nested scopes — each gets its own visitor from the check."""

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Skip nested scopes — each gets its own visitor from the check."""

    def visit_Call(self, node: ast.Call) -> None:
        """Flag in-place mutating method calls on tainted names."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.tainted
        ):
            self._report(
                node,
                f"{func.value.id}.{func.attr}() mutates an mmap-backed "
                "array in place",
            )
        self.generic_visit(node)

    def _report(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            self.module.finding(
                self.rule_id,
                node,
                f"{what}; store-backed CSR components are shared read-only "
                "pages — copy before mutating",
            )
        )


def mmap_write_safety(module: ModuleContext) -> "list[Finding]":
    """No writes through arrays that may be store-backed memmaps.

    A :class:`~repro.store.GraphStore` maps its CSR components
    ``mode="r"``; numpy raises on writes, but only at *runtime* on the
    mmap path — dense-graph tests never exercise it.  This check finds
    the writes statically, per function scope.
    """
    findings: list[Finding] = []
    numpy_names = _numpy_aliases(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visitor = _TaintVisitor("mmap-write-safety", module, numpy_names)
            for statement in node.body:
                visitor.visit(statement)
            findings.extend(visitor.findings)
    return findings


#: rule id → (check, scope): a check only sees files whose root-relative
#: posix path matches one of its scope's fnmatch patterns.
RULES = {
    "no-densify": (
        no_densify,
        (
            "graph/incremental.py",
            "graph/sparse.py",
            "oddball/surrogate.py",
            "attacks/*.py",
            "store/*.py",
        ),
    ),
    "no-unseeded-random": (
        no_unseeded_random,
        (
            "attacks/*.py",
            "oddball/surrogate.py",
            "store/*.py",
            "graph/incremental.py",
        ),
    ),
    "mmap-write-safety": (
        mmap_write_safety,
        (
            "graph/*.py",
            "oddball/surrogate.py",
            "attacks/*.py",
            "store/*.py",
        ),
    ),
}


# --------------------------------------------------------------------- #
# The walk and the allowlist
# --------------------------------------------------------------------- #


def scan(root: Path) -> "list[Finding]":
    """Every finding of every in-scope check under ``root``.

    A file that does not parse, in scope or not, yields one
    ``parse-error`` finding, which no allowlist entry can excuse.
    """
    findings: list[Finding] = []
    for file in sorted(root.rglob("*.py")):
        relpath = file.relative_to(root).as_posix()
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as error:
            line = error.lineno or 1
            findings.append(
                Finding("parse-error", relpath, line, "<module>", f"could not parse: {error.msg}")
            )
            continue
        module = ModuleContext(relpath, tree, source.splitlines(), _scopes(tree))
        for check, scope in RULES.values():
            if any(fnmatch(relpath, pattern) for pattern in scope):
                findings.extend(check(module))
    return findings


def _def_line(root: Path, path: str, qualname: str) -> int:
    """Line of ``qualname``'s def in ``root / path`` (0 when it is gone)."""
    try:
        tree = ast.parse((root / path).read_text())
    except (OSError, SyntaxError):
        return 0
    return next((first for first, _, name in _scopes(tree) if name == qualname), 0)


def violations(root: Path, allowlist: dict) -> "list[str]":
    """The failures of ``root`` against ``allowlist``, one line each.

    A finding fails unless an entry for its ``(path, qualname, rule)``
    excuses at least as many findings there; an entry that excuses fewer
    findings than its count fails on its own, at its function's def line.
    """
    groups: dict[tuple[str, str, str], list[Finding]] = defaultdict(list)
    for finding in scan(root):
        groups[(finding.path, finding.qualname, finding.rule)].append(finding)
    failures: list[str] = []
    for key, group in groups.items():
        count = allowlist.get(key, (0, ""))[0]
        if len(group) > count:
            note = f" ({len(group)} in {key[1]}, allowlist excuses {count})" if count else ""
            failures.extend(f"{finding}{note}" for finding in group)
    for (path, qualname, rule_id), (count, _reason) in allowlist.items():
        found = len(groups.get((path, qualname, rule_id), ()))
        if found < count:
            failures.append(
                f"{path}:{_def_line(root, path, qualname)}: [{rule_id}] allowlist "
                f"entry for {qualname} excuses {count} finding(s) but {found} remain; "
                "lower its count or delete it"
            )
    return failures


# --------------------------------------------------------------------- #
# The gate
# --------------------------------------------------------------------- #


def test_package_is_clean():
    failures = violations(PACKAGE_ROOT, ALLOWLIST)
    assert not failures, "\n".join(failures)


# --------------------------------------------------------------------- #
# Each check against the fixture trees
# --------------------------------------------------------------------- #

#: The good densify fixture's one reviewed ``.toarray()``.
GOOD_ALLOWLIST = {
    ("attacks/densify.py", "stay_sparse", "no-densify"): (1, "fixture: a reviewed densification"),
}


class TestBadFixturesFire:
    def test_expected_rule_counts(self):
        by_rule = Counter(f.rule for f in scan(BAD))
        assert by_rule == {
            "no-densify": 4,
            "no-unseeded-random": 5,
            "mmap-write-safety": 6,
        }

    def test_densify_findings_point_at_the_right_lines(self):
        densify = [f for f in scan(BAD) if f.rule == "no-densify"]
        assert all(f.path == "attacks/densify.py" for f in densify)
        assert all(f.qualname == "densify_everywhere" for f in densify)
        assert sorted(f.line for f in densify) == [9, 10, 11, 12]
        assert any(".toarray()" in f.snippet for f in densify)

    def test_unseeded_random_messages_name_the_call(self):
        random_findings = [f for f in scan(BAD) if f.rule == "no-unseeded-random"]
        messages = " ".join(f.message for f in random_findings)
        assert "np.random.rand()" in messages
        assert "np.random.default_rng()" in messages
        assert "stdlib random" in messages

    def test_mmap_findings_cover_aliases_and_unpacks(self):
        mmap_findings = [f for f in scan(BAD) if f.rule == "mmap-write-safety"]
        snippets = " ".join(f.snippet for f in mmap_findings)
        assert "alias.indices[0]" in snippets  # alias propagation
        assert "base.eliminate_zeros()" in snippets  # csr_with_delta unpack
        assert "mapped += 1.0" in snippets  # read-mode memmap augassign

    def test_every_failure_names_file_and_line(self):
        failures = violations(BAD, {})
        assert len(failures) == 15
        assert "attacks/densify.py:9: [no-densify]" in failures[0]


class TestGoodFixturesStaySilent:
    def test_no_findings_at_all(self):
        assert violations(GOOD, GOOD_ALLOWLIST) == []

    def test_allowlist_entry_in_good_fixture_is_used(self):
        # without its entry, the good fixture's one .toarray() fails
        failures = violations(GOOD, {})
        assert len(failures) == 1
        assert failures[0].startswith("attacks/densify.py:12: [no-densify]")


class TestScoping:
    def test_rules_ignore_files_outside_their_scope(self, tmp_path):
        driver = tmp_path / "experiments" / "driver.py"
        driver.parent.mkdir()
        driver.write_text(
            "def plot(matrix):\n"
            "    import numpy as np\n"
            "    dense = matrix.toarray()\n"
            "    noise = np.random.rand(3)\n"
            "    return dense, noise\n"
        )
        assert scan(tmp_path) == []

    def test_every_rule_declares_a_narrow_scope(self):
        for check, scope in RULES.values():
            assert check.__doc__
            assert scope and "*" not in scope

    def test_unparseable_file_fails_and_names_the_file(self, tmp_path):
        broken = tmp_path / "attacks" / "broken.py"
        broken.parent.mkdir()
        broken.write_text("def oops(:\n")
        failures = violations(tmp_path, {})
        assert len(failures) == 1
        assert failures[0].startswith("attacks/broken.py:1: [parse-error]")


def _write_engine(root: Path, body: str) -> None:
    module = root / "oddball" / "surrogate.py"
    module.parent.mkdir(exist_ok=True)
    module.write_text("class Engine:\n    def __init__(self, csr):\n" + body)


class TestAllowlist:
    ENTRY = {("oddball/surrogate.py", "Engine.__init__", "no-densify"): (1, "reference engine")}

    def test_entry_excuses_its_count_in_its_function(self, tmp_path):
        _write_engine(tmp_path, "        self.dense = csr.toarray()\n")
        assert violations(tmp_path, self.ENTRY) == []

    def test_entry_whose_count_is_exceeded_fails(self, tmp_path):
        _write_engine(
            tmp_path,
            "        self.dense = csr.toarray()\n        self.again = csr.todense()\n",
        )
        failures = violations(tmp_path, self.ENTRY)
        assert [f.split(": ")[0] for f in failures] == [
            "oddball/surrogate.py:3",
            "oddball/surrogate.py:4",
        ]
        assert all("allowlist excuses 1" in f for f in failures)

    def test_entry_that_excuses_nothing_fails(self, tmp_path):
        _write_engine(tmp_path, "        self.csr = csr\n")
        failures = violations(tmp_path, self.ENTRY)
        assert len(failures) == 1
        assert failures[0].startswith("oddball/surrogate.py:2: [no-densify] allowlist entry")
        assert "excuses 1 finding(s) but 0 remain" in failures[0]

    def test_entry_covers_only_its_own_function(self, tmp_path):
        _write_engine(
            tmp_path,
            "        pass\n\n    def flip(self, csr):\n        return csr.toarray()\n",
        )
        failures = violations(tmp_path, self.ENTRY)
        assert len(failures) == 2
        assert failures[0].startswith("oddball/surrogate.py:6: [no-densify]")
        assert "excuses 1 finding(s) but 0 remain" in failures[1]


def _write(root: Path, relpath: str, source: str) -> None:
    module = root / relpath
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text(source)


class TestChecks:
    def test_densify_text_in_strings_and_comments_is_ignored(self, tmp_path):
        _write(
            tmp_path,
            "attacks/doc.py",
            'def explain(csr):\n'
            '    """Never call ``csr.toarray()`` here."""\n'
            '    # csr.todense() would densify\n'
            '    return "csr.toarray()"\n',
        )
        assert scan(tmp_path) == []

    def test_any_numpy_alias_is_tracked(self, tmp_path):
        _write(
            tmp_path,
            "attacks/alias.py",
            "import numpy as onp\n"
            "def leak(csr, n):\n"
            "    dense = onp.asarray(csr)\n"
            "    noise = onp.random.permutation(n)\n"
            "    return dense, noise\n",
        )
        found = sorted((f.line, f.rule) for f in scan(tmp_path))
        assert found == [(3, "no-densify"), (4, "no-unseeded-random")]

    def test_stdlib_random_aliases_and_none_seed_fire(self, tmp_path):
        _write(
            tmp_path,
            "store/draws.py",
            "import random as rnd\n"
            "from random import shuffle\n"
            "import numpy as np\n"
            "def draw(items):\n"
            "    shuffle(items)\n"
            "    pick = rnd.choice(items)\n"
            "    rng = np.random.default_rng(None)\n"
            "    return pick, rng\n",
        )
        findings = scan(tmp_path)
        assert [f.rule for f in findings] == ["no-unseeded-random"] * 3
        assert sorted(f.line for f in findings) == [5, 6, 7]

    def test_default_mode_memmap_is_writable_not_tainted(self, tmp_path):
        _write(
            tmp_path,
            "store/scratch.py",
            "import numpy as np\n"
            "def fill(path, n):\n"
            "    out = np.memmap(path, dtype=np.float64, shape=(n,))\n"
            "    out[0] = 1.0\n"
            "    out += 1.0\n"
            "    return out\n",
        )
        assert scan(tmp_path) == []

    def test_taint_is_tracked_per_function_scope(self, tmp_path):
        _write(
            tmp_path,
            "graph/scopes.py",
            "def outer(store):\n"
            "    csr = store.csr()\n"
            "    def inner(other):\n"
            "        other.data[0] = 1.0\n"
            "        mine = store.csr()\n"
            "        mine.indptr[0] = 0\n"
            "    csr.data *= 2.0\n"
            "    return inner\n",
        )
        findings = scan(tmp_path)
        assert {f.rule for f in findings} == {"mmap-write-safety"}
        assert sorted((f.line, f.qualname) for f in findings) == [
            (6, "outer.inner"),
            (7, "outer"),
        ]


class TestAllowlistEntries:
    def test_package_entries_are_in_scope_and_give_a_reason(self):
        for (path, qualname, rule_id), (count, reason) in ALLOWLIST.items():
            _check, scope = RULES[rule_id]
            assert any(fnmatch(path, pattern) for pattern in scope), path
            assert qualname and count >= 1 and reason.strip()

    def test_entry_outside_its_rules_scope_fails(self, tmp_path):
        _write(tmp_path, "experiments/driver.py", "def plot(csr):\n    return csr.toarray()\n")
        entry = {("experiments/driver.py", "plot", "no-densify"): (1, "out of scope")}
        failures = violations(tmp_path, entry)
        assert len(failures) == 1
        assert failures[0].startswith("experiments/driver.py:1: [no-densify] allowlist entry")

    def test_no_pragma_comment_is_left_in_the_package(self):
        # Findings are excused by ALLOWLIST alone; a leftover pragma would
        # read as an exemption while excusing nothing.
        stale = [
            f"{file.relative_to(PACKAGE_ROOT).as_posix()}:{number}"
            for file in sorted(PACKAGE_ROOT.rglob("*.py"))
            for number, line in enumerate(file.read_text().splitlines(), start=1)
            if "# repro: allow-" in line
        ]
        assert stale == []


# --------------------------------------------------------------------- #
# The gate against mutated copies of the package
# --------------------------------------------------------------------- #


@pytest.fixture
def package_copy(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, root, ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _append(root: Path, relpath: str, code: str) -> int:
    """Append ``code`` to a module of ``root``; return its first line."""
    module = root / relpath
    source = module.read_text()
    module.write_text(source + code)
    return len(source.splitlines()) + 1


_DENSE_LINE = "        adjacency = to_sparse(graph).toarray()\n"


class TestMutatedPackage:
    def test_unmutated_copy_is_clean(self, package_copy):
        assert violations(package_copy, ALLOWLIST) == []

    @pytest.mark.parametrize(
        "rule_id, relpath, code, offset",
        [
            (
                "no-densify",
                "graph/incremental.py",
                "\n\ndef _leak(graph):\n    return graph.adjacency_csr().toarray()\n",
                3,
            ),
            (
                "no-unseeded-random",
                "attacks/binarized.py",
                "\n\ndef _noise():\n    import numpy as np\n\n    return np.random.rand(3)\n",
                5,
            ),
            (
                "mmap-write-safety",
                "graph/sparse.py",
                "\n\ndef _poke(store):\n    csr = store.csr()\n    csr.data[0] = 2.0\n",
                4,
            ),
        ],
    )
    def test_injected_violation_fails_at_its_line(
        self, package_copy, rule_id, relpath, code, offset
    ):
        line = _append(package_copy, relpath, code) + offset
        failures = violations(package_copy, ALLOWLIST)
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"{relpath}:{line}: [{rule_id}]")

    def test_second_densify_in_allowlisted_function_fails(self, package_copy):
        module = package_copy / "oddball" / "surrogate.py"
        lines = module.read_text().splitlines(keepends=True)
        at = lines.index(_DENSE_LINE)
        lines.insert(at + 1, "        again = to_sparse(graph).toarray()\n")
        module.write_text("".join(lines))
        failures = violations(package_copy, ALLOWLIST)
        assert [f.split(": ")[0] for f in failures] == [
            f"oddball/surrogate.py:{at + 1}",
            f"oddball/surrogate.py:{at + 2}",
        ]
        assert all("(2 in DenseSurrogateEngine.__init__, allowlist excuses 1)" in f for f in failures)

    def test_removing_the_allowlisted_line_fails_at_the_def(self, package_copy):
        module = package_copy / "oddball" / "surrogate.py"
        lines = module.read_text().splitlines(keepends=True)
        at = lines.index(_DENSE_LINE)
        lines[at] = "        adjacency = graph\n"
        module.write_text("".join(lines))
        klass = next(i for i, text in enumerate(lines) if text.startswith("class DenseSurrogateEngine"))
        def_line = next(
            i for i in range(klass, at) if lines[i].startswith("    def __init__(")
        ) + 1
        failures = violations(package_copy, ALLOWLIST)
        assert len(failures) == 1
        assert failures[0].startswith(
            f"oddball/surrogate.py:{def_line}: [no-densify] allowlist entry for "
            "DenseSurrogateEngine.__init__ excuses 1 finding(s) but 0 remain"
        )
