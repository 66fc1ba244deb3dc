"""The repo-specific invariant rules.

Each rule mechanises one contract the stack's guarantees rest on:

* ``no-densify`` — hot-path modules never materialise a dense adjacency
  (the O(deg)-per-flip scaling story dies with one stray ``.toarray()``);
* ``no-unseeded-random`` — attack/engine/store randomness flows through a
  seeded :class:`numpy.random.Generator`, never global legacy state
  (serial/parallel/resume parity is bit-identical only if it does);
* ``mmap-write-safety`` — arrays obtained from ``adjacency_csr()`` /
  ``GraphStore.csr()`` / read-mode memmaps are never written through
  (a write would corrupt pages shared by every process mapping the store).

Scopes are root-relative fnmatch patterns: the invariants are properties
of specific modules (the hot path), not of the whole tree — densifying in
an experiment driver over a 1 000-node sample is exactly what the paper
does.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import LintRule, ModuleContext, rule
from repro.analysis.findings import Finding

__all__ = [
    "NoDensifyRule",
    "NoUnseededRandomRule",
    "MmapWriteSafetyRule",
]

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


@rule
class NoDensifyRule(LintRule):
    """Hot-path modules must not materialise dense adjacencies.

    Flags ``.toarray()`` / ``.todense()`` calls anywhere in scope, and
    ``np.asarray`` / ``np.array`` whose argument is recognisably sparse.
    The incremental engine's whole point is O(deg) flips over a CSR that
    may be an out-of-core memmap; one densify silently reverts to the
    O(n²) regime the paper's scaling results forbid.
    """

    id = "no-densify"
    description = (
        "no .toarray()/.todense()/dense np.asarray of sparse matrices "
        "in hot-path modules"
    )
    scope = (
        "graph/incremental.py",
        "graph/sparse.py",
        "oddball/surrogate.py",
        "attacks/*.py",
        "store/*.py",
    )

    def check(self, module: ModuleContext) -> "list[Finding]":
        """Collect densification sites in ``module``."""
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
                        self.id,
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
                        self.id,
                        node,
                        f"np.{func.attr}() of a sparse matrix densifies it "
                        "in a hot-path module",
                    )
                )
        return findings


@rule
class NoUnseededRandomRule(LintRule):
    """Randomness in attack/engine/store code must be explicitly seeded.

    Flags legacy global-state calls (``np.random.rand`` …, stdlib
    ``random``) and ``np.random.default_rng()`` with no/None seed.  The
    campaign layer's bit-identical serial/parallel/resume parity only
    holds when every stochastic choice derives from a seed recorded in
    the checkpoint.
    """

    id = "no-unseeded-random"
    description = (
        "np.random/random calls must route through a seeded Generator "
        "in attack, engine, and store modules"
    )
    scope = (
        "attacks/*.py",
        "oddball/surrogate.py",
        "store/*.py",
        "graph/incremental.py",
    )

    def check(self, module: ModuleContext) -> "list[Finding]":
        """Collect unseeded-randomness sites in ``module``."""
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
                        self.id,
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
                        self.id,
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
                            self.id,
                            node,
                            "np.random.default_rng() without a seed is "
                            "non-deterministic; thread an explicit seed",
                        )
                    )
                continue
            findings.append(
                module.finding(
                    self.id,
                    node,
                    f"np.random.{func.attr}() uses the legacy global RNG; "
                    "route through a seeded np.random.Generator",
                )
            )
        return findings


class _TaintVisitor(ast.NodeVisitor):
    """Per-scope taint tracking for the mmap-write-safety rule.

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
        """Skip nested scopes — each gets its own visitor from the rule."""

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Skip nested scopes — each gets its own visitor from the rule."""

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


@rule
class MmapWriteSafetyRule(LintRule):
    """No writes through arrays that may be store-backed memmaps.

    A :class:`~repro.store.GraphStore` maps its CSR components
    ``mode="r"``; numpy raises on writes, but only at *runtime* on the
    mmap path — dense-graph tests never exercise it.  This rule finds the
    writes statically, per function scope.
    """

    id = "mmap-write-safety"
    description = (
        "no assignment or in-place mutation of arrays obtained from "
        "adjacency_csr()/store memmaps"
    )
    scope = (
        "graph/*.py",
        "oddball/surrogate.py",
        "attacks/*.py",
        "store/*.py",
    )

    def check(self, module: ModuleContext) -> "list[Finding]":
        """Run taint tracking over every function scope in ``module``."""
        findings: list[Finding] = []
        numpy_names = _numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor = _TaintVisitor(self.id, module, numpy_names)
                for statement in node.body:
                    visitor.visit(statement)
                findings.extend(visitor.findings)
        return findings
