"""Reflection-based parity audits.

The linter checks source; these audits check the *live objects*:

* :func:`audit_engine_api` — the dense and sparse
  :class:`~repro.oddball.surrogate.SurrogateEngine` implementations must
  expose identical public APIs with identical signatures.  Every future
  backend (compiled kernels, PRBCD blocks) is held to the same bar: a
  method added to one engine but not the other silently forks the parity
  surface the whole test strategy assumes.
* :func:`audit_parity_coverage` — every attack in
  :data:`~repro.attacks.ATTACK_REGISTRY` must have a
  registered backend-parity test (found by reflecting the registry and
  AST-scanning the parity test modules).  An attack wired into the
  campaign without a parity test is an attack whose sparse path is
  untested by construction.
* :func:`audit_kernel_parity_coverage` — every compiled kernel in
  :data:`repro.kernels.KERNEL_REGISTRY` must be exercised by a
  numpy-vs-compiled ``*Parity*`` test class.  The compiled backend's whole
  contract is bit-identity with the numpy oracle; a kernel without a
  parity test has no contract.
* :func:`audit_block_parity_coverage` — every registered attack must
  additionally appear in a ``*Block*Parity*`` test class: the ``block``
  candidate strategy's degenerate mode (block covering every pair) promises
  bit-identical flips to ``full`` for *every* attack, so an attack wired
  into the campaign without a block-degeneracy test silently narrows that
  promise.

Audit findings reuse the :class:`~repro.analysis.findings.Finding` shape
so the CLI reports them alongside lint findings.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = [
    "audit_block_parity_coverage",
    "audit_engine_api",
    "audit_kernel_parity_coverage",
    "audit_parity_coverage",
    "run_audits",
]

_ENGINE_RULE = "engine-api-parity"
_COVERAGE_RULE = "parity-test-coverage"
_KERNEL_RULE = "kernel-parity-coverage"
_BLOCK_RULE = "block-parity-coverage"
_SURROGATE_PATH = "oddball/surrogate.py"


def _public_members(cls: type) -> "dict[str, object]":
    return {
        name: member
        for name, member in inspect.getmembers(cls)
        if not name.startswith("_")
    }


def _class_line(cls: type) -> int:
    try:
        return inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return 1


def audit_engine_api() -> "list[Finding]":
    """Assert Dense/Sparse ``SurrogateEngine`` expose identical public APIs.

    Compares public member *names* both ways, then compares
    ``inspect.signature`` for every shared callable — a parameter added
    to one backend only breaks substitutability even when the name sets
    match.
    """
    from repro.oddball.surrogate import DenseSurrogateEngine, SparseSurrogateEngine

    findings: list[Finding] = []
    dense = _public_members(DenseSurrogateEngine)
    sparse_ = _public_members(SparseSurrogateEngine)
    pairs = (
        (DenseSurrogateEngine, dense, SparseSurrogateEngine, sparse_),
        (SparseSurrogateEngine, sparse_, DenseSurrogateEngine, dense),
    )
    for have_cls, have, lack_cls, lack in pairs:
        for name in sorted(set(have) - set(lack)):
            findings.append(
                Finding(
                    rule=_ENGINE_RULE,
                    path=_SURROGATE_PATH,
                    line=_class_line(lack_cls),
                    message=(
                        f"{lack_cls.__name__} lacks public member {name!r} "
                        f"present on {have_cls.__name__}; the engines must "
                        "expose identical APIs"
                    ),
                )
            )
    for name in sorted(set(dense) & set(sparse_)):
        dense_member, sparse_member = dense[name], sparse_[name]
        if not (callable(dense_member) and callable(sparse_member)):
            continue
        try:
            dense_sig = inspect.signature(dense_member)
            sparse_sig = inspect.signature(sparse_member)
        except (ValueError, TypeError):
            continue
        if [p.name for p in dense_sig.parameters.values()] != [
            p.name for p in sparse_sig.parameters.values()
        ]:
            findings.append(
                Finding(
                    rule=_ENGINE_RULE,
                    path=_SURROGATE_PATH,
                    line=_class_line(SparseSurrogateEngine),
                    message=(
                        f"engine method {name!r} has diverging signatures: "
                        f"dense{dense_sig} vs sparse{sparse_sig}"
                    ),
                )
            )
    return findings


def _default_parity_test_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parents[2] / "tests" / "attacks"


def _identifiers_in_classes(
    tree: ast.Module, *needles: str
) -> "set[str]":
    """Names, attributes, and string constants inside matching test classes.

    A class matches when its (lowercased) name contains every needle —
    ``("parity",)`` finds the backend/kernel parity suites,
    ``("block", "parity")`` the block-degeneracy ones.
    """
    tokens: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        lowered = node.name.lower()
        if not all(needle in lowered for needle in needles):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                tokens.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                tokens.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                tokens.add(sub.value)
    return tokens


def _identifiers_in_parity_classes(tree: ast.Module) -> "set[str]":
    """Names, attributes, and string constants inside ``*Parity*`` classes."""
    return _identifiers_in_classes(tree, "parity")


def audit_parity_coverage(test_paths: "list[Path] | None" = None) -> "list[Finding]":
    """Every ``ATTACK_REGISTRY`` entry needs a registered parity test.

    Reflects the attack registry (name → class), AST-scans the parity
    test modules for classes whose name contains ``Parity``, and reports
    any attack whose class name (or registry name string) never appears
    inside one.  Every registered attack runs on the campaign's shared
    engine, so this is the whole campaign surface.
    """
    from repro.attacks import ATTACK_REGISTRY

    if test_paths is None:
        test_dir = _default_parity_test_dir()
        if not test_dir.is_dir():
            return [
                Finding(
                    rule=_COVERAGE_RULE,
                    path="tests/attacks",
                    line=1,
                    message=(
                        f"parity test directory {test_dir} not found; cannot "
                        "verify ATTACK_REGISTRY coverage"
                    ),
                )
            ]
        test_paths = sorted(test_dir.glob("test_*.py"))

    tokens: set[str] = set()
    for path in test_paths:
        try:
            tokens |= _identifiers_in_parity_classes(ast.parse(Path(path).read_text()))
        except (OSError, SyntaxError):
            continue

    findings: list[Finding] = []
    for attack_name, attack_cls in sorted(ATTACK_REGISTRY.items()):
        if attack_cls.__name__ not in tokens and attack_name not in tokens:
            findings.append(
                Finding(
                    rule=_COVERAGE_RULE,
                    path="attacks/__init__.py",
                    line=1,
                    message=(
                        f"attack {attack_name!r} ({attack_cls.__name__}) has "
                        "no backend-parity test class referencing it; every "
                        "ATTACK_REGISTRY member needs one"
                    ),
                )
            )
    return findings


def _default_kernel_test_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parents[2] / "tests" / "kernels"


def audit_kernel_parity_coverage(
    test_paths: "list[Path] | None" = None,
) -> "list[Finding]":
    """Every ``KERNEL_REGISTRY`` entry needs a numpy-vs-compiled parity test.

    Reflects the kernel registry (the authoritative list of compiled
    primitives) and AST-scans ``tests/kernels`` for classes whose name
    contains ``Parity``; a kernel whose registry name never appears inside
    one is reported.  The scan intentionally mirrors
    :func:`audit_parity_coverage` so adding a kernel without its oracle
    test fails the same CI gate as adding an attack without one.
    """
    from repro.kernels import KERNEL_REGISTRY

    if test_paths is None:
        test_dir = _default_kernel_test_dir()
        if not test_dir.is_dir():
            return [
                Finding(
                    rule=_KERNEL_RULE,
                    path="tests/kernels",
                    line=1,
                    message=(
                        f"kernel parity test directory {test_dir} not found; "
                        "cannot verify KERNEL_REGISTRY coverage"
                    ),
                )
            ]
        test_paths = sorted(test_dir.glob("test_*.py"))

    tokens: set[str] = set()
    for path in test_paths:
        try:
            tokens |= _identifiers_in_parity_classes(ast.parse(Path(path).read_text()))
        except (OSError, SyntaxError):
            continue

    findings: list[Finding] = []
    for kernel_name in KERNEL_REGISTRY:
        if kernel_name not in tokens:
            findings.append(
                Finding(
                    rule=_KERNEL_RULE,
                    path="kernels/__init__.py",
                    line=1,
                    message=(
                        f"kernel {kernel_name!r} has no numpy-vs-compiled "
                        "*Parity* test class referencing it; every "
                        "KERNEL_REGISTRY member needs one"
                    ),
                )
            )
    return findings


def audit_block_parity_coverage(
    test_paths: "list[Path] | None" = None,
) -> "list[Finding]":
    """Every ``ATTACK_REGISTRY`` entry needs a block-degeneracy test.

    The ``block`` candidate strategy promises that a block covering every
    pair selects bit-identical flips to ``full`` for *every* attack (the
    anchor that makes sub-full blocks a pure memory/quality trade, not a
    semantics change).  This audit mirrors :func:`audit_parity_coverage`
    over classes whose name contains both ``Block`` and ``Parity``, so an
    attack added to the campaign without extending the degenerate-parity
    suite fails the same CI gate as one without a backend-parity test.
    """
    from repro.attacks import ATTACK_REGISTRY

    if test_paths is None:
        test_dir = _default_parity_test_dir()
        if not test_dir.is_dir():
            return [
                Finding(
                    rule=_BLOCK_RULE,
                    path="tests/attacks",
                    line=1,
                    message=(
                        f"parity test directory {test_dir} not found; cannot "
                        "verify block-degeneracy coverage"
                    ),
                )
            ]
        test_paths = sorted(test_dir.glob("test_*.py"))

    tokens: set[str] = set()
    for path in test_paths:
        try:
            tree = ast.parse(Path(path).read_text())
        except (OSError, SyntaxError):
            continue
        tokens |= _identifiers_in_classes(tree, "block", "parity")

    findings: list[Finding] = []
    for attack_name, attack_cls in sorted(ATTACK_REGISTRY.items()):
        if attack_cls.__name__ not in tokens and attack_name not in tokens:
            findings.append(
                Finding(
                    rule=_BLOCK_RULE,
                    path="attacks/__init__.py",
                    line=1,
                    message=(
                        f"attack {attack_name!r} ({attack_cls.__name__}) has "
                        "no *Block*Parity* test class referencing it; every "
                        "ATTACK_REGISTRY member needs a degenerate-"
                        "block-equals-full parity test"
                    ),
                )
            )
    return findings


def run_audits() -> "list[Finding]":
    """Run every reflection audit and concatenate the findings."""
    return (
        audit_engine_api()
        + audit_parity_coverage()
        + audit_kernel_parity_coverage()
        + audit_block_parity_coverage()
    )
