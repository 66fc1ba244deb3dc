"""Static analysis + runtime sanitizers for the repo's hot-path invariants.

The stack's headline guarantees — O(deg) flips over a never-densified
CSR, read-only store mmaps, seeded randomness behind bit-identical
serial/parallel/resume parity — live in specific modules, not
everywhere.  This package enforces them mechanically, two ways:

* **AST lint rules** (:mod:`repro.analysis.rules`) scoped to the hot-path
  modules, with per-line ``# repro: allow-<rule>(reason)`` pragmas;
* **runtime guards** (:mod:`repro.analysis.guards`) — ``forbid_densify``
  and ``assert_readonly_mmap`` context managers the parity suites
  activate so violations the linter cannot see still fail loudly.

Parity coverage is not checked here: the parity tests are parametrised
over ``ATTACK_REGISTRY`` and ``CompiledKernels``, so a new attack or
kernel without a case fails the test suite by name.

Run ``python -m repro.analysis`` for the CLI the CI gate uses.
"""

from repro.analysis import rules as _rules  # noqa: F401 — registers the rules
from repro.analysis.engine import (
    RULE_REGISTRY,
    AnalysisReport,
    LintRule,
    ModuleContext,
    analyze_paths,
)
from repro.analysis.findings import Finding
from repro.analysis.guards import (
    DensifyError,
    MmapWriteError,
    assert_readonly_mmap,
    forbid_densify,
)
from repro.analysis.pragmas import Pragma, collect_pragmas

__all__ = [
    "AnalysisReport",
    "DensifyError",
    "Finding",
    "LintRule",
    "MmapWriteError",
    "ModuleContext",
    "Pragma",
    "RULE_REGISTRY",
    "analyze_paths",
    "assert_readonly_mmap",
    "collect_pragmas",
    "forbid_densify",
]
