"""Static verification of configs, mappings, model graphs, and plans.

``repro.analysis`` rejects invalid artifacts *before* anything expensive
runs — an RL search must not burn simulator episodes on a plan that
violates Eq. 4 bounds or Algorithm 1's accounting.  The modules:

* :mod:`repro.analysis.invariants` — the rule registry, `Diagnostic`
  results, and the shared scalar rule implementations that
  construction-time validation (``arch/config.py``) reuses.
* :mod:`repro.analysis.checkers` — structural checks over
  `HardwareConfig`, `CrossbarShape` candidate sets, `LayerMapping`,
  `Network` graphs, and allocation plans (object- and dict-level).
* :mod:`repro.analysis.lint` — project-specific AST lint rules for the
  source tree itself.
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.dataflow` — the
  interprocedural read-set walk from the simulator's roots, and the
  cache-key soundness analysis over it behind ``repro check
  --cache-safety`` (CAC rule family).
* :mod:`repro.analysis.concurrency` — the syntactic proof of the thread
  contract behind ``repro check --concurrency`` (CON001): no module
  outside ``repro.analysis`` starts a thread or a process, so each
  thread owns its ``Simulator``.
* :mod:`repro.analysis.walker` — the one module reader of every tree
  pass (one sweep feeds LNT, CON, NUM and UNI, and one read-set walk,
  which parses only what its roots reach, feeds CAC and PAR), and the
  abstract-interpretation walker that NUM and UNI share.
* :mod:`repro.analysis.numeric` — NumPy-aware numeric-safety pass over
  ``sim/`` behind ``repro check --numeric`` (NUM rule family).
* :mod:`repro.analysis.kernel_parity` — scalar-vs-vectorized read-set
  parity over the same walk, behind ``repro check --kernel-parity``
  (PAR001).
* :mod:`repro.analysis.units` — dimensional analysis of the cost model
  behind ``repro check --units`` (UNI rule family).

``repro check`` (see :mod:`repro.cli`) drives every pass and exits
nonzero on ERROR diagnostics or when a pass refuses its tree (no module
in scope, or one that does not parse); `docs/static_analysis.md`
catalogues every rule id with its paper anchor.

Only :mod:`~repro.analysis.invariants` names are imported eagerly here —
it is dependency-free, so ``arch/config.py`` can import it during its own
module initialisation without a cycle.  The checker/lint entry points are
provided lazily via module ``__getattr__``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from .invariants import (
    RULES,
    Diagnostic,
    InvariantViolation,
    Report,
    Rule,
    Severity,
    rule,
)

__all__ = [
    "RULES",
    "Diagnostic",
    "InvariantViolation",
    "Report",
    "Rule",
    "Severity",
    "rule",
    # lazy (see __getattr__):
    "check_allocation",
    "check_candidate_set",
    "check_config",
    "check_config_dict",
    "check_mapping",
    "check_mappings",
    "check_network",
    "check_plan_dict",
    "check_shape",
    "lint_source",
    "lint_tree",
    "analyze_cache_safety",
    "analyze_memoized",
    "cache_safety_findings",
    "read_set_sweep",
    "analyze_concurrency",
    "fan_out_findings",
    "analyze_numeric",
    "numeric_findings",
    "analyze_kernel_parity",
    "analyze_kernel_parity_tree",
    "kernel_parity_findings",
    "analyze_units",
    "units_findings",
]

#: the names ``__getattr__`` provides lazily, by submodule
_LAZY: dict[str, tuple[str, ...]] = {
    "checkers": (
        "check_allocation", "check_candidate_set", "check_config", "check_config_dict",
        "check_mapping", "check_mappings", "check_network", "check_plan_dict", "check_shape",
    ),
    "lint": ("lint_source", "lint_tree", "LINT_PASS"),
    "dataflow": (
        "analyze_cache_safety", "analyze_memoized", "cache_safety_findings",
        "read_set_sweep", "simulator_contract",
    ),
    "concurrency": ("analyze_concurrency", "fan_out_findings", "CONCURRENCY_PASS"),
    "numeric": ("analyze_numeric", "numeric_findings", "NUMERIC_PASS"),
    "kernel_parity": (
        "analyze_kernel_parity", "analyze_kernel_parity_tree", "kernel_parity_findings",
    ),
    "units": ("analyze_units", "units_findings", "load_tables", "UnitTables", "UNITS_PASS"),
}
_SUBMODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str) -> Any:
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
