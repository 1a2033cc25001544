"""Kernel parity analysis — the scalar cost path vs. the batch kernels.

PR 7 forked the cost model: the scalar reference (``sim/energy.py`` /
``sim/latency.py`` / ``sim/area.py``, walked from
:meth:`~repro.sim.simulator.Simulator.evaluate`) and the NumPy batch path
in :mod:`repro.sim.kernels` must agree bit-for-bit.  Runtime parity
tests sample that contract; this module proves its *input* half
statically, the way :mod:`repro.analysis.dataflow` proves cache-key
coverage: the dataflow interpreter extracts the attribute read-set of
the scalar path, and every read must be carried by a kernel column that
the declared coverage table (:data:`repro.sim.kernels.KERNEL_COVERAGE`)
names and the kernels actually define.

========  =============================================================
PAR001    scalar read with no (live) kernel column behind it (ERROR)
========  =============================================================

Entry points: :func:`analyze_kernel_parity_tree` (generic, over any
:class:`~repro.analysis.callgraph.ModuleIndex`) and
:func:`analyze_kernel_parity` (the repro tree's own contract, wired into
``repro check --kernel-parity``).  See docs/static_analysis.md ("The
kernel coverage-table contract").
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .callgraph import ModuleIndex
from .dataflow import MemoContract, _Analyzer
from .invariants import PAR001, Diagnostic

#: Coverage targets that name no column: ``"builder"`` marks a value the
#: batch scorer passes through itself; ``"shared"`` marks an attribute
#: both paths reach through the same shared code on the same object.
SENTINEL_TARGETS: frozenset[str] = frozenset({"builder", "shared"})


@dataclass(frozen=True)
class ParityContract:
    """What to analyze and what the kernel coverage table claims."""

    #: scalar entry points, ``"module:Class.method"`` / ``"module:func"``
    roots: tuple[str, ...]
    #: dotted name of the kernels module inside the analyzed index
    kernel_module: str
    #: scalar class -> field -> kernel columns (``"Class.column"``) or
    #: sentinel targets; the PAR001 side of the contract
    coverage: Mapping[str, Mapping[str, tuple[str, ...]]]
    #: module-name prefixes excluded from the scalar traversal (the
    #: kernels themselves, the cache, observability, this analyzer)
    boundary_modules: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------


def analyze_kernel_parity_tree(
    index: ModuleIndex, contract: ParityContract
) -> list[Diagnostic]:
    """Run the kernel-parity analysis over an indexed tree.

    Returns PAR001 diagnostics ordered by location.  Raises
    :class:`ValueError` when a root cannot be resolved — a silent no-op
    analysis would report a clean bill it never earned.
    """
    diagnostics: list[Diagnostic] = []

    # ---- scalar read-set via the dataflow interpreter ----------------
    analyzer = _Analyzer(
        index,
        # Parity only needs the read-set; with no coverage classes the
        # interpreter tracks no purity targets, and its effects list
        # (sinks, mutations) stays the cache-safety pass's business.
        MemoContract(
            roots=(),
            coverage={},
            boundary_modules=contract.boundary_modules,
        ),
    )
    for root in contract.roots:
        func = index.resolve_qualname(root)
        if func is None:
            raise ValueError(f"cannot resolve analysis root {root!r}")
        analyzer.analyze_root(func)

    # ---- kernel columns as the analyzed source defines them ----------
    kmod = index.modules.get(contract.kernel_module)
    if kmod is None:
        raise ValueError(
            f"kernel module {contract.kernel_module!r} is not in the index"
        )
    # A kernel class's columns are its annotated fields and properties.
    columns: dict[str, frozenset[str]] = {
        cls_name: frozenset(cls.fields) | frozenset(cls.properties)
        for cls_name, cls in kmod.classes.items()
    }

    def column_exists(target: str) -> bool:
        owner, _, column = target.partition(".")
        return column in columns.get(owner, frozenset())

    # ---- PAR001: every in-scope scalar read needs a live column ------
    for (cls_name, attr), location in sorted(analyzer.reads.items()):
        fields = contract.coverage.get(cls_name)
        if fields is None:
            continue  # not a class the kernels restructure into arrays
        targets = fields.get(attr)
        if targets is None:
            diagnostics.append(
                PAR001.diag(
                    location,
                    f"scalar cost path reads {cls_name}.{attr} but "
                    "KERNEL_COVERAGE maps it to no kernel column — the "
                    "vectorized path cannot see this input",
                    hint=f"fold {attr} into a NetworkArrays/MappingBatch/"
                    "ShapeTable column and declare it in KERNEL_COVERAGE",
                )
            )
            continue
        for target in targets:
            if target in SENTINEL_TARGETS:
                continue
            if not column_exists(target):
                diagnostics.append(
                    PAR001.diag(
                        location,
                        f"{cls_name}.{attr} is declared covered by kernel "
                        f"column {target}, which does not exist",
                        hint="restore the column or update KERNEL_COVERAGE",
                    )
                )

    diagnostics.sort(key=lambda d: (d.rule_id, d.location, d.message))
    return diagnostics


# ----------------------------------------------------------------------
# The repro tree's own contract
# ----------------------------------------------------------------------


def kernel_parity_contract() -> ParityContract:
    """The repro tree's kernel-parity contract.

    Coverage comes from :data:`repro.sim.kernels.KERNEL_COVERAGE` — the
    table documented next to the kernels, so the analyzer checks what the
    kernels declare, while column *existence* resolves against whatever
    source tree is being analyzed (which is what lets the tamper tests
    delete a field from the real sources and watch PAR001 fire).
    """
    from ..sim.kernels import KERNEL_COVERAGE

    return ParityContract(
        roots=(
            "repro.sim.simulator:Simulator.evaluate",
            "repro.sim.simulator:Simulator.try_evaluate",
        ),
        kernel_module="repro.sim.kernels",
        coverage=KERNEL_COVERAGE,
        # The kernels are the *subject* of the comparison, not part of
        # the scalar walk; cache/obs/analysis are boundaries for the
        # same reasons as in the cache-safety contract.
        boundary_modules=(
            "repro.sim.kernels",
            "repro.sim.cache",
            "repro.obs",
            "repro.analysis",
        ),
    )


def analyze_kernel_parity(root: Path | None = None) -> list[Diagnostic]:
    """Prove (or refute) the scalar/kernel input-parity contract.

    Indexes the installed ``repro`` package (or an explicit source tree
    rooted at ``root``) and runs :func:`analyze_kernel_parity_tree` with
    the contract of :func:`kernel_parity_contract`.  An empty result is
    the theorem: every attribute the scalar cost path reads is carried
    by a live kernel column.
    """
    return analyze_kernel_parity_tree(ModuleIndex.from_package(root), kernel_parity_contract())
