"""Kernel parity analysis — the scalar cost path vs. the batch kernels.

PR 7 forked the cost model: the scalar reference (``sim/energy.py`` /
``sim/latency.py`` / ``sim/area.py``, walked from
:meth:`~repro.sim.simulator.Simulator.evaluate`) and the NumPy batch path
in :mod:`repro.sim.kernels` must agree bit-for-bit.  Runtime parity
tests sample that contract; this module proves its *input* half
statically, off the same walk that proves cache-key coverage
(:func:`repro.analysis.dataflow.walk_read_set`): every read of that
walk's scalar read-set — the reads made outside the kernels — must be
carried by a kernel column that the declared coverage table
(:data:`repro.sim.kernels.KERNEL_COVERAGE`) names and the kernels
actually define.

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

from pathlib import Path

from .callgraph import ModuleIndex
from .dataflow import MemoContract, _Analyzer, simulator_contract, walk_read_set
from .invariants import PAR001, Diagnostic

#: Coverage targets that name no column: ``"builder"`` marks a value the
#: batch scorer passes through itself; ``"shared"`` marks an attribute
#: both paths reach through the same shared code on the same object.
SENTINEL_TARGETS: frozenset[str] = frozenset({"builder", "shared"})


def kernel_parity_findings(walk: _Analyzer) -> list[Diagnostic]:
    """PAR001 over one walk's scalar read-set, ordered by location.

    Raises :class:`ValueError` when the kernel module is not in the
    walk's index.
    """
    contract = walk.contract
    kmod = walk.index.modules.get(contract.kernel_module)
    if kmod is None:
        raise ValueError(
            f"kernel module {contract.kernel_module!r} is not in the index"
        )
    # A kernel class's columns are its annotated fields and properties,
    # as the analyzed source defines them.
    columns: dict[str, frozenset[str]] = {
        cls_name: frozenset(cls.fields) | frozenset(cls.properties)
        for cls_name, cls in kmod.classes.items()
    }

    def column_exists(target: str) -> bool:
        owner, _, column = target.partition(".")
        return column in columns.get(owner, frozenset())

    diagnostics: list[Diagnostic] = []
    for (cls_name, attr), location in sorted(walk.scalar_reads.items()):
        fields = contract.kernel_coverage.get(cls_name)
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
            if target not in SENTINEL_TARGETS and not column_exists(target):
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


def analyze_kernel_parity_tree(
    index: ModuleIndex, contract: MemoContract
) -> list[Diagnostic]:
    """Run the kernel-parity analysis over an indexed tree (PAR001).

    Raises :class:`ValueError` when a root cannot be resolved or the
    kernel module is missing — a silent no-op analysis would report a
    clean bill it never earned.
    """
    return kernel_parity_findings(walk_read_set(index, contract))


def analyze_kernel_parity(root: Path | None = None) -> list[Diagnostic]:
    """Prove (or refute) the scalar/kernel input-parity contract.

    Indexes the installed ``repro`` package (or an explicit source tree
    rooted at ``root``) and runs :func:`kernel_parity_findings` over the
    walk of :func:`~repro.analysis.dataflow.simulator_contract`.  An
    empty result is the theorem: every attribute the scalar cost path
    reads is carried by a live kernel column.  Column *existence*
    resolves against the analyzed tree, which is what lets the tamper
    tests delete a field from the real sources and watch PAR001 fire.
    """
    return analyze_kernel_parity_tree(ModuleIndex.from_package(root), simulator_contract())
