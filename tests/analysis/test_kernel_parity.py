"""Tests for the scalar/vectorized kernel-parity analysis (PAR001).

The real proof is :class:`TestRealTree` (the shipped tree satisfies its
own coverage contract) plus :class:`TestTamper` — the acceptance
criterion that the contract is *load-bearing*: deleting a kernel column
or adding an unvectorized scalar read in the **real sources** must fire
PAR001.  Tampering happens on in-memory
copies of the source text; nothing on disk is touched.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.callgraph import ModuleIndex
from repro.analysis.dataflow import (
    CoverageSpec,
    MemoContract,
    analyze_memoized,
    simulator_contract,
    walk_read_set,
)
from repro.analysis.kernel_parity import (
    analyze_kernel_parity,
    analyze_kernel_parity_tree,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FIXTURE_TREE = Path(__file__).parent / "fixtures" / "divergent_kernel_tree"


def rule_ids(diags):
    return sorted({d.rule_id for d in diags})


def tampered_sources(replacements):
    """The real tree's sources with per-module string replacements applied.

    ``replacements`` maps dotted module name -> [(old, new), ...]; every
    ``old`` must occur, so a refactor that moves the tampered code makes
    the test fail loudly instead of silently testing nothing.
    """
    out = {}
    for path in sorted(REPO_SRC.rglob("*.py")):
        rel = path.relative_to(REPO_SRC)
        parts = list(rel.parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][:-3]
        name = ".".join(["repro", *parts]) if parts else "repro"
        text = path.read_text()
        for old, new in replacements.get(name, []):
            assert old in text, f"tamper anchor missing from {name}: {old!r}"
            text = text.replace(old, new)
        out[name] = text
    return out


def analyze_tampered(replacements):
    index = ModuleIndex.from_sources(tampered_sources(replacements))
    return analyze_kernel_parity_tree(index, simulator_contract())


class TestRealTree:
    def test_contract_resolves(self):
        contract = simulator_contract()
        assert "repro.sim.simulator:Simulator.evaluate" in contract.roots
        assert "LayerSpec" in contract.kernel_coverage

    def test_real_tree_satisfies_parity_contract(self):
        # The theorem: every scalar read is carried by a live kernel
        # column.
        assert analyze_kernel_parity() == []

    def test_untampered_sources_are_clean_through_from_sources(self):
        # The tamper harness itself must not manufacture findings.
        assert analyze_tampered({}) == []


class TestTamper:
    def test_deleting_networkarrays_field_fires_par001(self):
        diags = analyze_tampered(
            {"repro.sim.kernels": [("    in_channels: np.ndarray\n", "")]}
        )
        par1 = [d for d in diags if d.rule_id == "PAR001"]
        assert par1, rule_ids(diags)
        assert any("NetworkArrays.in_channels" in d.message for d in par1)
        # The finding points at the scalar read site left uncovered.
        assert any("repro.arch.mapping" in d.location for d in par1)

    def test_unvectorized_read_in_energy_fires_par001(self):
        # The acceptance tamper: add a scalar read of a LayerSpec field
        # the kernels do not carry.
        diags = analyze_tampered(
            {
                "repro.sim.energy": [
                    (
                        "mapping.layer.mvm_ops",
                        "mapping.layer.mvm_ops + len(mapping.layer.name)",
                    )
                ]
            }
        )
        par1 = [d for d in diags if d.rule_id == "PAR001"]
        assert any(
            "LayerSpec.name" in d.message and "repro.sim.energy" in d.location
            for d in par1
        )

    def test_renaming_layermapping_property_fires_par001(self):
        diags = analyze_tampered(
            {
                "repro.arch.mapping": [
                    ("def partial_sum_adds", "def partial_sum_additions")
                ]
            }
        )
        # The scalar cost path reads a member that no longer resolves.
        assert "PAR001" in rule_ids(diags)


class TestSharedWalk:
    """One walk serves CAC001 and PAR001: reads made in the kernels count
    for the cache key but not for the scalar read-set."""

    SOURCES = {
        "fix.shared": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Layer:\n"
            "    depth: int\n"
            "    width: int\n"
            "def helper(layer: Layer):\n"
            "    return layer.depth\n"
        ),
        "fix.kernels": (
            "from .shared import Layer, helper\n"
            "def batch(layer: Layer):\n"
            "    return helper(layer) + layer.width\n"
        ),
        "fix.mod": (
            "from .kernels import batch\n"
            "from .shared import Layer, helper\n"
            "def entry(layer: Layer):\n"
            "    batch(layer)\n"
            "    return helper(layer)\n"
        ),
    }

    def contract(self):
        return MemoContract(
            roots=("fix.mod:entry",),
            coverage={"Layer": CoverageSpec(frozenset())},
            scalar_boundary=("fix.kernels",),
            kernel_module="fix.kernels",
            kernel_coverage={"Layer": {}},
        )

    def test_kernel_call_does_not_hide_a_later_scalar_read(self):
        # ``helper`` is first reached through the kernels, then called
        # from the scalar path with the same bindings: its read of
        # ``depth`` is a scalar read all the same.
        walk = walk_read_set(ModuleIndex.from_sources(self.SOURCES), self.contract())
        assert walk.scalar_reads == {("Layer", "depth"): "fix.shared:7"}
        assert set(walk.reads) == {("Layer", "depth"), ("Layer", "width")}

    def test_each_check_reads_its_part_of_the_walk(self):
        index = ModuleIndex.from_sources(self.SOURCES)
        cac = analyze_memoized(index, self.contract())
        par = analyze_kernel_parity_tree(index, self.contract())
        assert {d.message.split()[0] for d in cac} == {"Layer.depth", "Layer.width"}
        assert [d.rule_id for d in par] == ["PAR001"]
        assert "reads Layer.depth " in par[0].message


class TestFixtureTree:
    def test_divergent_tree_fires_one_of_each(self):
        diags = analyze_kernel_parity(FIXTURE_TREE)
        assert rule_ids(diags) == ["PAR001"]
        assert any("LayerSpec.flavor" in d.message for d in diags)


class TestContractErrors:
    def test_unresolvable_root_raises(self):
        index = ModuleIndex.from_sources({"repro.sim.kernels": "x = 1\n"})
        contract = MemoContract(
            roots=("repro.sim.simulator:Simulator.evaluate",),
            coverage={},
            kernel_module="repro.sim.kernels",
        )
        with pytest.raises(ValueError, match="cannot resolve"):
            analyze_kernel_parity_tree(index, contract)

    def test_missing_kernel_module_raises(self):
        index = ModuleIndex.from_sources(
            {"repro.sim.simulator": "def evaluate():\n    return 0\n"}
        )
        contract = MemoContract(
            roots=("repro.sim.simulator:evaluate",),
            coverage={},
            kernel_module="repro.sim.kernels",
        )
        with pytest.raises(ValueError, match="kernel module"):
            analyze_kernel_parity_tree(index, contract)
