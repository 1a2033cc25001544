"""Tests for the scalar/vectorized kernel-parity analysis (PAR rules).

The real proof is :class:`TestRealTree` (the shipped tree satisfies its
own coverage contract) plus :class:`TestTamper` — the acceptance
criterion that the contract is *load-bearing*: deleting any single
kernel column, coverage row, or replicated constant from the **real
sources** must fire a PAR diagnostic.  Tampering happens on in-memory
copies of the source text; nothing on disk is touched.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.callgraph import ModuleIndex
from repro.analysis.kernel_parity import (
    ParityContract,
    analyze_kernel_parity,
    analyze_kernel_parity_tree,
    kernel_parity_contract,
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
    return analyze_kernel_parity_tree(index, kernel_parity_contract())


class TestRealTree:
    def test_contract_resolves(self):
        contract = kernel_parity_contract()
        assert "repro.sim.simulator:Simulator.evaluate" in contract.roots
        assert "LayerSpec" in contract.coverage
        assert "MappingBatch" in contract.derived

    def test_real_tree_satisfies_parity_contract(self):
        # The theorem: every scalar read is carried by a live kernel
        # column, no column is dead, every replicated constant matches.
        assert analyze_kernel_parity() == []

    def test_untampered_sources_are_clean_through_from_sources(self):
        # The tamper harness itself must not manufacture findings.
        assert analyze_tampered({}) == []

    def test_mirror_class_is_found_without_searching_the_index(self):
        # PAR003's mirror check reads LayerMapping from the scalar
        # traversal; a search by simple name would parse this module,
        # which sorts before repro.arch.mapping.
        sources = {**tampered_sources({}), "repro.aaa_broken": "def broken(:\n"}
        index = ModuleIndex.from_sources(sources)
        assert analyze_kernel_parity_tree(index, kernel_parity_contract()) == []


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

    def test_renaming_networkarrays_field_fires_par002(self):
        diags = analyze_tampered(
            {
                "repro.sim.kernels": [
                    ("    weight_counts: np.ndarray", "    weight_tallies: np.ndarray")
                ]
            }
        )
        par2 = [d for d in diags if d.rule_id == "PAR002"]
        # Both halves report: the declared target dangles and the renamed
        # column is dead.
        assert any("weight_counts" in d.message or "weight_counts" in d.location for d in par2)
        assert any("weight_tallies" in d.location for d in par2)

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

    def test_deleting_shape_table_row_fires_par002_and_par003(self):
        diags = analyze_tampered(
            {"repro.sim.kernels": [('    "buffer",\n', "")]}
        )
        ids = rule_ids(diags)
        # The registry shrank: its index unpack now disagrees (PAR003)
        # and the orphaned _F_BUF row is dead weight (PAR002).
        assert "PAR003" in ids
        assert any(
            d.rule_id == "PAR003" and "SHAPE_TABLE_FLOAT_ROWS" in d.message
            for d in diags
        )

    def test_renaming_layermapping_property_fires_par001_and_par003(self):
        diags = analyze_tampered(
            {
                "repro.arch.mapping": [
                    ("def partial_sum_adds", "def partial_sum_additions")
                ]
            }
        )
        ids = rule_ids(diags)
        # The scalar cost path reads a member that no longer resolves
        # (PAR001) and MappingBatch.partial_sum_adds lost its scalar
        # source of truth (PAR003).
        assert "PAR001" in ids
        assert any(
            d.rule_id == "PAR003"
            and d.location == "MappingBatch.partial_sum_adds"
            for d in diags
        )


class TestFixtureTree:
    def test_divergent_tree_fires_one_of_each(self):
        diags = analyze_kernel_parity(FIXTURE_TREE)
        assert rule_ids(diags) == ["PAR001", "PAR002", "PAR003"]
        by_rule = {r: [d for d in diags if d.rule_id == r] for r in rule_ids(diags)}
        assert any("LayerSpec.flavor" in d.message for d in by_rule["PAR001"])
        assert any(
            d.location == "NetworkArrays.scratch_buffer" for d in by_rule["PAR002"]
        )
        assert any("index unpack" in d.message for d in by_rule["PAR003"])


class TestContractErrors:
    def test_unresolvable_root_raises(self):
        index = ModuleIndex.from_sources({"repro.sim.kernels": "x = 1\n"})
        contract = ParityContract(
            roots=("repro.sim.simulator:Simulator.evaluate",),
            kernel_module="repro.sim.kernels",
            coverage={},
            derived={},
        )
        with pytest.raises(ValueError, match="cannot resolve"):
            analyze_kernel_parity_tree(index, contract)

    def test_missing_kernel_module_raises(self):
        index = ModuleIndex.from_sources(
            {"repro.sim.simulator": "def evaluate():\n    return 0\n"}
        )
        contract = ParityContract(
            roots=("repro.sim.simulator:evaluate",),
            kernel_module="repro.sim.kernels",
            coverage={},
            derived={},
        )
        with pytest.raises(ValueError, match="kernel module"):
            analyze_kernel_parity_tree(index, contract)

    def test_missing_registry_reports_par003(self):
        index = ModuleIndex.from_sources(
            {
                "repro.sim.simulator": "def evaluate():\n    return 0\n",
                "repro.sim.kernels": "class ShapeTable:\n    pass\n",
            }
        )
        contract = ParityContract(
            roots=("repro.sim.simulator:evaluate",),
            kernel_module="repro.sim.kernels",
            coverage={},
            derived={},
            registries={"ShapeTable": (("SHAPE_TABLE_FLOAT_ROWS", "_F_"),)},
        )
        diags = analyze_kernel_parity_tree(index, contract)
        assert rule_ids(diags) == ["PAR003"]
        assert "row registry" in diags[0].message
