"""Tests for the dimensional-analysis pass (UNI rules)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.units import (
    analyze_units,
    format_unit,
    parse_unit,
    suffix_unit,
    unit_div,
    unit_mul,
    units_findings,
)

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "mixed_units_tree"
REPRO_SRC = Path(__file__).parents[2] / "src" / "repro"


def ids(source, rel="sim/mod.py"):
    return sorted(d.rule_id for d in units_findings(source, rel))


class TestUnitAlgebra:
    def test_parse_is_canonical(self):
        assert parse_unit("nJ") == (("nJ", 1),)
        assert parse_unit("count") == ()
        assert parse_unit("1") == ()
        assert parse_unit("nJ/(nW*ns)") == (("nJ", 1), ("nW", -1), ("ns", -1))
        assert parse_unit("nJ/byte") == (("byte", -1), ("nJ", 1))

    def test_mul_composes_and_cancels(self):
        nw_ns = unit_mul(parse_unit("nW"), parse_unit("ns"))
        assert unit_mul(nw_ns, parse_unit("nJ/(nW*ns)")) == parse_unit("nJ")

    def test_div_inverts(self):
        assert unit_div(parse_unit("nJ"), parse_unit("ns")) == parse_unit("nJ/ns")
        assert unit_div(parse_unit("nJ"), parse_unit("nJ")) == ()

    def test_unknown_propagation_is_optimistic(self):
        # unknown * dimensioned passes the dimension through; unknown
        # meeting dimensionless stays unknown (claiming () would later
        # conflict with real units downstream).
        assert unit_mul(None, parse_unit("nJ")) == parse_unit("nJ")
        assert unit_mul(None, ()) is None
        assert unit_mul(None, None) is None

    def test_format_round_trips_readably(self):
        assert format_unit(None) == "?"
        assert format_unit(()) == "1"
        assert format_unit(parse_unit("nJ/(nW*ns)")) == "nJ/(nW*ns)"

    def test_suffix_table_longest_first(self):
        assert suffix_unit("energy_buffer_nj_per_byte") == parse_unit("nJ/byte")
        assert suffix_unit("energy_adc_nj") == parse_unit("nJ")
        assert suffix_unit("idle_line_energy_fraction") == ()
        assert suffix_unit("mvm_ops") is None


class TestUNI001MixedAddition:
    def test_energy_plus_latency(self):
        src = "def f(c):\n    return c.energy_adc_nj + c.latency_adc_ns\n"
        assert ids(src) == ["UNI001"]

    def test_comparison_mixing_units(self):
        src = "def f(c):\n    return c.energy_adc_nj < c.latency_adc_ns\n"
        assert ids(src) == ["UNI001"]

    def test_min_mixing_units(self):
        src = "def f(c):\n    return min(c.energy_adc_nj, c.latency_adc_ns)\n"
        assert ids(src) == ["UNI001"]

    def test_same_unit_addition_is_clean(self):
        src = "def f(c):\n    return c.energy_adc_nj + c.energy_dac_nj\n"
        assert ids(src) == []

    def test_literal_accumulator_is_polymorphic(self):
        src = (
            "def f(xs):\n"
            "    total = 0.0\n"
            "    for x_ns in xs:\n"
            "        total += x_ns\n"
            "    return total\n"
        )
        assert ids(src) == []

    def test_count_scaling_is_polymorphic(self):
        src = "def f(c, mvm_ops):\n    return mvm_ops * c.energy_adc_nj\n"
        assert ids(src) == []

    def test_suffixed_name_keeps_its_declared_unit(self):
        # ``total_ns`` is nanoseconds whatever it was bound to, so adding
        # nanojoules to it mixes units.
        src = (
            "def f(c):\n"
            "    total_ns = c.energy_adc_nj\n"
            "    return total_ns + c.energy_adc_nj\n"
        )
        assert ids(src) == ["UNI001"]

    def test_named_conversion_changes_the_unit(self):
        src = (
            "from repro.sim.units_constants import NW_NS_TO_NJ\n"
            "def f(c, t_ns):\n"
            "    return c.leak_tile_nw * t_ns * NW_NS_TO_NJ + c.energy_adc_nj\n"
        )
        assert ids(src) == []

class TestUNI005TracerStreams:
    def test_wrong_unit_to_stream_constant(self):
        src = (
            'ENERGY = "sim.energy_nj"\n'
            "def f(tracer, latency_ns):\n"
            "    tracer.counter(ENERGY, latency_ns)\n"
        )
        assert ids(src, "obs/metrics.py") == ["UNI005"]

    def test_literal_stream_name_resolves_too(self):
        src = (
            "def f(tracer, latency_ns):\n"
            '    tracer.counter("sim.energy_nj", latency_ns)\n'
        )
        assert ids(src, "obs/metrics.py") == ["UNI005"]

    def test_matching_unit_is_clean(self):
        src = (
            "def f(tracer, energy_nj):\n"
            '    tracer.counter("sim.energy_nj", energy_nj)\n'
        )
        assert ids(src, "obs/metrics.py") == []

    def test_unregistered_stream_is_silent(self):
        src = (
            "def f(tracer, latency_ns):\n"
            '    tracer.counter("debug.scratch", latency_ns)\n'
        )
        assert ids(src, "obs/metrics.py") == []

    def test_finding_carries_inferred_and_declared(self):
        src = (
            "def f(tracer, latency_ns):\n"
            '    tracer.counter("sim.energy_nj", latency_ns)\n'
        )
        (diag,) = units_findings(src, "obs/metrics.py")
        assert dict(diag.data) == {"inferred": "ns", "declared": "nJ"}

class TestTamperedRealSources:
    """Each rule must fire on a minimally corrupted *real* module —
    the analyzer has to see through real-code idioms, not just toys."""

    def test_uni001_leakage_mixing_nw_with_ns(self):
        real = (REPRO_SRC / "sim" / "energy.py").read_text()
        assert "occupied_tiles * config.leak_tile_nw" in real
        tampered = real.replace(
            "occupied_tiles * config.leak_tile_nw",
            "occupied_tiles * config.latency_control_ns",
        )
        assert "UNI001" in ids(tampered, "sim/energy.py")

    def test_uni005_latency_emitted_to_energy_stream(self):
        real = (REPRO_SRC / "obs" / "metrics.py").read_text()
        needle = "tracer.counter(ENERGY_NJ, metrics.energy_nj, network=network)"
        assert needle in real
        tampered = real.replace(
            needle,
            "tracer.counter(ENERGY_NJ, metrics.latency_ns, network=network)",
        )
        assert ids(tampered, "obs/metrics.py") == ["UNI005"]


class TestEntryPoints:
    def test_fixture_tree_has_exactly_one_finding_per_rule(self):
        diags = analyze_units(FIXTURE_TREE)
        assert [d.rule_id for d in diags] == ["UNI001", "UNI005"]
        assert all(d.severity.value == "error" for d in diags)

    def test_real_tree_is_dimensionally_clean(self):
        assert analyze_units() == []

    def test_empty_tree_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no cost-model modules"):
            analyze_units(tmp_path)

    def test_findings_are_locatable(self):
        diags = analyze_units(FIXTURE_TREE)
        for d in diags:
            path, _, lineno = d.location.rpartition(":")
            assert (FIXTURE_TREE / path).is_file()
            assert int(lineno) > 0
