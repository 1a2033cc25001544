"""Tests for the rule registry, Diagnostic/Report plumbing, and the
shared scalar rule implementations."""

import pytest

from repro.analysis.invariants import (
    RULES,
    Diagnostic,
    InvariantViolation,
    Report,
    Severity,
    adc_resolution_diagnostics,
    bit_divisibility_diagnostics,
    config_value_diagnostics,
    is_power_of_two,
    positive_count_diagnostics,
    required_adc_bits,
    rule,
    shape_dim_diagnostics,
    shape_discipline_diagnostics,
)


class TestRegistry:
    def test_every_rule_has_anchor_and_description(self):
        assert RULES, "registry must not be empty"
        for r in RULES.values():
            assert r.anchor
            assert r.description
            assert r.rule_id == r.rule_id.upper()

    def test_rule_families_present(self):
        families = {rid[:3] for rid in RULES}
        assert families == {
            "CFG", "SHP", "MAP", "NET", "ALC", "LNT", "CAC", "CON",
            "NUM", "PAR", "UNI",
        }

    def test_lookup(self):
        assert rule("MAP001").anchor == "Eq. 4"
        assert rule("ALC006").anchor == "Algorithm 1"
        assert rule("SHP002").anchor == "§3.3"

    def test_diag_carries_rule_metadata(self):
        d = rule("CFG001").diag("here", "broken", hint="fix it")
        assert d.rule_id == "CFG001"
        assert d.severity is Severity.ERROR
        assert "fix it" in d.format()
        assert "CFG001" in d.format()


class TestReport:
    def test_empty_report_is_ok(self):
        r = Report()
        assert r.ok and r.exit_code == 0
        assert r.format() == "no findings"

    def test_error_report_fails(self):
        r = Report()
        r.add(rule("ALC001").diag("tile 0", "overfull"))
        assert not r.ok and r.exit_code == 1
        assert len(r.errors) == 1 and len(r) == 1

    def test_raise_if_errors(self):
        r = Report()
        r.add(rule("ALC002").diag("layer 3", "double-booked"))
        with pytest.raises(InvariantViolation) as exc:
            r.raise_if_errors("ctx")
        assert exc.value.rule_ids == ("ALC002",)
        assert "ctx" in str(exc.value)

    def test_format_orders_by_rule_then_location(self):
        r = Report()
        r.add(Diagnostic("E2", Severity.ERROR, "a", "second rule"))
        r.add(Diagnostic("E1", Severity.ERROR, "b", "first rule, later location"))
        r.add(Diagnostic("E1", Severity.ERROR, "a", "first rule, first location"))
        lines = r.format().splitlines()
        assert [line.split()[2] for line in lines[:3]] == ["[a]", "[b]", "[a]"]
        assert [line.split()[1] for line in lines[:3]] == ["E1", "E1", "E2"]
        assert lines[3] == "3 error(s), 3 finding(s) total"


class TestInvariantViolation:
    def test_is_value_error(self):
        assert issubclass(InvariantViolation, ValueError)

    def test_requires_diagnostics(self):
        with pytest.raises(ValueError):
            raise InvariantViolation([])

    def test_message_includes_every_rule_id(self):
        diags = [
            rule("ALC001").diag("tile 1", "a"),
            rule("ALC004").diag("tile 2", "b"),
        ]
        exc = InvariantViolation(diags)
        assert "ALC001" in str(exc) and "ALC004" in str(exc)


class TestScalarRules:
    def test_is_power_of_two(self):
        assert all(is_power_of_two(n) for n in (1, 2, 64, 512))
        assert not any(is_power_of_two(n) for n in (0, -4, 3, 36, 576))

    def test_required_adc_bits_matches_paper_sizing(self):
        # §4.1: 10-bit ADC "to support all heterogeneous sizes" (576 rows).
        assert required_adc_bits(576, 1) == 10
        assert required_adc_bits(512, 1) == 10  # 512 sums need 0..512
        assert required_adc_bits(32, 1) == 6
        assert required_adc_bits(32, 2) == 7    # 3x larger max sum

    def test_positive_counts(self):
        assert positive_count_diagnostics({"a": 1, "b": 2}, "loc") == []
        diags = positive_count_diagnostics({"a": 0, "b": -3}, "loc")
        assert [d.rule_id for d in diags] == ["CFG001", "CFG001"]

    def test_bit_divisibility_valid(self):
        assert bit_divisibility_diagnostics(8, 1, 8, 1, "loc") == []
        assert bit_divisibility_diagnostics(8, 2, 8, 4, "loc") == []

    def test_bit_divisibility_violations(self):
        diags = bit_divisibility_diagnostics(7, 2, 8, 3, "loc")
        assert sorted(d.rule_id for d in diags) == ["CFG002", "CFG003"]

    def test_adc_resolution(self):
        assert adc_resolution_diagnostics(10, 576, 1, "loc") == []
        diags = adc_resolution_diagnostics(8, 576, 1, "loc")
        assert [d.rule_id for d in diags] == ["CFG004"]

    def test_shape_dims(self):
        assert shape_dim_diagnostics(64, 64, "loc") == []
        assert [d.rule_id for d in shape_dim_diagnostics(0, 64, "loc")] == ["SHP001"]

    def test_shape_dims_must_be_integers(self):
        import numpy as np

        assert shape_dim_diagnostics(np.int64(64), np.int32(64), "loc") == []
        for rows, cols in ((64.0, 64), (64, 64.5), (False, 64), (64, "64")):
            diags = shape_dim_diagnostics(rows, cols, "loc")
            assert [d.rule_id for d in diags] == ["SHP001"]
            assert "integers" in diags[0].message

    def test_shape_discipline_valid_candidates(self):
        for rows, cols in ((32, 32), (36, 32), (72, 64), (288, 256), (576, 512)):
            assert shape_discipline_diagnostics(rows, cols, "loc") == []

    def test_shape_discipline_violations(self):
        # 35-row RXB: the acceptance-criteria fixture.
        assert [
            d.rule_id for d in shape_discipline_diagnostics(35, 32, "loc")
        ] == ["SHP002"]
        assert [
            d.rule_id for d in shape_discipline_diagnostics(31, 31, "loc")
        ] == ["SHP003"]
        # RXB with non-power-of-two width.
        assert [
            d.rule_id for d in shape_discipline_diagnostics(36, 33, "loc")
        ] == ["SHP003"]

    def test_config_value_diagnostics_roundup(self):
        assert (
            config_value_diagnostics(
                weight_bits=8, input_bits=8, cell_bits=1, dac_bits=1,
                adc_bits=10, pes_per_tile=4, tiles_per_bank=65536,
                adc_sharing=1,
            )
            == []
        )
        diags = config_value_diagnostics(
            weight_bits=7, input_bits=8, cell_bits=2, dac_bits=1,
            adc_bits=0, pes_per_tile=4, tiles_per_bank=65536, adc_sharing=1,
        )
        assert sorted({d.rule_id for d in diags}) == ["CFG001", "CFG002"]
