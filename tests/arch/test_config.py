"""Tests for CrossbarShape and HardwareConfig."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.invariants import InvariantViolation

from repro.arch.config import (
    DEFAULT_CANDIDATES,
    DEFAULT_CONFIG,
    RECTANGLE_CANDIDATES,
    SQUARE_CANDIDATES,
    CrossbarShape,
    HardwareConfig,
)


class TestCrossbarShape:
    def test_cells(self):
        assert CrossbarShape(36, 32).cells == 1152

    def test_square_and_rectangle_flags(self):
        assert CrossbarShape(64, 64).is_square
        assert not CrossbarShape(64, 64).is_rectangle
        assert CrossbarShape(72, 64).is_rectangle

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CrossbarShape(0, 32)
        with pytest.raises(ValueError):
            CrossbarShape(32, -1)

    @pytest.mark.parametrize(
        "rows,cols", [(64.5, 64), (64.0, 64), (64, np.float64(64)), (True, 64)]
    )
    def test_rejects_non_integer_dimensions(self, rows, cols):
        # 64.0 == 64 but would key as "64.0x64"; 64.5 priced the kernel
        # and reference paths differently.
        with pytest.raises(InvariantViolation) as info:
            CrossbarShape(rows, cols)
        assert [d.rule_id for d in info.value.diagnostics] == ["SHP001"]

    def test_numpy_integers_become_ints(self):
        shape = CrossbarShape(np.int64(72), np.int32(64))
        assert type(shape.rows) is int and type(shape.cols) is int
        assert shape == CrossbarShape(72, 64)
        assert str(shape) == "72x64"
        assert hash(shape) == hash(CrossbarShape(72, 64))

    def test_str(self):
        assert str(CrossbarShape(288, 256)) == "288x256"

    @pytest.mark.parametrize(
        "text,rows,cols",
        [("64x64", 64, 64), ("36X32", 36, 32), (" 576×512 ", 576, 512)],
    )
    def test_parse(self, text, rows, cols):
        assert CrossbarShape.parse(text) == CrossbarShape(rows, cols)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            CrossbarShape.parse("big")
        with pytest.raises(ValueError):
            CrossbarShape.parse("64")

    def test_ordering_and_hashing(self):
        shapes = {CrossbarShape(32, 32), CrossbarShape(32, 32), CrossbarShape(64, 64)}
        assert len(shapes) == 2
        assert CrossbarShape(32, 32) < CrossbarShape(64, 64)

    @given(st.integers(1, 1024), st.integers(1, 1024))
    def test_parse_roundtrip(self, r, c):
        shape = CrossbarShape(r, c)
        assert CrossbarShape.parse(str(shape)) == shape


class TestCandidateSets:
    def test_square_candidates_are_paper_sizes(self):
        assert [s.rows for s in SQUARE_CANDIDATES] == [32, 64, 128, 256, 512]
        assert all(s.is_square for s in SQUARE_CANDIDATES)

    def test_rectangle_heights_are_multiples_of_nine(self):
        assert all(s.rows % 9 == 0 for s in RECTANGLE_CANDIDATES)
        assert [s.cols for s in RECTANGLE_CANDIDATES] == [32, 64, 128, 256, 512]

    def test_default_hybrid_set_matches_section_3_3(self):
        assert [str(s) for s in DEFAULT_CANDIDATES] == [
            "32x32", "36x32", "72x64", "288x256", "576x512",
        ]


class TestHardwareConfig:
    def test_paper_defaults(self):
        cfg = DEFAULT_CONFIG
        assert cfg.weight_bits == 8
        assert cfg.cell_bits == 1
        assert cfg.dac_bits == 1
        assert cfg.adc_bits == 10
        assert cfg.pes_per_tile == 4
        assert cfg.tiles_per_bank == 256 * 256

    def test_derived_group_and_cycles(self):
        cfg = DEFAULT_CONFIG
        assert cfg.xbars_per_group == 8
        assert cfg.input_cycles == 8
        assert cfg.logical_xbars_per_tile == 4

    def test_adc_energy_scales_exponentially(self):
        cfg = DEFAULT_CONFIG
        assert cfg.energy_adc_nj(10) == pytest.approx(4 * cfg.energy_adc_nj(8))
        assert cfg.energy_adc_nj() == pytest.approx(cfg.energy_adc_nj(10))

    def test_adc_area_scales_exponentially(self):
        cfg = DEFAULT_CONFIG
        assert cfg.area_adc_um2(9) == pytest.approx(2 * cfg.area_adc_um2(8))

    def test_ten_bit_adc_covers_all_candidate_heights(self):
        # The paper's stated reason for 10-bit ADCs (§4.1).
        max_rows = max(s.rows for s in DEFAULT_CANDIDATES)
        assert max_rows < 2**DEFAULT_CONFIG.adc_bits

    def test_rejects_indivisible_weight_bits(self):
        with pytest.raises(ValueError):
            HardwareConfig(weight_bits=7, cell_bits=2)

    def test_rejects_indivisible_input_bits(self):
        with pytest.raises(ValueError):
            HardwareConfig(input_bits=8, dac_bits=3)

    def test_rejects_nonpositive_hierarchy(self):
        with pytest.raises(ValueError):
            HardwareConfig(pes_per_tile=0)
        with pytest.raises(ValueError):
            HardwareConfig(adc_sharing=0)

    def test_with_replaces_fields(self):
        cfg = DEFAULT_CONFIG.with_(pes_per_tile=16)
        assert cfg.pes_per_tile == 16
        assert cfg.weight_bits == DEFAULT_CONFIG.weight_bits
        assert DEFAULT_CONFIG.pes_per_tile == 4  # original untouched

    def test_multibit_cells_shrink_group(self):
        cfg = HardwareConfig(weight_bits=8, cell_bits=2)
        assert cfg.xbars_per_group == 4
