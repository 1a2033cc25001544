"""Mapping math tests — Eq. 4 and the paper's pinned examples, plus
property-based verification against brute-force occupancy grids."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES, SQUARE_CANDIDATES
from repro.arch.mapping import eq4_utilization, map_layer, occupancy_grid
from repro.models.layers import LayerSpec


class TestPaperPinnedExamples:
    def test_fig2a_layer1_utilization(self):
        """Four 3x3x3 kernels on 32x32 -> 10.5% (paper Fig. 2a)."""
        assert eq4_utilization(3, 4, 3, 32, 32) == pytest.approx(0.10546875)

    def test_fig2b_layer2_utilization(self):
        """Twenty 1x1x32 kernels on 32x32 -> 62.5% (paper Fig. 2b)."""
        assert eq4_utilization(32, 20, 1, 32, 32) == pytest.approx(0.625)

    def test_fig5_intra_utilization_64(self):
        """128 kernels of 3x3x12 on 64x64 -> 27/32 (paper Fig. 5)."""
        layer = LayerSpec.conv(12, 128, 3)
        assert map_layer(layer, CrossbarShape(64, 64)).utilization == pytest.approx(27 / 32)

    def test_fig5_adc_counts(self):
        """Activated ADCs: 256 on 64x64 vs 128 on 128x128 (paper Fig. 5)."""
        layer = LayerSpec.conv(12, 128, 3)
        assert map_layer(layer, CrossbarShape(64, 64)).used_columns_total == 256
        assert map_layer(layer, CrossbarShape(128, 128)).used_columns_total == 128

    def test_section33_vgg16_l4_example(self):
        """k=3, Cin=Cout=128: 83.7% on 32x32 but 100% on 36x32 (§3.3)."""
        assert eq4_utilization(128, 128, 3, 32, 32) == pytest.approx(0.837, abs=1e-3)
        assert eq4_utilization(128, 128, 3, 36, 32) == pytest.approx(1.0)

    def test_rectangles_fit_3x3_rows_perfectly(self):
        """All RXB heights are multiples of 9: zero intra-row waste for
        3x3 kernels when channels divide evenly."""
        layer = LayerSpec.conv(64, 64, 3)
        m = map_layer(layer, CrossbarShape(72, 64))
        assert m.utilization == pytest.approx(1.0)


class TestMapLayerStructure:
    def test_row_and_col_groups(self):
        layer = LayerSpec.conv(12, 128, 3)
        m = map_layer(layer, CrossbarShape(64, 64))
        assert (m.row_groups, m.col_groups) == (2, 2)
        assert m.num_crossbars == 4
        assert not m.kernel_split

    def test_fc_uses_k_equals_one(self):
        layer = LayerSpec.fc(512, 4096)
        m = map_layer(layer, CrossbarShape(512, 512))
        assert (m.row_groups, m.col_groups) == (1, 8)
        assert m.utilization == pytest.approx(1.0)

    def test_kernel_split_engages_when_kernel_taller_than_crossbar(self):
        layer = LayerSpec.conv(3, 64, 7)  # 49 rows per slice > 32
        m = map_layer(layer, CrossbarShape(32, 32))
        assert m.kernel_split
        assert m.row_groups == math.ceil(3 * 49 / 32)

    def test_kernel_split_matches_eq4_generalisation(self):
        layer = LayerSpec.conv(3, 64, 7)
        m = map_layer(layer, CrossbarShape(32, 32))
        expected = (3 * 49 * 64) / (32 * m.row_groups * 32 * m.col_groups)
        assert m.utilization == pytest.approx(expected)

    def test_eq4_raises_on_undefined_case(self):
        with pytest.raises(ZeroDivisionError):
            eq4_utilization(3, 64, 7, 32, 32)

    def test_used_rows_total_counts_column_replicas(self):
        layer = LayerSpec.conv(12, 128, 3)
        m = map_layer(layer, CrossbarShape(64, 64))
        assert m.used_rows_total == 2 * 12 * 9  # col_groups * Cin * k^2

    def test_allocated_counts(self):
        layer = LayerSpec.conv(12, 128, 3)
        m = map_layer(layer, CrossbarShape(64, 64))
        assert m.allocated_columns_total == 4 * 64
        assert m.allocated_rows_total == 4 * 64

    def test_partial_sum_adds(self):
        layer = LayerSpec.conv(12, 128, 3)
        m = map_layer(layer, CrossbarShape(64, 64))
        assert m.partial_sum_adds == (2 - 1) * 128

    def test_adder_tree_depth(self):
        layer = LayerSpec.conv(512, 512, 3)
        m = map_layer(layer, CrossbarShape(512, 512))
        assert m.row_groups == 10
        assert m.adder_tree_depth == 4
        single = map_layer(LayerSpec.fc(100, 100), CrossbarShape(512, 512))
        assert single.adder_tree_depth == 0

    def test_describe_mentions_shape(self):
        m = map_layer(LayerSpec.conv(3, 4, 3), CrossbarShape(32, 32))
        assert "32x32" in m.describe()


layer_strategy = st.builds(
    lambda cin, cout, k: LayerSpec.conv(cin, cout, k),
    st.integers(1, 80),
    st.integers(1, 300),
    st.sampled_from([1, 3, 5, 7]),
)
shape_strategy = st.sampled_from(DEFAULT_CANDIDATES + SQUARE_CANDIDATES)


class TestPropertiesAgainstGroundTruth:
    @settings(max_examples=60, deadline=None)
    @given(layer_strategy, shape_strategy)
    def test_occupancy_grid_matches_utilization(self, layer, shape):
        """Eq. 4 (and its fallback) equals brute-force cell counting."""
        m = map_layer(layer, shape)
        grids = occupancy_grid(layer, shape)
        used = sum(int(g.sum()) for row in grids for g in row)
        assert used == m.weight_cells
        total = m.num_crossbars * shape.cells
        assert m.utilization == pytest.approx(used / total)

    @settings(max_examples=60, deadline=None)
    @given(layer_strategy, shape_strategy)
    def test_occupancy_grid_column_usage(self, layer, shape):
        """Per-grid used column counts sum to used_columns_total."""
        m = map_layer(layer, shape)
        grids = occupancy_grid(layer, shape)
        used_cols = sum(
            int(g.any(axis=0).sum()) for row in grids for g in row
        )
        assert used_cols == m.used_columns_total

    @settings(max_examples=60, deadline=None)
    @given(layer_strategy, shape_strategy)
    def test_utilization_bounds(self, layer, shape):
        m = map_layer(layer, shape)
        assert 0.0 < m.utilization <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(layer_strategy, shape_strategy)
    def test_capacity_is_sufficient(self, layer, shape):
        """Allocated cells always cover the layer's weights."""
        m = map_layer(layer, shape)
        assert m.num_crossbars * shape.cells >= layer.weight_count

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 128), st.sampled_from([1, 3, 5]))
    def test_eq4_equals_map_layer_when_defined(self, cin, cout, k):
        for shape in SQUARE_CANDIDATES:
            if k * k <= shape.rows:
                assert map_layer(
                    LayerSpec.conv(cin, cout, k), shape
                ).utilization == pytest.approx(
                    eq4_utilization(cin, cout, k, shape.rows, shape.cols)
                )

    @settings(max_examples=40, deadline=None)
    @given(layer_strategy)
    def test_mapping_is_cached_and_deterministic(self, layer):
        shape = CrossbarShape(64, 64)
        a = map_layer(layer, shape)
        b = map_layer(layer, shape)
        assert (a.row_groups, a.col_groups) == (b.row_groups, b.col_groups)
