"""Fixture kernel module that drifted from its scalar twin — see
``simulator.py`` in this tree for the catalogue of planted divergences."""

import numpy as np

SHAPE_TABLE_FLOAT_ROWS = (
    "adc",
    "dac",
    "crossbar",
    "shift_add",
    "adder_tree",
    "buffer",
    "bus",
    "layer_latency_ns",
    "tile_area_um2",
    "utilization",
)
SHAPE_TABLE_INT_ROWS = ("num_crossbars", "adc_conversions", "dac_conversions")

# Drift: the registry above declares ten float rows but this unpack
# binds nine names -> PAR003.
(_F_ADC, _F_DAC, _F_XBAR, _F_SHIFT, _F_TREE, _F_BUF, _F_BUS, _F_LAT,
 _F_AREA) = range(9)
(_I_XBARS, _I_ADC, _I_DAC) = range(3)


class NetworkArrays:
    num_layers: int
    layer_indices: np.ndarray
    mvm_ops: np.ndarray
    in_channels: np.ndarray
    out_channels: np.ndarray
    kernel_elems: np.ndarray
    weight_counts: np.ndarray
    in_bytes: np.ndarray
    weight_cells_total: int
    pooled_elems: np.ndarray
    scratch_buffer: np.ndarray  # dead column with no declared provenance -> PAR002


class MappingBatch:
    net: NetworkArrays
    rows: np.ndarray
    cols: np.ndarray
    row_groups: np.ndarray
    col_groups: np.ndarray
    kernel_split: np.ndarray
    num_crossbars: np.ndarray
    used_columns_total: np.ndarray
    allocated_columns_total: np.ndarray
    used_rows_total: np.ndarray
    allocated_rows_total: np.ndarray
    partial_sum_adds: np.ndarray
    adder_tree_depth: np.ndarray
    used_columns_per_crossbar_max: np.ndarray


class ShapeTable:
    floats: np.ndarray
    ints: np.ndarray


def score_strategy_batch(table, config):
    needed = int(table.floats.sum())
    if needed > config.tiles_per_bank:
        # "wants" vs the scalar "needs": no PAR rule reads message texts.
        return (
            f"strategy wants {needed} tiles; one "
            f"bank holds {config.tiles_per_bank}"
        )
    return needed
