"""Fixture scalar cost path whose kernel module has drifted (PAR rules).

Mirrors the real tree's shape — the same class names and coverage-table
fields the live ``KERNEL_COVERAGE`` declares — with three deliberate
divergences spread across this module and ``kernels.py``:

* ``evaluate`` reads ``LayerSpec.flavor``, which no coverage entry maps
  to a kernel column (PAR001);
* ``kernels.NetworkArrays`` grows a ``scratch_buffer`` column nothing
  declares (PAR002);
* ``kernels.SHAPE_TABLE_FLOAT_ROWS`` and its ``_F_*`` index unpack
  disagree on the row count (PAR003);
* ``kernels.score_strategy_batch`` also rewords the capacity message;
  no PAR rule compares message texts, so that reports nothing.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerSpec:
    index: int
    layer_type: str
    input_size: int
    stride: int
    padding: int
    kernel_size: int
    in_channels: int
    out_channels: int
    flavor: str


@dataclass(frozen=True)
class PoolSpec:
    window: int
    stride: int


@dataclass(frozen=True)
class Stage:
    layer: LayerSpec
    pool: PoolSpec


@dataclass(frozen=True)
class Network:
    name: str
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class CrossbarShape:
    rows: int
    cols: int
    _str: str


@dataclass(frozen=True)
class LayerMapping:
    layer: LayerSpec
    shape: CrossbarShape
    row_groups: int
    col_groups: int
    kernel_split: bool
    num_crossbars: int
    used_columns_total: int
    allocated_columns_total: int
    used_rows_total: int
    allocated_rows_total: int
    partial_sum_adds: int
    adder_tree_depth: int
    used_columns_per_crossbar_max: int


@dataclass
class Simulator:
    tiles_per_bank: int

    def _capacity_check(self, occupied_tiles: int) -> None:
        if occupied_tiles > self.tiles_per_bank:
            raise ValueError(
                f"strategy needs {occupied_tiles} tiles; one bank "
                f"holds {self.tiles_per_bank}"
            )

    def evaluate(self, network: Network, mapping: LayerMapping) -> float:
        total = 0.0
        for stage in network.stages:
            layer = stage.layer
            pool = stage.pool
            total += layer.index + layer.input_size + layer.stride
            total += layer.padding + layer.kernel_size
            total += layer.in_channels * layer.out_channels
            total += len(layer.layer_type) + len(layer.flavor)  # PAR001
            total += pool.window * pool.stride
        shape = mapping.shape
        total += shape.rows * shape.cols + len(shape._str)
        total += mapping.row_groups * mapping.col_groups
        total += mapping.layer.index
        self._capacity_check(int(total))
        return total + len(network.name) + len(network._layers)

    def try_evaluate(self, network: Network, mapping: LayerMapping) -> float:
        return self.evaluate(network, mapping)
