"""NumPy batch kernels for the analytic cost model — the vectorized core.

The scalar cost model (``energy.py`` / ``latency.py`` / ``area.py`` and
the Eq. 4 mapping math in ``arch/mapping.py``) walks Python objects layer
by layer.  After PR 2's memoisation that walk is still the hot path of a
cold :meth:`~repro.sim.simulator.Simulator.evaluate` — exactly the ~97%
simulator-feedback wall clock the paper measures in §4.5.  This module
re-expresses the whole model as array kernels:

* a **struct-of-arrays** :class:`NetworkArrays` record, extracted once per
  :class:`~repro.models.graph.Network` and memoised — per-layer channel
  counts, kernel footprints, MVM counts, weight cells, and the pooled
  element counts behind every pooling stage;
* a :class:`MappingBatch` carrying the per-layer crossbar geometry and the
  Eq. 4 / Fig. 7 group counts for one strategy (arrays of shape ``(L,)``)
  or a whole candidate batch (shape ``(S, L)``), computed with integer
  array ceils — no :class:`~repro.arch.mapping.LayerMapping` objects;
* energy / latency / area / utilization kernels over those arrays, run
  once per (network, config) into a memoised :class:`ShapeTable`;
* the simulator's one fast path, :func:`score_strategy_batch`, which
  rolls an ``(S, L)`` matrix of candidate shapes into ``S`` full
  :class:`~repro.sim.metrics.SystemMetrics` in two stages: the kernel
  gather (:func:`strategy_view`) and, per strategy, metric assembly
  (:func:`metrics_from_view`).  A cold
  :meth:`~repro.sim.simulator.Simulator.evaluate` is a batch of one.
  Each strategy is scored from the one scored before it (the previous
  row of the batch, or the :class:`ScoredStrategy` snapshot a
  :class:`ScoringBase` slot keeps across calls): where their shape-table
  rows differ in few layers, the allocation summary, the shapes' text
  and, for a lone strategy, the gathered columns are the previous
  strategy's with those layers redone.  The eight energy and latency
  folds always run over every layer.  The area fold runs only when a
  metric's ``area_um2`` is first read (:func:`strategy_area_um2`),
  because no search reads it.

**Exactness contract.**  Kernel results are *bit-identical* to the scalar
reference, not merely close (``tests/sim/test_vectorized_parity.py`` and
the PR 4 golden/trace batteries enforce it).  The techniques:

* every float expression mirrors the scalar source's operator order
  (left-associative, same literals), so each elementwise op performs the
  identical IEEE-754 double operation;
* running totals use ``np.cumsum(...)[-1]`` — ``ufunc.accumulate`` is a
  strict sequential left fold, unlike ``np.sum``'s pairwise reduction, so
  it replays the scalar ``total += x`` loop addition for addition;
* the area roll-up repeats each layer's tile area ``count`` times
  (``np.repeat`` + ``cumsum``), matching ``area.allocation_area_um2``'s
  one-addition-per-tile fold, and runs on the first read of
  ``SystemMetrics.area_um2`` from a full summary of the strategy;
* integer quantities stay in ``int64`` (exact far beyond any realistic
  magnitude) and convert to float at the same point the scalar code does;
  ``ceil(a / b)`` on integers becomes ``-(-a // b)``;
* ``ceil(log2(row_groups))`` becomes the exact integer equivalent
  ``(row_groups - 1).bit_length()`` via ``np.frexp``'s exponent.

See ``docs/performance.md`` ("Vectorized kernels") for the design note.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress
from operator import is_not
from typing import NamedTuple, Sequence

import numpy as np

from ..arch.config import CrossbarShape, HardwareConfig
from ..core.allocation.summary import AllocationSummary, summarize_counts
from ..models.graph import Network
from ..obs.trace import NULL_TRACER, Tracer
from .cache import _memo
from .metrics import EnergyBreakdown, LayerCost, SystemMetrics
from .units_constants import NW_NS_TO_NJ

__all__ = [
    "NetworkArrays",
    "MappingBatch",
    "InfeasibleScore",
    "capacity_verdict",
    "KERNEL_COVERAGE",
    "network_arrays",
    "batch_energy_terms",
    "batch_layer_latency_ns",
    "batch_tile_area_um2",
    "batch_utilization",
    "left_fold",
    "area_from_layer_runs",
    "ShapeTable",
    "shape_table",
    "ScoredStrategy",
    "ScoringBase",
    "strategy_view",
    "metrics_from_view",
    "strategy_area_um2",
    "score_strategy_batch",
]


def left_fold(values: np.ndarray) -> np.ndarray:
    """Strict left-to-right sum along the last axis.

    ``np.add.accumulate`` applies the ufunc sequentially, so taking the
    last cumulative element replays a scalar ``total += x`` loop bit for
    bit — ``np.sum``'s pairwise reduction does not.  An empty last axis
    folds to ``0.0`` like an empty loop.
    """
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1], dtype=np.float64)
    return values.cumsum(axis=-1)[..., -1]


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer ``ceil(a / b)`` for positive operands."""
    return -(-a // b)


# ----------------------------------------------------------------------
# Kernel parity coverage contract (PAR001)
# ----------------------------------------------------------------------
#
# The scalar cost path and these kernels must agree bit-for-bit, which
# first requires them to agree on *inputs*: every attribute the scalar
# path reads on the objects this module restructures into arrays must be
# folded into some kernel column.  This table declares that mapping —
# the exact analogue of ``repro.sim.cache.FINGERPRINTED_FIELDS`` for the
# vectorized fork — and ``repro.analysis.kernel_parity`` checks the
# dataflow read-set of ``Simulator.evaluate`` against it and against the
# columns this module actually defines (PAR001).  See
# docs/static_analysis.md ("The kernel coverage-table contract").

#: Scalar read -> kernel column.  Outer key: a class the kernels
#: restructure into arrays; inner key: a field of it the scalar cost
#: path reads; value: the kernel columns that carry it.  Two sentinel
#: targets exist besides ``"Class.column"``: ``"builder"`` (the value is
#: passed through by the batch scorer itself, e.g. ``Network.name`` into
#: ``SystemMetrics``) and ``"shared"`` (both paths read the same value
#: off the same object, e.g. the ``"RxC"`` text ``CrossbarShape`` stashes
#: in ``_str``, which its ``__str__`` returns).
KERNEL_COVERAGE: dict[str, dict[str, tuple[str, ...]]] = {
    "LayerSpec": {
        "index": ("NetworkArrays.layer_indices",),
        "layer_type": ("NetworkArrays.mvm_ops",),
        "input_size": ("NetworkArrays.mvm_ops",),
        "stride": ("NetworkArrays.mvm_ops",),
        "padding": ("NetworkArrays.mvm_ops",),
        "kernel_size": ("NetworkArrays.kernel_elems",),
        "in_channels": ("NetworkArrays.in_channels",),
        "out_channels": ("NetworkArrays.out_channels",),
    },
    "PoolSpec": {
        "window": ("NetworkArrays.pooled_elems",),
        "stride": ("NetworkArrays.pooled_elems",),
    },
    "Network": {
        "stages": ("NetworkArrays.num_layers",),
        "_layers": ("NetworkArrays.num_layers",),
        "name": ("builder",),
    },
    "Stage": {
        "layer": ("NetworkArrays.num_layers",),
        "pool": ("NetworkArrays.pooled_elems",),
    },
    "CrossbarShape": {
        "rows": ("MappingBatch.rows",),
        "cols": ("MappingBatch.cols",),
        "_str": ("shared",),
    },
    "LayerMapping": {
        "layer": ("MappingBatch.net",),
        "shape": ("MappingBatch.rows", "MappingBatch.cols"),
        "row_groups": ("MappingBatch.row_groups",),
        "col_groups": ("MappingBatch.col_groups",),
    },
}


# ----------------------------------------------------------------------
# Struct-of-arrays extraction
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NetworkArrays:
    """Per-layer constants of one network as ``(L,)`` int64 arrays.

    Everything here is a pure function of the fingerprinted
    :class:`~repro.models.layers.LayerSpec` fields (see
    ``repro.sim.cache.FINGERPRINTED_FIELDS``), so one record serves every
    strategy evaluated against the network.  Arrays are frozen
    (``writeable=False``) — the record is shared across evaluations.
    """

    num_layers: int
    layer_indices: np.ndarray   #: ``layer.index`` per layer
    mvm_ops: np.ndarray         #: MVMs per inference pass
    in_channels: np.ndarray
    out_channels: np.ndarray
    kernel_elems: np.ndarray    #: ``k^2`` (1 for FC)
    weight_counts: np.ndarray   #: weight cells per layer
    in_bytes: np.ndarray        #: ``in_channels * kernel_elems``
    weight_cells_total: int     #: sum of ``weight_counts``
    pooled_elems: np.ndarray    #: pooled output elements per pooling stage,
    #: in layer order (empty when the network has no pooling)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def network_arrays(network: Network) -> NetworkArrays:
    """The per-layer constant arrays of one network, memoised on it."""
    return _memo(network, "arrays", lambda: _network_arrays(network))


def _network_arrays(network: Network) -> NetworkArrays:
    layers = network.layers

    def as_i64(values: list[int]) -> np.ndarray:
        return _frozen(np.array(values, dtype=np.int64))

    in_channels = as_i64([layer.in_channels for layer in layers])
    kernel_elems = as_i64([layer.kernel_elems for layer in layers])
    weight_counts = as_i64([layer.weight_count for layer in layers])
    pooled = []
    for i, layer in enumerate(layers):
        pool = network.pool_after_or_none(i)
        if pool is not None:
            pooled.append(
                pool.output_size(layer.output_size) ** 2 * layer.out_channels
            )
    return NetworkArrays(
        num_layers=len(layers),
        layer_indices=as_i64([layer.index for layer in layers]),
        mvm_ops=as_i64([layer.mvm_ops for layer in layers]),
        in_channels=in_channels,
        out_channels=as_i64([layer.out_channels for layer in layers]),
        kernel_elems=kernel_elems,
        weight_counts=weight_counts,
        in_bytes=_frozen(in_channels * kernel_elems),
        weight_cells_total=int(weight_counts.sum()),
        pooled_elems=as_i64(pooled),
    )


@dataclass(eq=False)
class _NetworkConstants:
    """Everything an evaluation reuses from one (network, config) pair.

    The pooling totals fold the per-stage pooled-element counts in layer
    order, replaying ``energy.pooling_energy`` /
    ``latency.pooling_latency_ns``; ``table`` is the pair's
    :class:`ShapeTable`, built and extended on demand by
    :func:`shape_table`.
    """

    pool_energy_nj: float
    pool_latency_ns: float
    table: ShapeTable | None = None


def network_constants(
    net: NetworkArrays, config: HardwareConfig
) -> _NetworkConstants:
    """The memoised record of one ``(net, config)`` pair, keyed by config."""
    return _memo(net, config, lambda: _NetworkConstants(
        pool_energy_nj=float(left_fold(net.pooled_elems * config.energy_pool_nj)),
        pool_latency_ns=float(left_fold(net.pooled_elems * config.latency_pool_ns)),
    ))


@dataclass(frozen=True, eq=False)
class MappingBatch:
    """Eq. 4 / Fig. 7 mapping outcomes for one or more strategies.

    Geometry arrays broadcast against :attr:`net`'s ``(L,)`` constants:
    shape ``(L,)`` for a single strategy, ``(S, L)`` for a candidate
    batch.  Derived activity counts mirror the
    :class:`~repro.arch.mapping.LayerMapping` properties exactly.
    """

    net: NetworkArrays
    rows: np.ndarray          #: crossbar rows per layer
    cols: np.ndarray          #: crossbar cols per layer
    row_groups: np.ndarray    #: Fig. 7 vertical tiling
    col_groups: np.ndarray
    kernel_split: np.ndarray  #: bool; the k^2 > rows fallback engaged

    @cached_property
    def num_crossbars(self) -> np.ndarray:
        return self.row_groups * self.col_groups

    @cached_property
    def used_columns_total(self) -> np.ndarray:
        return self.row_groups * self.net.out_channels

    @cached_property
    def allocated_columns_total(self) -> np.ndarray:
        return self.num_crossbars * self.cols

    @cached_property
    def used_rows_total(self) -> np.ndarray:
        return self.col_groups * self.net.in_channels * self.net.kernel_elems

    @cached_property
    def allocated_rows_total(self) -> np.ndarray:
        return self.num_crossbars * self.rows

    @cached_property
    def partial_sum_adds(self) -> np.ndarray:
        return (self.row_groups - 1) * self.net.out_channels

    @cached_property
    def adder_tree_depth(self) -> np.ndarray:
        """``ceil(log2(row_groups))`` as exact integer math.

        ``(row_groups - 1).bit_length()`` equals ``ceil(log2(rg))`` for
        ``rg > 1``; ``np.frexp``'s exponent of ``float64(rg - 1)`` *is*
        that bit length (exact below 2^53).
        """
        return np.frexp((self.row_groups - 1).astype(np.float64))[1]

    @cached_property
    def used_columns_per_crossbar_max(self) -> np.ndarray:
        return np.minimum(self.net.out_channels, self.cols)


def _group_counts(
    net: NetworkArrays, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``arch.mapping._map_shapes`` (Eq. 4 + kernel-split)."""
    slices_per_xbar = rows // net.kernel_elems
    kernel_split = slices_per_xbar < 1
    plain = _ceil_div(net.in_channels, np.where(kernel_split, 1, slices_per_xbar))
    dense = _ceil_div(net.in_channels * net.kernel_elems, rows)
    row_groups = np.where(kernel_split, dense, plain)
    col_groups = _ceil_div(net.out_channels, cols)
    return row_groups, col_groups, kernel_split


# ----------------------------------------------------------------------
# Cost kernels — each float expression mirrors its scalar source's
# operator order exactly (see the module docstring's exactness contract).
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnergyTerms:
    """Per-layer dynamic-energy components (``energy.py`` terms), in nJ."""

    adc: np.ndarray
    dac: np.ndarray
    crossbar: np.ndarray
    shift_add: np.ndarray
    adder_tree: np.ndarray
    buffer: np.ndarray
    bus: np.ndarray


def batch_energy_terms(
    batch: MappingBatch, config: HardwareConfig
) -> EnergyTerms:
    """Vectorized ``energy.layer_dynamic_energy`` over every layer."""
    net = batch.net
    phase_factor = net.mvm_ops * config.input_cycles * config.xbars_per_group

    used_cols = batch.used_columns_total
    adc_cols = used_cols + config.idle_line_energy_fraction * (
        batch.allocated_columns_total - used_cols
    )
    used_rows = batch.used_rows_total
    dac_rows = used_rows + config.idle_line_energy_fraction * (
        batch.allocated_rows_total - used_rows
    )
    out_bytes = net.out_channels
    # ``a * b * c`` associates as ``(a * b) * c`` — hoisting the shared
    # ``phase_factor * adc_cols`` product performs the identical ops.
    phase_adc_cols = phase_factor * adc_cols

    # Crossbar and buffer terms depend only on the network's (L,)
    # constants; broadcast them up so an (S, L) batch yields (S, L)
    # terms throughout (identical rows — still bit-exact).
    shape = batch.rows.shape

    def full(term: np.ndarray) -> np.ndarray:
        return term if term.shape == shape else np.broadcast_to(term, shape)

    return EnergyTerms(
        adc=full(phase_adc_cols * config.energy_adc_nj()),
        dac=full(phase_factor * dac_rows * config.energy_dac_nj),
        crossbar=full(phase_factor * net.weight_counts * config.energy_cell_read_nj),
        shift_add=full(phase_adc_cols * config.energy_shift_add_nj),
        adder_tree=full(
            net.mvm_ops * batch.partial_sum_adds * config.energy_adder_nj
        ),
        buffer=full(
            net.mvm_ops * (net.in_bytes + out_bytes) * config.energy_buffer_nj_per_byte
        ),
        bus=full(
            net.mvm_ops
            * (net.in_bytes * batch.col_groups + out_bytes)
            * config.energy_bus_nj_per_byte
        ),
    )


def batch_adc_conversions(
    batch: MappingBatch, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``energy.layer_adc_conversions`` (int64)."""
    return (
        batch.net.mvm_ops
        * batch.used_columns_total
        * config.input_cycles
        * config.xbars_per_group
    )


def batch_dac_conversions(
    batch: MappingBatch, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``energy.layer_dac_conversions`` (int64)."""
    return (
        batch.net.mvm_ops
        * batch.used_rows_total
        * config.input_cycles
        * config.xbars_per_group
    )


def batch_layer_latency_ns(
    batch: MappingBatch, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``latency.layer_latency_ns`` over every layer."""
    net = batch.net
    chain = np.minimum(
        config.adc_sharing, batch.used_columns_per_crossbar_max
    )
    analog_phase = (
        config.latency_dac_ns
        + config.latency_xbar_ns
        + chain * config.latency_adc_ns
        + config.latency_shift_add_ns
    )
    tree = batch.adder_tree_depth * config.latency_adder_ns
    out_bytes = net.out_channels
    movement = (net.in_bytes + out_bytes) * config.latency_buffer_ns_per_byte + (
        net.in_bytes * batch.col_groups + out_bytes
    ) * config.latency_bus_ns_per_byte
    mvm_latency = (
        config.input_cycles * analog_phase
        + tree
        + movement
        + config.latency_control_ns
    )
    return net.mvm_ops * mvm_latency


def batch_tile_area_um2(
    rows: np.ndarray, cols: np.ndarray, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``area.tile_area_um2`` for per-layer crossbar geometry."""
    adcs = np.ceil(cols / config.adc_sharing)
    per_physical = (
        rows * cols * config.area_cell_um2
        + adcs * config.area_adc_um2()
        + rows * config.area_dac_um2
        + adcs * config.area_shift_add_um2
    )
    slot = per_physical * config.xbars_per_group
    return (
        config.logical_xbars_per_tile * slot
        + config.pes_per_tile * config.area_pe_overhead_um2
        + config.area_tile_overhead_um2
    )


def batch_utilization(batch: MappingBatch) -> np.ndarray:
    """Eq. 4 intra-array utilization per layer (``LayerMapping.utilization``)."""
    total_cells = batch.num_crossbars * (batch.rows * batch.cols)
    return batch.net.weight_counts / total_cells


def area_from_layer_runs(
    tile_areas: np.ndarray, counts: Sequence[int] | np.ndarray
) -> float:
    """Total area from per-layer tile areas and surviving tile counts.

    The allocation summary knows how many tiles of each layer survive
    but never materialises them.  Occupied tiles are ordered by tile id,
    i.e. grouped into per-layer runs, so ``np.repeat`` expands each
    layer's tile area ``count`` times (zero counts drop out) and the
    cumsum left-folds the expansion one addition per tile, exactly like
    :func:`~repro.sim.area.allocation_area_um2`'s sum.
    """
    expanded = tile_areas.repeat(counts)
    if expanded.size == 0:
        return 0.0
    return float(expanded.cumsum()[-1])


# ----------------------------------------------------------------------
# Shape tables — per-(network, config) memoised kernel outputs
# ----------------------------------------------------------------------
#
# Every per-layer cost term above is *elementwise* in (layer, shape): no
# term couples two layers or two shapes.  So the full cost surface of a
# network under a candidate set is a (term, shape, layer) table, computed
# once per (network, config) by running the (S, L) batch kernels over
# uniform-shape rows — and evaluating a strategy collapses to one
# fancy-index gather of that table plus the fold kernels.  Gathering
# copies the exact float64 values the kernels produced, so the table path
# is bit-identical to computing each strategy from scratch.

#: Row order of :attr:`ShapeTable.floats` and :attr:`ShapeTable.ints`;
#: :func:`_build_table` stacks the rows in this order.
(_F_ADC, _F_DAC, _F_XBAR, _F_SHIFT, _F_TREE, _F_BUF, _F_BUS,
 _F_LATENCY, _F_AREA, _F_UTIL) = range(10)
(_I_XBARS, _I_ADC_CONV, _I_DAC_CONV) = range(3)


@dataclass(frozen=True, eq=False)
class ShapeTable:
    """Per-layer kernel outputs for every known crossbar shape.

    ``floats`` is ``(10, C, L)`` — the seven dynamic-energy components,
    layer latency, tile area, and Eq. 4 intra-array utilization;
    ``ints`` is ``(3, C, L)`` — crossbar counts and ADC/DAC conversion
    counts.  ``C`` indexes :attr:`shapes`; ``L`` is the layer axis, and
    ``layers`` is ``arange(L)`` for gathering along it.  :attr:`index`
    maps each shape's ``"RxC"`` text (its ``_str`` stash) to its ``C``
    position, so a gather hashes cached strings, never shapes.
    """

    shapes: tuple[CrossbarShape, ...]
    index: dict[str, int]
    floats: np.ndarray
    ints: np.ndarray
    layers: np.ndarray


def _build_table(
    net: NetworkArrays, config: HardwareConfig, shapes: tuple[CrossbarShape, ...]
) -> ShapeTable:
    """Run the (C, L) batch kernels — shape ``c`` uniform across layers."""
    num = len(shapes)
    layers = net.num_layers
    rows = np.broadcast_to(
        np.fromiter((s.rows for s in shapes), np.int64, num)[:, None],
        (num, layers),
    )
    cols = np.broadcast_to(
        np.fromiter((s.cols for s in shapes), np.int64, num)[:, None],
        (num, layers),
    )
    row_groups, col_groups, kernel_split = _group_counts(net, rows, cols)
    batch = MappingBatch(
        net=net,
        rows=rows,
        cols=cols,
        row_groups=row_groups,
        col_groups=col_groups,
        kernel_split=kernel_split,
    )
    terms = batch_energy_terms(batch, config)
    floats = np.stack(
        (
            terms.adc,
            terms.dac,
            terms.crossbar,
            terms.shift_add,
            terms.adder_tree,
            terms.buffer,
            terms.bus,
            batch_layer_latency_ns(batch, config),
            batch_tile_area_um2(batch.rows, batch.cols, config),
            batch_utilization(batch),
        )
    )
    ints = np.stack(
        (
            batch.num_crossbars,
            batch_adc_conversions(batch, config),
            batch_dac_conversions(batch, config),
        )
    )
    return ShapeTable(
        shapes=shapes,
        index={shape._str: i for i, shape in enumerate(shapes)},
        floats=_frozen(floats),
        ints=_frozen(ints),
        layers=_frozen(np.arange(layers)),
    )


def shape_table(
    net: NetworkArrays,
    config: HardwareConfig,
    shapes_needed: Sequence[CrossbarShape],
) -> ShapeTable:
    """The (extended-on-demand) shape table of one ``(net, config)`` pair.

    The table lives in the pair's :func:`network_constants` record.  A
    strategy mentioning an unknown shape triggers a rebuild with the
    union of shapes — immutable snapshots swapped by a single attribute
    assignment, so a concurrent rebuild is a benign lost update (both
    snapshots carry correct values; the loser's extra shapes are
    recomputed on next use).
    """
    record = network_constants(net, config)
    table = record.table
    known = table.index if table is not None else {}
    missing = {s._str: s for s in shapes_needed if s._str not in known}
    if table is None or missing:
        shapes = (table.shapes if table is not None else ()) + tuple(
            missing.values()
        )
        table = _build_table(net, config, shapes)
        record.table = table
    return table


class ScoredStrategy(NamedTuple):
    """One strategy as the batch scorer left it: the base of the next.

    An immutable snapshot of what :func:`score_strategy_batch` derived
    from the strategy that depends on nothing but the strategy, its
    network and config: the shape-table row, the gathered columns, the
    allocation summary and the shapes' text.  A strategy scored after it
    that differs in a few layers reuses them and recomputes those layers;
    no result is ever read from it.  Nothing writes its arrays once the
    batch is scored.
    """

    #: the table :attr:`row` indexes; a later gather reuses the snapshot
    #: only from this very table, so a row means the same shapes
    table: ShapeTable
    tile_shared: bool
    row: list[int]             #: shape-table row
    floats: np.ndarray         #: ``(10, 1, L)`` gathered columns
    ints: np.ndarray           #: ``(3, 1, L)`` gathered columns
    summary: AllocationSummary
    shape_strs: tuple[str, ...]


class ScoringBase:
    """One scorer's slot for the strategy it scored last.

    A :class:`~repro.sim.simulator.Simulator` holds one and passes it to
    every :func:`score_strategy_batch` call: the scorer reads
    :attr:`last` once, diffs its first strategy against it, and swaps in
    the snapshot of its last strategy with one attribute assignment.  The
    slot decides only how much of a result is recomputed, never what the
    result is.
    """

    __slots__ = ("last",)

    def __init__(self) -> None:
        self.last: ScoredStrategy | None = None


def _table_rows(
    strategies: Sequence[Sequence[CrossbarShape]],
    index: dict[str, int],
    base: ScoredStrategy | None,
    layers: int,
) -> tuple[list[list[int]], list[list[int] | None]]:
    """Each strategy's shape-table row, and where it differs from the
    row before it (``base``'s row for the first; ``None``: no base).

    A layer that holds the very shape object its predecessor held has
    its predecessor's row entry; only the other layers are looked up and
    compared.  A strategy with a quarter of its layers or more on other
    objects is looked up in full and gets ``None`` for its changes:
    there, splicing the groups it touches costs about as much as
    regrouping every layer (measured on ResNet152).  Raises ``KeyError``
    on a shape the table lacks.
    """
    rows: list[list[int]] = []
    changes: list[list[int] | None] = []
    span = range(layers)
    prev_shapes, prev_row = (None, None) if base is None else (
        base.summary.shapes_per_layer, base.row
    )
    moved: list[int] = []
    for strategy in strategies:
        if prev_row is not None:
            moved = list(compress(span, map(is_not, strategy, prev_shapes)))
        if prev_row is None or 4 * len(moved) >= layers:
            row = [index[shape._str] for shape in strategy]
            changes.append(None)
        else:
            row = list(prev_row)
            changed = []
            for layer in moved:
                entry = index[strategy[layer]._str]
                if entry != row[layer]:
                    row[layer] = entry
                    changed.append(layer)
            changes.append(changed)
        rows.append(row)
        prev_shapes, prev_row = strategy, row
    return rows, changes


def strategy_view(
    network: Network,
    strategies: Sequence[Sequence[CrossbarShape]],
    config: HardwareConfig,
    *,
    base: ScoredStrategy | None = None,
) -> tuple[
    NetworkArrays,
    ShapeTable,
    list[list[int]],
    list[list[int] | None],
    np.ndarray,
    np.ndarray,
]:
    """Gather a batch's per-layer kernel rows from the shape table.

    Returns ``(net, table, rows, changes, floats, ints)``: the table the
    ``S`` shape-table ``rows`` (lists of ``L`` ints) index; per strategy,
    the ascending layers whose row entry differs from the row before it
    (``base``'s row for the first), or ``None`` where the strategy is
    gathered and summarised in full; and ``floats`` of shape
    ``(10, S, L)`` and ``ints`` of shape ``(3, S, L)`` (row order: the
    ``_F_*`` / ``_I_*`` constants).

    Each strategy's row is built from the row before it (``base``'s for
    the first, when ``base`` indexes the same table): only the layers
    whose shape object changed are looked up (:func:`_table_rows`).
    Shapes are looked up in the table first; only a shape it does not
    know (a ``KeyError``) extends it, once, and then every row is looked
    up in full.  A lone strategy that differs from ``base`` in a few
    layers copies ``base``'s columns and re-gathers those layers;
    otherwise the batch is gathered in one pass.  Every column is a copy
    of a table value, so both give the same bits.
    """
    net = network_arrays(network)
    for strategy in strategies:
        if len(strategy) != net.num_layers:
            raise ValueError(
                f"strategy length {len(strategy)} != layer count "
                f"{net.num_layers}"
            )
    table = network_constants(net, config).table
    if base is not None and base.table is not table:
        base = None
    try:
        if table is None:
            raise KeyError("no shape table yet")
        rows, changes = _table_rows(strategies, table.index, base, net.num_layers)
    except KeyError:
        # Unknown shape, or a network's first gather: extend the table
        # once, then gather from scratch (the base indexes the old table).
        table = shape_table(
            net, config, [s for strategy in strategies for s in strategy]
        )
        base = None
        rows, changes = _table_rows(strategies, table.index, None, net.num_layers)
    lone = changes[0] if len(strategies) == 1 else None
    if base is not None and lone is not None and 16 * len(lone) <= net.num_layers:
        # A lone neighbour: its base's columns with the changed layers
        # re-gathered, one layer at a time.  That beats one full gather
        # up to about L/16 changed layers (ResNet152 and VGG16); a batch
        # is one gather below, which costs less than copying columns row
        # by row.
        floats, ints = base.floats[:, 0].copy(), base.ints[:, 0].copy()
        row = rows[0]
        for layer in lone:
            floats[:, layer] = table.floats[:, row[layer], layer]
            ints[:, layer] = table.ints[:, row[layer], layer]
        return net, table, rows, changes, floats[:, None], ints[:, None]
    idx = np.fromiter(
        chain.from_iterable(rows), np.int64, len(rows) * net.num_layers
    ).reshape(len(rows), net.num_layers)
    return (
        net, table, rows, changes,
        table.floats[:, idx, table.layers],
        table.ints[:, idx, table.layers],
    )


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InfeasibleScore:
    """The verdict on a strategy that overflows the bank.

    The one infeasible verdict of every evaluation path: the batch scorer
    returns it, the evaluation cache stores it, and its ``message`` is
    the text of the :class:`~repro.sim.simulator.CapacityError` that
    :meth:`~repro.sim.simulator.Simulator.evaluate` raises.
    """

    message: str


def capacity_verdict(
    occupied_tiles: int, config: HardwareConfig, *, enforce_capacity: bool
) -> InfeasibleScore | None:
    """The verdict on ``occupied_tiles`` tiles, ``None`` when they fit.

    The one place the capacity message is formatted.
    """
    if enforce_capacity and occupied_tiles > config.tiles_per_bank:
        return InfeasibleScore(
            f"strategy needs {occupied_tiles} tiles; one bank holds "
            f"{config.tiles_per_bank}"
        )
    return None


def _leakage_energy_nj(
    occupied_tiles: np.ndarray | int,
    occupied_slots: np.ndarray | int,
    allocated_cells: np.ndarray | int,
    latency_ns: np.ndarray | float,
    config: HardwareConfig,
) -> np.ndarray | float:
    """``energy.leakage_energy``, elementwise over batch aggregates."""
    group = config.xbars_per_group
    power_nw = (
        occupied_slots * group * config.leak_xbar_nw
        + occupied_tiles * config.leak_tile_nw
        + allocated_cells * group * config.leak_cell_nw
    )
    return power_nw * latency_ns * NW_NS_TO_NJ


def _layer_costs(
    shape_strs: Sequence[str],
    net: NetworkArrays,
    floats: np.ndarray,
    ints: np.ndarray,
) -> tuple[LayerCost, ...]:
    """Per-layer ``LayerCost`` records from gathered ``(10/3, L)`` rows."""
    f = floats.tolist()
    n = ints.tolist()
    layer_indices = net.layer_indices.tolist()
    mvm_ops = net.mvm_ops.tolist()
    return tuple(
        LayerCost(
            layer_index=layer_indices[i],
            shape_str=shape_strs[i],
            mvm_ops=mvm_ops[i],
            num_crossbars=n[_I_XBARS][i],
            adc_conversions=n[_I_ADC_CONV][i],
            dac_conversions=n[_I_DAC_CONV][i],
            energy=EnergyBreakdown(
                adc=f[_F_ADC][i],
                dac=f[_F_DAC][i],
                crossbar=f[_F_XBAR][i],
                shift_add=f[_F_SHIFT][i],
                adder_tree=f[_F_TREE][i],
                buffer=f[_F_BUF][i],
                bus=f[_F_BUS][i],
            ),
            latency_ns=f[_F_LATENCY][i],
            intra_utilization=f[_F_UTIL][i],
        )
        for i in range(net.num_layers)
    )


def strategy_area_um2(
    network: Network,
    config: HardwareConfig,
    shape_strs: tuple[str, ...],
    tile_shared: bool,
) -> float:
    """The area of one scored strategy: a fast-path metric's ``area_um2``.

    :func:`metrics_from_view` defers this to the first read of the field
    (:class:`~repro.sim.metrics.Deferred`), because no search reads area.
    It redoes what the scorer skipped, from the shapes' ``"RxC"`` text:
    the strategy's shape-table row, a full allocation summary and
    :func:`area_from_layer_runs`.  The table only grows, and a shape's
    row holds the same values in every table built for the pair, so a
    read after later strategies grew it gives the bits an eager fold
    would have.
    """
    net = network_arrays(network)
    table = network_constants(net, config).table
    if table is None or not table.index.keys() >= set(shape_strs):
        # The pair's memo was emptied since, or a racing rebuild lost a
        # shape: rebuild the table with the strategy's shapes.
        table = shape_table(
            net, config, [CrossbarShape.parse(s) for s in dict.fromkeys(shape_strs)]
        )
    row = [table.index[s] for s in shape_strs]
    summary = summarize_counts(
        [table.shapes[i] for i in row],
        table.ints[_I_XBARS, row, table.layers].tolist(),
        net.weight_cells_total,
        config.logical_xbars_per_tile,
        tile_shared=tile_shared,
    )
    return area_from_layer_runs(
        table.floats[_F_AREA, row, table.layers], summary.tiles_per_layer
    )


def metrics_from_view(
    network: Network,
    shape_strs: tuple[str, ...],
    net: NetworkArrays,
    summary: AllocationSummary,
    totals: Sequence[float],
    floats: np.ndarray,
    ints: np.ndarray,
    config: HardwareConfig,
    const: _NetworkConstants,
    *,
    tile_shared: bool,
    detailed: bool,
) -> SystemMetrics:
    """One strategy's :class:`SystemMetrics` from its gathered rows.

    The metric-assembly stage of :func:`score_strategy_batch`, the
    vectorized equivalent of ``Simulator._evaluate_reference``'s cost rollup.
    ``shape_strs`` is each layer's ``"RxC"`` text; ``totals`` holds the
    eight folds (seven energy components + dynamic latency);
    ``floats``/``ints`` are the strategy's ``(10, L)`` /
    ``(3, L)`` slices of the :func:`strategy_view` gather; ``const`` is
    the pair's :func:`network_constants` record, resolved once per batch.
    Each rollup is bit-identical to the scalar loop.  The area is left
    to :func:`strategy_area_um2` on its first read; it holds the network,
    config, shape text and ``tile_shared``, never the gathered columns.
    """
    (adc_t, dac_t, xbar_t, shift_t, tree_t, buf_t, bus_t,
     dynamic_latency) = totals
    latency = dynamic_latency + const.pool_latency_ns
    leak = float(
        _leakage_energy_nj(
            summary.occupied_tiles,
            summary.total_crossbar_slots,
            summary.allocated_cells,
            latency,
            config,
        )
    )
    breakdown = EnergyBreakdown(
        adc=adc_t,
        dac=dac_t,
        crossbar=xbar_t,
        shift_add=shift_t,
        adder_tree=tree_t,
        buffer=buf_t,
        bus=bus_t,
        pooling=const.pool_energy_nj,
        leakage=leak,
    )
    layer_costs: tuple[LayerCost, ...] = ()
    if detailed:
        layer_costs = _layer_costs(shape_strs, net, floats, ints)
    return SystemMetrics(
        network_name=network.name,
        strategy=shape_strs,
        utilization=summary.utilization,
        energy_nj=breakdown.total,
        latency_ns=latency,
        area_um2=partial(
            strategy_area_um2, network, config, shape_strs, tile_shared
        ),
        occupied_tiles=summary.occupied_tiles,
        occupied_crossbars=sum(summary.crossbar_counts),
        empty_crossbars=summary.empty_crossbars,
        tile_shared=tile_shared,
        energy_breakdown=breakdown,
        layer_costs=layer_costs,
    )


def score_strategy_batch(
    network: Network,
    strategies: Sequence[Sequence[CrossbarShape]],
    config: HardwareConfig,
    *,
    tile_shared: bool,
    enforce_capacity: bool,
    detailed: bool = False,
    tracer: Tracer = NULL_TRACER,
    base: ScoringBase | None = None,
) -> list[SystemMetrics | InfeasibleScore]:
    """Score a whole candidate batch with ``(S, L)`` array gathers.

    One ``(10, S, L)`` table gather plus one stacked cumsum computes every
    layer cost and fold of every strategy; the allocation summary
    (Algorithm 1's memoised group outcomes) and the final
    :class:`SystemMetrics` assembly stay per-strategy.  Returns one entry
    per strategy, in order: a :class:`SystemMetrics`, or the
    :func:`capacity_verdict` on an overflowing one.

    Each strategy is scored from the one before it: where their table
    rows differ in a few layers, its gathered columns, allocation summary
    and shape text are the previous strategy's with those layers redone
    (:func:`strategy_view`, ``summarize_counts(base=...)``).  The first
    strategy's predecessor is ``base.last``, the last strategy the same
    scorer scored, and the batch's last strategy replaces it.  Every
    energy and latency fold still runs over all L layers, and the area
    is recomputed in full when read, so the results are the bits a
    scorer without a base computes.
    """
    last = None if base is None else base.last
    if last is not None and last.tile_shared != tile_shared:
        last = None
    net, table, rows, changes, floats, ints = strategy_view(
        network, strategies, config, base=last
    )
    const = network_constants(net, config)
    # (8, S) folds — each (strategy, component) row folds independently,
    # so each is the same strict left fold as a scalar ``total += x``.
    totals_rows = left_fold(floats[:_F_AREA]).T.tolist()
    counts_rows = ints[_I_XBARS].tolist()

    capacity = config.logical_xbars_per_tile
    summary = None if last is None else last.summary
    shape_strs: tuple[str, ...] = () if last is None else last.shape_strs
    results: list[SystemMetrics | InfeasibleScore] = []
    for s, strategy in enumerate(strategies):
        changed = changes[s]
        summary = summarize_counts(
            strategy,
            tuple(counts_rows[s]),
            net.weight_cells_total,
            capacity,
            tile_shared=tile_shared,
            tracer=tracer,
            base=None if changed is None else summary,
            changed=changed or (),
        )
        if changed is None:
            shape_strs = tuple([shape._str for shape in strategy])
        elif changed:
            strs = list(shape_strs)
            for layer in changed:
                strs[layer] = strategy[layer]._str
            shape_strs = tuple(strs)
        verdict = capacity_verdict(
            summary.occupied_tiles, config, enforce_capacity=enforce_capacity
        )
        if verdict is not None:
            results.append(verdict)
            continue
        results.append(
            metrics_from_view(
                network,
                shape_strs,
                net,
                summary,
                totals_rows[s],
                floats[:, s],
                ints[:, s],
                config,
                const,
                tile_shared=tile_shared,
                detailed=detailed,
            )
        )
    if base is not None and strategies:
        if len(strategies) > 1:
            # Only the last strategy's columns: the whole gather of a
            # large batch would outlive the batch.
            floats, ints = floats[:, -1:].copy(), ints[:, -1:].copy()
        base.last = ScoredStrategy(
            table, tile_shared, rows[-1], floats, ints, summary, shape_strs
        )
    return results
