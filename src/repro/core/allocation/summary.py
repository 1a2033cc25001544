"""Aggregate allocation summaries — the simulator's hot-path shortcut.

:func:`allocate_tile_based` + :func:`apply_tile_sharing` materialise one
:class:`~repro.core.allocation.tiles.Tile` object per allocated tile and
re-validate every structural invariant — the right thing for a deployable
plan, and by far the most expensive step of
:meth:`~repro.sim.simulator.Simulator.evaluate` (a VGG16 strategy can
allocate thousands of tiles).  The system-level cost models, however, only
consume *aggregates*: occupied-tile count, empty-slot count, allocated
cells, and the per-layer surviving-tile counts that drive the area roll-up.

This module computes exactly those aggregates without building tiles.
Algorithm 1's merge decisions depend only on each same-shape group's
multiset of per-tile empty counts, so the group outcome is memoised on
``(capacity, per-layer crossbar counts)`` — shared across every strategy
(and every crossbar shape) that produces the same group composition, which
is how the annealing / coordinate-ascent / RL loops re-pay each other's
work.

Bit-for-bit parity with the materialised path is part of the contract
(``tests/allocation/test_summary.py`` checks it property-style): every
integer aggregate is identical, and the per-layer surviving counts are
ordered so that :func:`~repro.sim.area.area_from_tile_runs` reproduces
:func:`~repro.sim.area.allocation_area_um2`'s float fold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ...arch.config import CrossbarShape
from ...arch.mapping import LayerMapping
from ...obs import metrics as obs_metrics
from ...obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class AllocationSummary:
    """The aggregate view of one allocation (materialised or not)."""

    tile_capacity: int
    occupied_tiles: int        #: tiles holding at least one crossbar
    empty_crossbars: int       #: free slots inside occupied tiles
    allocated_cells: int       #: logical cells inside occupied tiles
    weight_cells: int          #: cells actually storing weights
    #: surviving (occupied) tile count per layer, in layer order — the
    #: tile-id-ordered runs the area model folds over.
    tiles_per_layer: tuple[int, ...]
    #: crossbar shape per layer, in layer order (parallel to
    #: :attr:`tiles_per_layer`).
    shapes_per_layer: tuple[CrossbarShape, ...]

    @property
    def total_crossbar_slots(self) -> int:
        """All crossbar slots inside occupied tiles."""
        return self.occupied_tiles * self.tile_capacity

    @property
    def utilization(self) -> float:
        """Weight cells over allocated cells (Fig. 5's combined metric)."""
        return (
            self.weight_cells / self.allocated_cells
            if self.allocated_cells
            else 0.0
        )


@lru_cache(maxsize=65536)
def _shared_group_summary(
    capacity: int, counts: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """Algorithm 1 outcome for one same-shape tile group.

    ``counts`` holds the crossbar count of each layer in the group, in
    layer (= tile-id) order.  Returns ``(surviving tile count per layer,
    total empty slots after sharing)``.  The merge plan only needs each
    tile's empty count, so this reproduces
    :func:`~repro.core.allocation.tile_shared.plan_tile_sharing` —
    including its stable sort and two-pointer walk — on plain integers.

    Full tiles are never touched by the merge: a partial tile's empty
    count is ``capacity - rem`` with ``rem >= 1``, so it is strictly below
    ``capacity``, and the stable ascending sort puts every zero-empty full
    tile at the head, where ``0 + tail_empties >= capacity`` can never
    hold — the head pointer just walks past them.  The walk therefore runs
    on the at-most-one partial tile per layer (``<= len(counts)`` items)
    instead of the full tile expansion, which for a VGG16-sized strategy
    is thousands of tiles.  Bit-identical by construction (stability keeps
    the partial tiles' relative order unchanged when the zero prefix is
    dropped); ``tests/allocation/test_summary.py`` pins the parity against
    the materialised ``plan_tile_sharing`` path.
    """
    surviving = [0] * len(counts)
    partial_pos: list[int] = []
    partial_empty: list[int] = []
    for pos, n in enumerate(counts):
        full, rem = divmod(n, capacity)
        surviving[pos] = full
        if rem:
            partial_pos.append(pos)
            partial_empty.append(capacity - rem)
    # Algorithm 1, lines 2-4: stable-sort ascending by empty count, then
    # merge tail tiles (most empties) into head tiles (fewest).
    order = sorted(range(len(partial_empty)), key=partial_empty.__getitem__)
    work = [partial_empty[i] for i in order]
    released = [False] * len(work)
    head, tail = 0, len(work) - 1
    while head < tail:
        if work[head] + work[tail] >= capacity:
            work[head] += work[tail] - capacity
            work[tail] = 0
            released[tail] = True
            tail -= 1
        else:
            head += 1
    empty_total = 0
    for sorted_pos, orig in enumerate(order):
        if not released[sorted_pos]:
            surviving[partial_pos[orig]] += 1
            empty_total += work[sorted_pos]
    return tuple(surviving), empty_total


def summarize_counts(
    shapes: Sequence[CrossbarShape],
    crossbar_counts: Sequence[int],
    weight_cells: int,
    tile_capacity: int,
    *,
    tile_shared: bool,
    tracer: Tracer = NULL_TRACER,
) -> AllocationSummary:
    """Aggregate allocation outcome from per-layer counts alone.

    The counts-based core of :func:`summarize_allocation`: everything the
    aggregates need is the per-layer crossbar shape, the per-layer logical
    crossbar count, and the total weight-cell count — no
    :class:`~repro.arch.mapping.LayerMapping` objects.  This is the entry
    point the vectorized batch scorer (``repro.sim.kernels``) uses, where
    group counts live in NumPy arrays and mappings are never materialised.
    With an enabled ``tracer``, emits one ``alloc.group`` event per
    same-shape group recording Algorithm 1's occupancy delta.  The tracer
    never reaches the memoised group function — group outcomes stay keyed
    on ``(capacity, counts)`` alone.
    """
    if tile_capacity <= 0:
        raise ValueError("tile_capacity must be positive")
    if len(shapes) != len(crossbar_counts):
        raise ValueError(
            f"{len(shapes)} shapes vs {len(crossbar_counts)} crossbar counts"
        )
    shapes = tuple(shapes)
    tiles_per_layer = [0] * len(shapes)
    occupied = 0
    empty = 0
    cells = 0
    if tile_shared:
        # Group layers by crossbar geometry, preserving layer order — the
        # same grouping apply_tile_sharing derives from the tile list.
        # Keyed on each shape's "RxC" text: a string hashes from its own
        # cache, where a shape would run Python code per layer.
        groups: dict[str, list[int]] = {}
        for pos, shape in enumerate(shapes):
            groups.setdefault(shape._str, []).append(pos)
        for shape_str, members in groups.items():
            shape = shapes[members[0]]
            counts = tuple([crossbar_counts[pos] for pos in members])
            surviving, empty_total = _shared_group_summary(
                tile_capacity, counts
            )
            group_tiles = sum(surviving)
            occupied += group_tiles
            empty += empty_total
            cells += group_tiles * tile_capacity * shape.cells
            for pos, count in zip(members, surviving):
                tiles_per_layer[pos] = count
            if tracer.enabled:
                before = sum(
                    -(-count // tile_capacity) for count in counts
                )
                tracer.event(
                    obs_metrics.EVENT_ALLOC_GROUP,
                    mode="summary",
                    shape=shape_str,
                    layers=len(members),
                    tiles_before=before,
                    tiles_after=group_tiles,
                    released=before - group_tiles,
                    empty_slots=empty_total,
                )
        # Note: merged tiles survive under the *head* tile's id.  A head
        # belongs to the layer that created it, so per-layer counts stay
        # attributable even after absorption.
    else:
        for pos, shape in enumerate(shapes):
            full, rem = divmod(crossbar_counts[pos], tile_capacity)
            count = full + (1 if rem else 0)
            tiles_per_layer[pos] = count
            occupied += count
            if rem:
                empty += tile_capacity - rem
            cells += count * tile_capacity * shape.cells
    return AllocationSummary(
        tile_capacity=tile_capacity,
        occupied_tiles=occupied,
        empty_crossbars=empty,
        allocated_cells=cells,
        weight_cells=weight_cells,
        tiles_per_layer=tuple(tiles_per_layer),
        shapes_per_layer=shapes,
    )


def summarize_allocation(
    mappings: Sequence[LayerMapping],
    tile_capacity: int,
    *,
    tile_shared: bool,
    tracer: Tracer = NULL_TRACER,
) -> AllocationSummary:
    """Aggregate allocation outcome for one mapped strategy.

    Produces the same numbers as ``allocate_tile_based`` (optionally
    followed by ``apply_tile_sharing``) without materialising tiles.
    A thin wrapper over :func:`summarize_counts`.
    """
    return summarize_counts(
        tuple(m.shape for m in mappings),
        tuple(m.num_crossbars for m in mappings),
        sum(m.weight_cells for m in mappings),
        tile_capacity,
        tile_shared=tile_shared,
        tracer=tracer,
    )


def summary_cache_info():
    """Memoisation statistics of the shared-group cache (diagnostics)."""
    return _shared_group_summary.cache_info()


def clear_summary_cache() -> None:
    """Drop the shared-group memo (tests / long-lived processes)."""
    _shared_group_summary.cache_clear()
