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

A summary keeps its groups (members, counts and Algorithm 1 outcome), so
a strategy that differs from an already summarised one in a few layers is
summarised from it: only the groups those layers leave and join are
spliced and looked up again, and every other group's integers and
per-layer tile counts carry over.  A full summary is the same update
applied to an empty base, so there is one grouping implementation
(``tests/allocation/test_summary.py`` checks the update against a fresh
summary over chains of edits).

Bit-for-bit parity with the materialised path is part of the contract
(``tests/allocation/test_summary.py`` checks it property-style): every
integer aggregate is identical, and the per-layer surviving counts are
ordered so that :func:`~repro.sim.kernels.area_from_layer_runs` reproduces
:func:`~repro.sim.area.allocation_area_um2`'s float fold exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from ...arch.config import CrossbarShape
from ...obs import metrics as obs_metrics
from ...obs.trace import NULL_TRACER, Tracer


#: One same-shape group of a tile-shared summary and its Algorithm 1
#: outcome, which a later :func:`summarize_counts` carries over or
#: splices: ``(members, counts, surviving, empty, tiles)`` — the ascending
#: layer positions, each member's crossbar count and surviving tile
#: count, the empty slots left after sharing, and the occupied tiles.
#: A plain tuple, because a full summary builds one per group.
SharedGroup = tuple[list[int], tuple[int, ...], tuple[int, ...], int, int]


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
    #: crossbar count per layer, in layer order.  With :attr:`groups`,
    #: the base a later :func:`summarize_counts` updates; not compared.
    crossbar_counts: tuple[int, ...] = field(default=(), compare=False, repr=False)
    #: tile-shared only: each same-shape group (:data:`SharedGroup`) by
    #: its ``"RxC"`` text, in no particular order (``None`` without
    #: sharing).  Neither the mapping nor a member list is mutated once
    #: the summary is built: a later summary copies what it changes.
    groups: Mapping[str, SharedGroup] | None = field(
        default=None, compare=False, repr=False
    )

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
    base: AllocationSummary | None = None,
    changed: Sequence[int] = (),
) -> AllocationSummary:
    """Aggregate allocation outcome from per-layer counts alone.

    Produces the same numbers as ``allocate_tile_based`` (optionally
    followed by ``apply_tile_sharing``) without materialising tiles:
    everything the aggregates need is the per-layer crossbar shape, the
    per-layer logical crossbar count, and the total weight-cell count — no
    :class:`~repro.arch.mapping.LayerMapping` objects.  This is the entry
    point the vectorized batch scorer (``repro.sim.kernels``) uses, where
    group counts live in NumPy arrays and mappings are never materialised.

    ``base`` is a summary this function made for the same layers (same
    network, capacity and ``tile_shared``) whose shapes and counts
    differ from these only at the ascending positions ``changed``.  Only
    the same-shape groups those layers leave and join are recomputed;
    every other group's aggregates and per-layer tile counts carry over.
    Without a base, every layer is changed against an empty one, so a
    full summary and an incremental one run the same update.  With an
    enabled ``tracer``, emits one
    ``alloc.group`` event per same-shape group, in order of first
    appearance, recording Algorithm 1's occupancy delta.  The tracer never
    reaches the memoised group function — group outcomes stay keyed on
    ``(capacity, counts)`` alone.
    """
    if tile_capacity <= 0:
        raise ValueError("tile_capacity must be positive")
    if len(shapes) != len(crossbar_counts):
        raise ValueError(
            f"{len(shapes)} shapes vs {len(crossbar_counts)} crossbar counts"
        )
    shapes = tuple(shapes)
    counts = tuple(crossbar_counts)
    if base is None:
        changed = range(len(shapes))
        tiles_per_layer = [0] * len(shapes)
        totals = (0, 0, 0)
    else:
        if (
            base.tile_capacity != tile_capacity
            or len(base.shapes_per_layer) != len(shapes)
            or (base.groups is not None) != tile_shared
        ):
            raise ValueError(
                "base summary differs in capacity, layer count or tile sharing"
            )
        tiles_per_layer = list(base.tiles_per_layer)
        totals = (base.occupied_tiles, base.empty_crossbars, base.allocated_cells)
    groups = None
    if tile_shared:
        groups, totals = _update_groups(
            shapes, counts, tile_capacity, base, changed, tiles_per_layer, totals
        )
        if tracer.enabled:
            _trace_groups(tracer, groups, tile_capacity)
    else:
        totals = _update_layers(
            shapes, counts, tile_capacity, base, changed, tiles_per_layer, totals
        )
    occupied, empty, cells = totals
    return AllocationSummary(
        tile_capacity=tile_capacity,
        occupied_tiles=occupied,
        empty_crossbars=empty,
        allocated_cells=cells,
        weight_cells=weight_cells,
        tiles_per_layer=tuple(tiles_per_layer),
        shapes_per_layer=shapes,
        crossbar_counts=counts,
        groups=groups,
    )


def _update_groups(
    shapes: tuple[CrossbarShape, ...],
    counts: tuple[int, ...],
    capacity: int,
    base: AllocationSummary | None,
    changed: Iterable[int],
    tiles_per_layer: list[int],
    totals: tuple[int, int, int],
) -> tuple[dict[str, SharedGroup], tuple[int, int, int]]:
    """Algorithm 1 over the same-shape groups the ``changed`` layers touch.

    Groups are keyed on each shape's ``"RxC"`` text: a string hashes from
    its own cache, where a shape would run Python code per layer.  Each
    base group a changed layer leaves or joins gives back its share of
    the totals, and its member and count lists are spliced.  A group the
    base lacks is built in layer order — without a base every group is,
    which is the grouping ``apply_tile_sharing`` derives from the tile
    list.  Every touched group's outcome then comes from the memoised
    :func:`_shared_group_summary` and is added in.  Every total is an
    integer, so giving a share back is exact.  Writes the touched
    members' surviving counts into ``tiles_per_layer``.
    """
    occupied, empty, cells = totals
    joined: dict[str, list[int]] = {}
    for pos in changed:
        joined.setdefault(shapes[pos]._str, []).append(pos)
    # (key, members, counts, and for a spliced group the base's surviving
    # counts of its members, a joining member's slot still unset)
    updates: list[tuple[str, list[int], tuple[int, ...], list[int] | None]]
    if base is None:
        groups: dict[str, SharedGroup] = {}
        updates = [
            (key, members, tuple([counts[pos] for pos in members]), None)
            for key, members in joined.items()
        ]
    else:
        groups = dict(base.groups or {})
        old_shapes = base.shapes_per_layer
        left: dict[str, list[int]] = {}
        for pos in changed:
            left.setdefault(old_shapes[pos]._str, []).append(pos)
        updates = []
        for key in joined.keys() | left.keys():
            old = groups.pop(key, None)
            if old is None:
                members = joined[key]
                updates.append(
                    (key, members, tuple([counts[pos] for pos in members]), None)
                )
                continue
            old_members, old_counts, old_surviving, old_empty, old_tiles = old
            occupied -= old_tiles
            empty -= old_empty
            cells -= old_tiles * capacity * old_shapes[old_members[0]].cells
            members = list(old_members)
            group_counts = list(old_counts)
            kept = list(old_surviving)
            for pos in left.get(key, ()):
                at = bisect_left(members, pos)
                del members[at]
                del group_counts[at]
                del kept[at]
            for pos in joined.get(key, ()):
                at = bisect_left(members, pos)
                members.insert(at, pos)
                group_counts.insert(at, counts[pos])
                kept.insert(at, -1)
            if members:
                updates.append((key, members, tuple(group_counts), kept))
    for key, members, group_counts, kept in updates:
        surviving, group_empty = _shared_group_summary(capacity, group_counts)
        group_tiles = sum(surviving)
        groups[key] = (members, group_counts, surviving, group_empty, group_tiles)
        occupied += group_tiles
        empty += group_empty
        cells += group_tiles * capacity * shapes[members[0]].cells
        if kept is not None:
            # Members that stayed hold the base's counts already.  Most
            # often Algorithm 1 leaves them all as they were, and only
            # the joining members need writing.
            for pos in joined.get(key, ()):
                at = bisect_left(members, pos)
                kept[at] = tiles_per_layer[pos] = surviving[at]
            if tuple(kept) == surviving:
                continue
        for pos, count in zip(members, surviving):
            tiles_per_layer[pos] = count
    # Note: merged tiles survive under the *head* tile's id.  A head
    # belongs to the layer that created it, so per-layer counts stay
    # attributable even after absorption.
    return groups, (occupied, empty, cells)


def _update_layers(
    shapes: tuple[CrossbarShape, ...],
    counts: tuple[int, ...],
    capacity: int,
    base: AllocationSummary | None,
    changed: Iterable[int],
    tiles_per_layer: list[int],
    totals: tuple[int, int, int],
) -> tuple[int, int, int]:
    """Plain tile-based allocation of the ``changed`` layers: each layer
    owns its own tiles, so a change swaps that layer's share of the
    integer totals and nothing else."""
    occupied, empty, cells = totals
    if base is not None:
        old_shapes, old_counts = base.shapes_per_layer, base.crossbar_counts
        for pos in changed:
            full, rem = divmod(old_counts[pos], capacity)
            count = full + (1 if rem else 0)
            occupied -= count
            if rem:
                empty -= capacity - rem
            cells -= count * capacity * old_shapes[pos].cells
    for pos in changed:
        full, rem = divmod(counts[pos], capacity)
        count = full + (1 if rem else 0)
        tiles_per_layer[pos] = count
        occupied += count
        if rem:
            empty += capacity - rem
        cells += count * capacity * shapes[pos].cells
    return occupied, empty, cells


def _trace_groups(
    tracer: Tracer, groups: Mapping[str, SharedGroup], capacity: int
) -> None:
    """One ``alloc.group`` event per group, in order of first appearance."""
    for shape_str, (members, counts, _, empty, tiles) in sorted(
        groups.items(), key=lambda item: item[1][0][0]
    ):
        before = sum(-(-count // capacity) for count in counts)
        tracer.event(
            obs_metrics.EVENT_ALLOC_GROUP,
            mode="summary",
            shape=shape_str,
            layers=len(members),
            tiles_before=before,
            tiles_after=tiles,
            released=before - tiles,
            empty_slots=empty,
        )


def summary_cache_info():
    """Memoisation statistics of the shared-group cache (diagnostics)."""
    return _shared_group_summary.cache_info()


def clear_summary_cache() -> None:
    """Drop the shared-group memo (tests / long-lived processes)."""
    _shared_group_summary.cache_clear()
