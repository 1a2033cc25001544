"""Multi-model tile sharing (extension beyond the paper's evaluation).

§3.4 notes that tiles released by the tile-shared scheme "become available
for other layers in the DNN model *or other models*."  This module takes
that sentence to its conclusion: co-locate several DNNs on one
accelerator, letting Algorithm 1 pack same-shape tiles *across* model
boundaries.

Layer indices are globalised (each model's layers are re-indexed into one
namespace) so the standard :class:`Allocation` machinery and its
invariants apply unchanged; the result records which global index range
belongs to which model, plus the tile savings relative to giving every
model its own accelerator.

:func:`multi_network_tile_counts` answers the same packing question with
two integers and no tiles: Algorithm 1 over per-layer crossbar counts
(:func:`~repro.core.allocation.summary.summarize_counts`).  Callers that
only compare tile counts — the serving re-allocation policy trying
replication vectors — use it; :func:`allocate_multi_network` builds the
deployable plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...arch.config import CrossbarShape
from ...arch.mapping import LayerMapping, map_layer
from ...models.graph import Network
from .summary import summarize_counts
from .tile_based import allocate_tile_based
from .tile_shared import apply_tile_sharing
from .tiles import Allocation


@dataclass(frozen=True)
class ModelSlice:
    """One co-located model's global layer-index range.

    With weight replication the range spans all copies: ``replication``
    consecutive blocks of ``num_layers`` global indices each.
    """

    name: str
    start: int  #: first global layer index (inclusive)
    stop: int   #: one past the last global layer index
    replication: int = 1  #: weight copies packed for this model

    def owns(self, global_index: int) -> bool:
        return self.start <= global_index < self.stop


@dataclass(frozen=True)
class MultiModelAllocation:
    """Several networks packed onto one accelerator."""

    allocation: Allocation
    slices: tuple[ModelSlice, ...]
    #: occupied tiles if each model were allocated separately (same scheme)
    separate_tiles: int

    @property
    def occupied_tiles(self) -> int:
        return self.allocation.occupied_tiles

    @property
    def tiles_saved(self) -> int:
        """Tiles saved by cross-model sharing vs separate accelerators."""
        return self.separate_tiles - self.occupied_tiles

    @property
    def utilization(self) -> float:
        return self.allocation.utilization

    def shared_tiles(self) -> tuple:
        """Tiles hosting layers from more than one model."""
        out = []
        for tile in self.allocation.tiles:
            owners = {
                s.name for idx in tile.occupants for s in self.slices if s.owns(idx)
            }
            if len(owners) > 1:
                out.append(tile)
        return tuple(out)

    def model_tiles(self, name: str) -> int:
        """Tiles holding at least one crossbar of the named model."""
        sl = next((s for s in self.slices if s.name == name), None)
        if sl is None:
            known = ", ".join(repr(s.name) for s in self.slices)
            raise KeyError(f"no model {name!r} in this allocation; known: {known}")
        return sum(
            1
            for tile in self.allocation.tiles
            if any(sl.owns(idx) for idx in tile.occupants)
        )


Workloads = Sequence[tuple[Network, Sequence[CrossbarShape]]]


def _checked_replication(
    workloads: Workloads, replication: Sequence[int] | None
) -> list[int]:
    """Reject what neither packing path accepts; the replication vector."""
    if not workloads:
        raise ValueError("need at least one workload")
    if replication is None:
        replication = [1] * len(workloads)
    if len(replication) != len(workloads):
        raise ValueError("replication length must equal workload count")
    if any(r < 1 for r in replication):
        raise ValueError("replication factors must be >= 1")
    for network, strategy in workloads:
        if len(strategy) != network.num_layers:
            raise ValueError(
                f"{network.name}: strategy length {len(strategy)} != "
                f"{network.num_layers} layers"
            )
    return list(replication)


def _occupied_tiles(
    shapes: Sequence[CrossbarShape],
    counts: Sequence[int],
    tile_capacity: int,
    tile_shared: bool,
) -> int:
    """Tiles Algorithm 1 occupies for per-layer ``(shape, crossbars)``."""
    # Weight cells only feed the summary's utilization, never read here.
    return summarize_counts(
        shapes, counts, 0, tile_capacity, tile_shared=tile_shared
    ).occupied_tiles


def multi_network_tile_counts(
    workloads: Workloads,
    tile_capacity: int,
    *,
    tile_shared: bool = True,
    replication: Sequence[int] | None = None,
) -> tuple[int, int]:
    """``(occupied_tiles, separate_tiles)`` of :func:`allocate_multi_network`.

    The same packing, validation and result integers, computed from each
    layer's crossbar shape and count without building a tile: model
    ``m``'s per-layer list is repeated ``replication[m]`` times, and the
    concatenation (and each model on its own, for ``separate_tiles``) goes
    through :func:`~repro.core.allocation.summary.summarize_counts`, whose
    parity with the materialised Algorithm 1 is property-tested.
    """
    replication = _checked_replication(workloads, replication)
    shapes: list[CrossbarShape] = []
    counts: list[int] = []
    separate = 0
    for (network, strategy), reps in zip(workloads, replication):
        strategy = tuple(strategy)
        model_shapes = strategy * reps
        model_counts = tuple(
            map_layer(layer, shape).num_crossbars
            for layer, shape in zip(network.layers, strategy)
        ) * reps
        separate += _occupied_tiles(
            model_shapes, model_counts, tile_capacity, tile_shared
        )
        shapes.extend(model_shapes)
        counts.extend(model_counts)
    occupied = _occupied_tiles(shapes, counts, tile_capacity, tile_shared)
    return occupied, separate


def allocate_multi_network(
    workloads: Workloads,
    tile_capacity: int,
    *,
    tile_shared: bool = True,
    replication: Sequence[int] | None = None,
) -> MultiModelAllocation:
    """Map several (network, strategy) pairs onto one accelerator.

    Each model keeps its own per-layer crossbar strategy; the allocator
    treats the concatenation as one big layer list, so Algorithm 1 can
    merge sparsely-filled tiles across models (it only ever merges tiles
    of identical crossbar geometry, as always).

    ``replication[m]`` packs that many full weight copies of model ``m``
    (PipeLayer-style duplication, see :mod:`repro.sim.pipeline`); each
    copy gets its own global layer-index block so the plan invariants
    hold unchanged, and the model's :class:`ModelSlice` spans all copies.
    A serving re-allocation packs this way when a tenant needs more
    pipeline bandwidth.  ``separate_tiles`` comes from per-layer counts,
    as in :func:`multi_network_tile_counts`.
    """
    replication = _checked_replication(workloads, replication)
    mappings: list[LayerMapping] = []
    slices: list[ModelSlice] = []
    offset = 0
    separate = 0
    for (network, strategy), reps in zip(workloads, replication):
        model_mappings = [
            map_layer(
                layer.with_index(offset + copy * network.num_layers + i),
                shape,
            )
            for copy in range(reps)
            for i, (layer, shape) in enumerate(zip(network.layers, strategy))
        ]
        mappings.extend(model_mappings)
        slices.append(
            ModelSlice(
                network.name,
                offset,
                offset + reps * network.num_layers,
                replication=reps,
            )
        )
        offset += reps * network.num_layers
        separate += _occupied_tiles(
            [m.shape for m in model_mappings],
            [m.num_crossbars for m in model_mappings],
            tile_capacity,
            tile_shared,
        )

    combined = allocate_tile_based(mappings, tile_capacity)
    if tile_shared:
        combined = apply_tile_sharing(combined)
    return MultiModelAllocation(
        allocation=combined,
        slices=tuple(slices),
        separate_tiles=separate,
    )
