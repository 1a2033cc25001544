"""The conventional tile-based allocation baseline (§2.2.2).

Existing accelerators use the tile as the minimum allocation unit and allow
each tile to hold kernels of a *single* DNN layer only.  A layer needing
``n`` crossbars therefore receives ``ceil(n / capacity)`` whole tiles, and
every slot beyond ``n`` in those tiles is wasted — the crossbar wastage
Fig. 4 quantifies and the tile-shared scheme (§3.4) removes.
"""

from __future__ import annotations

import math
from typing import Sequence

from ...arch.mapping import LayerMapping
from .tiles import Allocation, Tile


def allocate_tile_based(
    mappings: Sequence[LayerMapping], tile_capacity: int
) -> Allocation:
    """Allocate whole tiles per layer, one layer per tile.

    Parameters
    ----------
    mappings:
        One :class:`LayerMapping` per network layer, in layer order.
    tile_capacity:
        Logical crossbar slots per tile
        (:attr:`HardwareConfig.logical_xbars_per_tile`).
    """
    if tile_capacity <= 0:
        raise ValueError("tile_capacity must be positive")
    tiles: list[Tile] = []
    next_id = 0
    for mapping in mappings:
        remaining = mapping.num_crossbars
        while remaining > 0:
            take = min(remaining, tile_capacity)
            tile = Tile(
                tile_id=next_id, shape=mapping.shape, capacity=tile_capacity
            )
            tile.add(mapping.layer.index, take)
            tiles.append(tile)
            next_id += 1
            remaining -= take
    allocation = Allocation(
        mappings=tuple(mappings), tiles=tuple(tiles), tile_capacity=tile_capacity
    )
    allocation.validate()
    return allocation


def layer_tiles_needed(mapping: LayerMapping, tile_capacity: int) -> int:
    """Whole tiles the baseline hands to one layer (round-up rule)."""
    return math.ceil(mapping.num_crossbars / tile_capacity)


def layer_empty_fraction(mapping: LayerMapping, tile_capacity: int) -> float:
    """Fraction of a layer's allocated crossbar slots left empty (Fig. 4)."""
    slots = layer_tiles_needed(mapping, tile_capacity) * tile_capacity
    return (slots - mapping.num_crossbars) / slots
