"""The heterogeneous accelerator object model.

:class:`HeterogeneousAccelerator` instantiates hardware tiles from an
:class:`~repro.core.allocation.tiles.Allocation`, programs every layer's
offset-encoded weight blocks into PE slots, and executes per-layer MVMs by
driving the physical crossbars — the end-to-end physical realisation of
the mapping, at per-crossbar granularity.

The placement is deterministic: tiles are walked in id order, and each
tile's occupant count for a layer consumes that layer's blocks in
(row_group, col_group) row-major order.  This mirrors exactly what the
Global Controller's LOAD phase would stream over the bus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.allocation.tiles import Allocation
from ..sim.quantization import offset_encode
from .config import DEFAULT_CONFIG, HardwareConfig
from .mapping import LayerMapping
from .peripherals import AdderTree
from .tile import BlockAssignment, HardwareTile


@dataclass(frozen=True)
class BlockLocation:
    """Where one (row_group, col_group) block of a layer physically lives."""

    tile_id: int
    pe_id: int
    row_group: int
    col_group: int


@dataclass(frozen=True)
class _RowSegment:
    """A contiguous slice of the unfolded weight-matrix rows (one rg)."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def _row_segments(mapping: LayerMapping) -> list[_RowSegment]:
    """Contiguous weight-matrix row ranges per crossbar row group."""
    layer = mapping.layer
    total = layer.in_channels * layer.kernel_elems
    segments = []
    if not mapping.kernel_split:
        slices = mapping.shape.rows // layer.kernel_elems
        step = slices * layer.kernel_elems
    else:
        step = mapping.shape.rows
    for start in range(0, total, step):
        segments.append(_RowSegment(start, min(start + step, total)))
    assert len(segments) == mapping.row_groups
    return segments


class HeterogeneousAccelerator:
    """Physical tiles programmed per an allocation, ready for inference."""

    def __init__(
        self,
        allocation: Allocation,
        weight_matrices_q: dict[int, np.ndarray],
        config: HardwareConfig = DEFAULT_CONFIG,
    ) -> None:
        """Build tiles and program quantized weights.

        ``weight_matrices_q`` maps layer index -> signed integer unfolded
        weight matrix (``Cin * k^2`` rows by ``Cout`` columns).
        """
        self.allocation = allocation
        self.config = config
        self.mappings: dict[int, LayerMapping] = {
            m.layer.index: m for m in allocation.mappings
        }
        self.tiles: dict[int, HardwareTile] = {}
        self.block_locations: dict[int, list[BlockLocation]] = {
            idx: [] for idx in self.mappings
        }
        self.adder_tree = AdderTree()
        self._segments = {
            idx: _row_segments(m) for idx, m in self.mappings.items()
        }
        self._encoded = {}
        for idx, mapping in self.mappings.items():
            wq = np.asarray(weight_matrices_q[idx], dtype=np.int64)
            expect = (
                mapping.layer.in_channels * mapping.layer.kernel_elems,
                mapping.layer.out_channels,
            )
            if wq.shape != expect:
                raise ValueError(
                    f"layer {idx}: weight matrix {wq.shape} != {expect}"
                )
            self._encoded[idx] = offset_encode(wq, config.weight_bits)

        self._program_all()

    # ------------------------------------------------------------------
    def _program_all(self) -> None:
        # Per-layer iterator over (rg, cg) block coordinates.
        cursors = {idx: 0 for idx in self.mappings}
        for tile_spec in self.allocation.tiles:
            if tile_spec.occupied == 0:
                continue
            if tile_spec.capacity != self.config.pes_per_tile:
                raise ValueError(
                    "allocation tile capacity does not match the hardware "
                    f"config ({tile_spec.capacity} != {self.config.pes_per_tile})"
                )
            tile = HardwareTile(tile_spec.tile_id, tile_spec.shape, self.config)
            self.tiles[tile_spec.tile_id] = tile
            next_pe = 0
            for layer_index in sorted(tile_spec.occupants):
                count = tile_spec.occupants[layer_index]
                mapping = self.mappings[layer_index]
                encoded = self._encoded[layer_index]
                segments = self._segments[layer_index]
                cols = mapping.shape.cols
                for _ in range(count):
                    block_no = cursors[layer_index]
                    cursors[layer_index] += 1
                    rg, cg = divmod(block_no, mapping.col_groups)
                    seg = segments[rg]
                    c0 = cg * cols
                    c1 = min(c0 + cols, mapping.layer.out_channels)
                    block = encoded[seg.start : seg.stop, c0:c1]
                    assignment = BlockAssignment(
                        layer_index=layer_index,
                        row_group=rg,
                        col_group=cg,
                        rows_used=seg.size,
                        cols_used=c1 - c0,
                    )
                    tile.assign_block(next_pe, assignment, block)
                    self.block_locations[layer_index].append(
                        BlockLocation(tile_spec.tile_id, next_pe, rg, cg)
                    )
                    next_pe += 1
        for idx, mapping in self.mappings.items():
            placed = len(self.block_locations[idx])
            if placed != mapping.num_crossbars:
                raise RuntimeError(
                    f"layer {idx}: programmed {placed} of "
                    f"{mapping.num_crossbars} blocks"
                )

    # ------------------------------------------------------------------
    def layer_mvm(self, layer_index: int, x_q: np.ndarray) -> np.ndarray:
        """Exact integer MVM of one unsigned input vector through a layer.

        Drives every physical block of the layer, merges row-group partial
        sums through the adder tree, and removes the offset-encoding term.
        Returns ``x_q @ Wq`` (int64) when the ADCs never saturate.
        """
        mapping = self.mappings[layer_index]
        layer = mapping.layer
        x = np.asarray(x_q, dtype=np.int64)
        total_rows = layer.in_channels * layer.kernel_elems
        if x.shape != (total_rows,):
            raise ValueError(f"input shape {x.shape} != ({total_rows},)")
        segments = self._segments[layer_index]
        partials = np.zeros(
            (mapping.row_groups, layer.out_channels), dtype=np.int64
        )
        for loc in self.block_locations[layer_index]:
            tile = self.tiles[loc.tile_id]
            seg = segments[loc.row_group]
            out = tile.mvm_block(loc.pe_id, x[seg.start : seg.stop])
            c0 = loc.col_group * mapping.shape.cols
            partials[loc.row_group, c0 : c0 + out.size] += out
        merged = self.adder_tree.reduce(partials)
        offset = 1 << (self.config.weight_bits - 1)
        return merged - offset * int(x.sum())

    # ------------------------------------------------------------------
    @property
    def occupied_tiles(self) -> int:
        return len(self.tiles)

    def utilization(self) -> float:
        """Physically-measured utilization: programmed cells over all cells
        in instantiated tiles (should equal ``allocation.utilization``)."""
        used = sum(
            pe.used_cells for tile in self.tiles.values() for pe in tile.pes
        )
        total = sum(
            tile.capacity * tile.shape.cells for tile in self.tiles.values()
        )
        return used / total if total else 0.0
