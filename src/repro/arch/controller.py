"""The Global Controller (GC) and its instruction stream (§3.1).

The GC decodes CPU-side decisions (the RL strategy and the tile-shared
remap plan) into tile-level operations: weight loads, input broadcasts,
MVM triggers, partial-sum merges, pooling, and inter-tile moves.  The
paper keeps the GC abstract ("receives instructions and signals the
input/output buffer and tiles through the bus"); we realise it as an
instruction-trace generator whose counts the tests check against the
analytic model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from ..core.allocation.tiles import Allocation
from ..models.graph import Network
from .config import DEFAULT_CONFIG, HardwareConfig


class Opcode(enum.Enum):
    """GC instruction set."""

    LOAD_WEIGHTS = "load_weights"   #: program one weight block into a PE
    FETCH_INPUT = "fetch_input"     #: read an input vector from the buffer
    BROADCAST = "broadcast"         #: drive an input segment to a tile
    MVM = "mvm"                     #: trigger one PE's analog evaluation
    MERGE = "merge"                 #: adder-tree merge of row-group partials
    POOL = "pool"                   #: pooling-module pass
    STORE_OUTPUT = "store_output"   #: write results to the output buffer
    MOVE = "move"                   #: tile-shared remap: move a block


@dataclass(frozen=True)
class Instruction:
    """One decoded GC instruction."""

    opcode: Opcode
    layer_index: int = -1
    tile_id: int = -1
    pe_id: int = -1
    size: int = 0       #: payload size (bytes or elements, per opcode)

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.layer_index >= 0:
            parts.append(f"L{self.layer_index + 1}")
        if self.tile_id >= 0:
            parts.append(f"tile{self.tile_id}")
        if self.pe_id >= 0:
            parts.append(f"pe{self.pe_id}")
        if self.size:
            parts.append(f"[{self.size}]")
        return " ".join(parts)


@dataclass  # stateful: accumulates the emitted instruction stream
class GlobalController:
    """Generates the instruction stream for mapping and inference."""

    allocation: Allocation
    network: Network
    config: HardwareConfig = DEFAULT_CONFIG

    def _layer_blocks(self) -> dict[int, list[tuple[int, int]]]:
        """(tile_id, pe_slot) per block, in programming order per layer."""
        blocks: dict[int, list[tuple[int, int]]] = {
            m.layer.index: [] for m in self.allocation.mappings
        }
        for tile in self.allocation.tiles:
            next_pe = 0
            for layer_index in sorted(tile.occupants):
                for _ in range(tile.occupants[layer_index]):
                    blocks[layer_index].append((tile.tile_id, next_pe))
                    next_pe += 1
        return blocks

    # ------------------------------------------------------------------
    def mapping_program(self) -> list[Instruction]:
        """The LOAD phase: one weight-load instruction per physical block,
        plus one MOVE per tile absorbed by the tile-shared remap."""
        instructions: list[Instruction] = []
        mappings = {m.layer.index: m for m in self.allocation.mappings}
        for layer_index, blocks in self._layer_blocks().items():
            cells = mappings[layer_index].shape.cells
            for tile_id, pe_id in blocks:
                instructions.append(
                    Instruction(
                        Opcode.LOAD_WEIGHTS,
                        layer_index=layer_index,
                        tile_id=tile_id,
                        pe_id=pe_id,
                        size=cells * self.config.weight_bits // 8,
                    )
                )
        for head_id, absorbed in self.allocation.comb_map.items():
            for tail_id in absorbed:
                instructions.append(
                    Instruction(Opcode.MOVE, tile_id=head_id, size=len(absorbed))
                )
        return instructions

    def inference_program(self) -> list[Instruction]:
        """The per-inference instruction stream, layer by layer.

        Per layer: fetch + broadcast the input vector to every occupied
        tile once per MVM, trigger each block, merge row groups, store;
        pooled layers add a POOL pass.
        """
        instructions: list[Instruction] = []
        blocks = self._layer_blocks()
        for mapping in self.allocation.mappings:
            layer = mapping.layer
            idx = layer.index
            in_bytes = layer.in_channels * layer.kernel_elems
            tiles_of_layer = sorted({t for t, _ in blocks[idx]})
            for _ in range(layer.mvm_ops):
                instructions.append(
                    Instruction(Opcode.FETCH_INPUT, layer_index=idx, size=in_bytes)
                )
                for tile_id in tiles_of_layer:
                    instructions.append(
                        Instruction(
                            Opcode.BROADCAST, layer_index=idx,
                            tile_id=tile_id, size=in_bytes,
                        )
                    )
                for tile_id, pe_id in blocks[idx]:
                    instructions.append(
                        Instruction(
                            Opcode.MVM, layer_index=idx,
                            tile_id=tile_id, pe_id=pe_id,
                        )
                    )
                if mapping.row_groups > 1:
                    instructions.append(
                        Instruction(
                            Opcode.MERGE, layer_index=idx,
                            size=mapping.partial_sum_adds,
                        )
                    )
                instructions.append(
                    Instruction(
                        Opcode.STORE_OUTPUT, layer_index=idx,
                        size=layer.out_channels,
                    )
                )
            pool = self.network.pool_after_or_none(idx)
            if pool is not None:
                pooled = pool.output_size(layer.output_size) ** 2 * layer.out_channels
                instructions.append(
                    Instruction(Opcode.POOL, layer_index=idx, size=pooled)
                )
        return instructions

    # ------------------------------------------------------------------
    @staticmethod
    def histogram(instructions: Iterable[Instruction]) -> dict[Opcode, int]:
        counts: dict[Opcode, int] = {}
        for ins in instructions:
            counts[ins.opcode] = counts.get(ins.opcode, 0) + 1
        return counts
