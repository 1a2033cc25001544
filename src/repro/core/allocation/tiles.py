"""Tile data structures shared by the allocation schemes.

A *tile* integrates a fixed number of PEs; each PE hosts one logical
crossbar (a bit-slice group), so a tile offers
``HardwareConfig.logical_xbars_per_tile`` crossbar slots.  All crossbars
inside one tile share a single geometry (``CrossbarShape``) — heterogeneity
exists *between* tiles, never within one (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...analysis.invariants import ALC001, ALC005, InvariantViolation
from ...arch.config import CrossbarShape
from ...arch.mapping import LayerMapping


@dataclass
class Tile:
    """One allocated tile and the crossbar slots inside it.

    ``occupants`` maps layer index -> number of crossbar slots that layer
    occupies in this tile.  Multiple occupants only appear after the
    tile-shared remapping pass.
    """

    tile_id: int
    shape: CrossbarShape
    capacity: int
    occupants: dict[int, int] = field(default_factory=dict)
    #: tiles whose contents were merged into this one (Algorithm 1 output)
    absorbed: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("tile capacity must be positive")
        if self.occupied > self.capacity:
            raise InvariantViolation(
                [
                    ALC001.diag(
                        f"tile {self.tile_id}",
                        f"over capacity: {self.occupied} > {self.capacity}",
                        hint="re-run the allocator; this tile was overfilled",
                    )
                ],
                "Tile",
            )

    @property
    def occupied(self) -> int:
        """Crossbar slots in use."""
        return sum(self.occupants.values())

    @property
    def empty(self) -> int:
        """Free crossbar slots ("emptyXBNum" in Algorithm 1)."""
        return self.capacity - self.occupied

    @property
    def layers(self) -> tuple[int, ...]:
        """Indices of the layers mapped (at least partially) onto this tile."""
        return tuple(sorted(self.occupants))

    def add(self, layer_index: int, count: int) -> None:
        """Place ``count`` crossbars of ``layer_index`` into this tile.

        Raises :class:`InvariantViolation` (ALC005 / ALC001) *before*
        mutating, so a failed placement can never corrupt the occupancy
        counters.
        """
        if count <= 0:
            raise InvariantViolation(
                [
                    ALC005.diag(
                        f"tile {self.tile_id}",
                        f"count must be positive, got {count}",
                        hint="never record empty occupant entries",
                    )
                ],
                "Tile.add",
            )
        if count > self.empty:
            raise InvariantViolation(
                [
                    ALC001.diag(
                        f"tile {self.tile_id}",
                        f"cannot absorb {count} crossbars "
                        f"(only {self.empty} free)",
                        hint="Algorithm 1 only merges when "
                        "head.empty + tail.empty >= capacity",
                    )
                ],
                "Tile.add",
            )
        self.occupants[layer_index] = self.occupants.get(layer_index, 0) + count

    def clone(self) -> "Tile":
        return Tile(
            tile_id=self.tile_id,
            shape=self.shape,
            capacity=self.capacity,
            occupants=dict(self.occupants),
            absorbed=list(self.absorbed),
        )


@dataclass(frozen=True)
class Allocation:
    """The full crossbar allocation of one network onto the accelerator."""

    mappings: tuple[LayerMapping, ...]
    tiles: tuple[Tile, ...]
    tile_capacity: int
    #: Algorithm 1's combMap: absorbing tile id -> absorbed tile ids
    comb_map: dict[int, tuple[int, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def occupied_tiles(self) -> int:
        """Tiles holding at least one crossbar (Table 4's metric)."""
        return sum(1 for t in self.tiles if t.occupied > 0)

    @property
    def weight_cells(self) -> int:
        """Cells storing weights, over the whole network."""
        return sum(m.weight_cells for m in self.mappings)

    @property
    def allocated_cells(self) -> int:
        """All cells inside occupied tiles — including empty crossbars."""
        return sum(
            t.capacity * t.shape.cells for t in self.tiles if t.occupied > 0
        )

    @property
    def utilization(self) -> float:
        """Overall crossbar utilization — weight cells over allocated cells.

        This is the metric of Fig. 5's "Utilization" row: intra-array
        wastage (Eq. 4) *and* tile-level wastage combined.  The pinned
        example: 128 kernels of 3x3x12 on 4-crossbar tiles gives 27/32 on
        64x64 crossbars and 27/128 on 128x128.
        """
        allocated = self.allocated_cells
        return self.weight_cells / allocated if allocated else 0.0

    @property
    def empty_crossbars(self) -> int:
        """Unused crossbar slots inside occupied tiles."""
        return sum(t.empty for t in self.tiles if t.occupied > 0)

    @property
    def total_crossbar_slots(self) -> int:
        """All crossbar slots inside occupied tiles."""
        return sum(t.capacity for t in self.tiles if t.occupied > 0)

    def tiles_of_layer(self, layer_index: int) -> tuple[Tile, ...]:
        """All tiles holding crossbars of the given layer."""
        return tuple(t for t in self.tiles if layer_index in t.occupants)

    def tiles_by_shape(self) -> dict[CrossbarShape, list[Tile]]:
        """Group occupied tiles by their crossbar geometry."""
        groups: dict[CrossbarShape, list[Tile]] = {}
        for tile in self.tiles:
            if tile.occupied > 0:
                groups.setdefault(tile.shape, []).append(tile)
        return groups

    def validate(self) -> None:
        """Check every structural invariant of the plan.

        Delegates to the rule implementations in
        :func:`repro.analysis.checkers.check_allocation` (ALC001-ALC007)
        and raises :class:`~repro.analysis.invariants.InvariantViolation`
        carrying the full diagnostic list — rule ids, locations, and fix
        hints — instead of a bare assert.
        """
        self.check().raise_if_errors("Allocation")

    def check(self):
        """All plan diagnostics as a :class:`~repro.analysis.invariants.Report`
        (non-raising form of :meth:`validate`)."""
        # Imported lazily: checkers imports this module for type context.
        from ...analysis.checkers import check_allocation
        from ...analysis.invariants import Report

        report = Report()
        report.extend(check_allocation(self))
        return report
