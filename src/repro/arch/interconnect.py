"""On-chip interconnect model: the Global Controller's bus and tile H-tree.

The paper's architecture (§3.1) connects the GC, the I/O buffers, and the
tiles through a bus; deeper ReRAM proposals (ISAAC's H-tree, ReGraphX's
NoC) make the interconnect a first-class citizen.  This module models the
traffic a strategy generates and what it costs on two topologies:

* a **shared bus** — every transfer serialises; latency is total bytes
  over bandwidth plus per-transfer arbitration;
* an **H-tree** — tiles sit at the leaves of a balanced binary tree;
  a transfer to a tile crosses ``ceil(log2(#tiles))`` hops, and disjoint
  subtrees move data concurrently (modelled as a per-level capacity).

Traffic per layer and image: the input vector (``Cin * k^2`` bytes)
broadcast once per MVM to every tile holding that layer, plus the output
activations returned to the buffer.  Weight-loading traffic is a one-off
and reported separately.

The analytic latency/energy models in :mod:`repro.sim` already charge a
flat per-byte bus cost; this module is the refinement for interconnect-
focused studies (see ``examples``/tests), not part of the default RUE
pipeline — keeping the default calibration untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.allocation.tiles import Allocation
from ..models.graph import Network


@dataclass(frozen=True)
class InterconnectConfig:
    """Bandwidths and per-event costs of the on-chip fabric."""

    bus_bytes_per_ns: float = 32.0      #: shared-bus bandwidth
    bus_arbitration_ns: float = 4.0     #: per-transfer arbitration overhead
    hop_latency_ns: float = 1.0         #: one H-tree hop
    hop_bytes_per_ns: float = 64.0      #: per-link bandwidth
    energy_per_byte_hop_nj: float = 1.2e-6
    energy_per_bus_byte_nj: float = 4.0e-6

    def __post_init__(self) -> None:
        if min(
            self.bus_bytes_per_ns,
            self.hop_bytes_per_ns,
        ) <= 0:
            raise ValueError("bandwidths must be positive")
        if min(self.bus_arbitration_ns, self.hop_latency_ns) < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class LayerTraffic:
    """Bytes a layer moves per inference pass."""

    layer_index: int
    input_bytes: int        #: buffer -> tiles (with per-tile broadcast fan-out)
    output_bytes: int       #: tiles -> buffer
    tiles_touched: int
    transfers: int          #: discrete transfer events

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes


@dataclass(frozen=True)
class TrafficReport:
    """Whole-network interconnect traffic and projected costs."""

    layers: tuple[LayerTraffic, ...]
    weight_load_bytes: int
    tile_count: int

    @property
    def total_bytes(self) -> int:
        return sum(l.total_bytes for l in self.layers)

    @property
    def total_transfers(self) -> int:
        return sum(l.transfers for l in self.layers)

    # ------------------------------------------------------------------
    def bus_latency_ns(self, cfg: InterconnectConfig) -> float:
        """Fully-serialised shared-bus latency for one inference pass."""
        return (
            self.total_bytes / cfg.bus_bytes_per_ns
            + self.total_transfers * cfg.bus_arbitration_ns
        )

    def htree_depth(self) -> int:
        return max(math.ceil(math.log2(max(self.tile_count, 1))), 1)

    def htree_latency_ns(self, cfg: InterconnectConfig) -> float:
        """H-tree latency: root link is the shared resource; leaf links
        run concurrently.  Per layer, the root moves the input vector
        once plus the outputs; fan-out duplication happens below the
        root, overlapped, adding hop latency but not root bandwidth."""
        depth = self.htree_depth()
        total = 0.0
        for layer in self.layers:
            root_bytes = (
                layer.input_bytes / max(layer.tiles_touched, 1)
                + layer.output_bytes
            )
            total += root_bytes / cfg.hop_bytes_per_ns
            total += depth * cfg.hop_latency_ns * layer.transfers / max(
                layer.tiles_touched, 1
            )
        return total

    def bus_energy_nj(self, cfg: InterconnectConfig) -> float:
        return self.total_bytes * cfg.energy_per_bus_byte_nj

    def htree_energy_nj(self, cfg: InterconnectConfig) -> float:
        depth = self.htree_depth()
        return self.total_bytes * depth * cfg.energy_per_byte_hop_nj


def traffic_report(network: Network, allocation: Allocation) -> TrafficReport:
    """Compute per-layer interconnect traffic for a mapped network."""
    layers = []
    weight_bytes = 0
    mappings = {m.layer.index: m for m in allocation.mappings}
    for mapping in allocation.mappings:
        layer = mapping.layer
        tiles = allocation.tiles_of_layer(layer.index)
        n_tiles = max(len(tiles), 1)
        in_vec = layer.in_channels * layer.kernel_elems
        input_bytes = layer.mvm_ops * in_vec * n_tiles
        output_bytes = layer.mvm_ops * layer.out_channels
        transfers = layer.mvm_ops * (n_tiles + 1)  # broadcasts + writeback
        layers.append(
            LayerTraffic(
                layer_index=layer.index,
                input_bytes=input_bytes,
                output_bytes=output_bytes,
                tiles_touched=n_tiles,
                transfers=transfers,
            )
        )
        weight_bytes += mapping.weight_cells  # 8-bit weights: 1 byte each
    return TrafficReport(
        layers=tuple(layers),
        weight_load_bytes=weight_bytes,
        tile_count=allocation.occupied_tiles,
    )
