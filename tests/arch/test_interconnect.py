"""Tests for the interconnect traffic and topology models."""

import pytest

from repro.arch.config import CrossbarShape
from repro.arch.interconnect import (
    InterconnectConfig,
    traffic_report,
)
from repro.sim import Simulator

CFG = InterconnectConfig()


@pytest.fixture(scope="module")
def lenet_traffic():
    from repro.models import lenet

    net = lenet()
    sim = Simulator()
    strategy = tuple(CrossbarShape(72, 64) for _ in net.layers)
    allocation = sim.allocate(sim.map_network(net, strategy), tile_shared=True)
    return net, allocation, traffic_report(net, allocation)


class TestConfig:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            InterconnectConfig(bus_bytes_per_ns=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            InterconnectConfig(hop_latency_ns=-1)


class TestTrafficReport:
    def test_one_entry_per_layer(self, lenet_traffic):
        net, _, report = lenet_traffic
        assert len(report.layers) == net.num_layers

    def test_input_bytes_formula(self, lenet_traffic):
        net, allocation, report = lenet_traffic
        layer = net.layers[0]
        entry = report.layers[0]
        tiles = len(allocation.tiles_of_layer(0))
        assert entry.input_bytes == (
            layer.mvm_ops * layer.in_channels * layer.kernel_elems * tiles
        )
        assert entry.output_bytes == layer.mvm_ops * layer.out_channels
        assert entry.tiles_touched == tiles

    def test_weight_load_bytes(self, lenet_traffic):
        net, _, report = lenet_traffic
        assert report.weight_load_bytes == net.total_weights

    def test_totals_consistent(self, lenet_traffic):
        _, _, report = lenet_traffic
        assert report.total_bytes == sum(l.total_bytes for l in report.layers)
        assert report.total_transfers == sum(l.transfers for l in report.layers)

    def test_tile_count_matches_allocation(self, lenet_traffic):
        _, allocation, report = lenet_traffic
        assert report.tile_count == allocation.occupied_tiles


class TestTopologies:
    def test_bus_latency_positive_and_linear(self, lenet_traffic):
        _, _, report = lenet_traffic
        base = report.bus_latency_ns(CFG)
        fast = report.bus_latency_ns(
            InterconnectConfig(bus_bytes_per_ns=64.0, bus_arbitration_ns=0.0)
        )
        assert base > 0
        assert fast < base

    def test_htree_depth_log2(self, lenet_traffic):
        _, allocation, report = lenet_traffic
        import math

        assert report.htree_depth() == max(
            math.ceil(math.log2(allocation.occupied_tiles)), 1
        )

    def test_htree_beats_bus_on_broadcast_heavy_traffic(self, lenet_traffic):
        """Concurrent subtrees make the H-tree faster than a serial bus
        under the default bandwidths."""
        _, _, report = lenet_traffic
        assert report.htree_latency_ns(CFG) < report.bus_latency_ns(CFG)

    def test_htree_energy_scales_with_depth(self, lenet_traffic):
        _, _, report = lenet_traffic
        assert report.htree_energy_nj(CFG) == pytest.approx(
            report.total_bytes * report.htree_depth() * CFG.energy_per_byte_hop_nj
        )

    def test_bus_energy_linear_in_bytes(self, lenet_traffic):
        _, _, report = lenet_traffic
        assert report.bus_energy_nj(CFG) == pytest.approx(
            report.total_bytes * CFG.energy_per_bus_byte_nj
        )


class TestShapes:
    def test_bigger_crossbars_reduce_broadcast_traffic(self):
        """Fewer tiles touched per layer -> less input duplication."""
        from repro.models import vgg16

        net = vgg16()
        sim = Simulator()
        small = sim.allocate(
            sim.map_network(net, tuple(CrossbarShape(32, 32) for _ in net.layers)),
            tile_shared=False,
        )
        big = sim.allocate(
            sim.map_network(net, tuple(CrossbarShape(512, 512) for _ in net.layers)),
            tile_shared=False,
        )
        assert (
            traffic_report(net, big).total_bytes
            < traffic_report(net, small).total_bytes
        )
