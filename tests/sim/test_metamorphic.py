"""Metamorphic tests: how metrics must transform under workload changes.

Rather than pinning absolute values, these tests assert relations the
cost model must satisfy when the *input* is transformed in a known way —
doubling channels, splitting networks, scaling bit widths — which catches
unit errors and double-counting that point checks miss.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import CrossbarShape, HardwareConfig
from repro.arch.mapping import map_layer
from repro.models import CIFAR10, Network
from repro.models.layers import LayerSpec
from repro.sim import Simulator
from repro.sim.energy import layer_dynamic_energy

SHAPE = CrossbarShape(72, 64)
CFG = HardwareConfig()


def single_layer_net(layer, dataset=CIFAR10, name="one"):
    return Network.build(name, dataset, [layer])


class TestChannelScaling:
    def test_doubling_cout_doubles_weight_cells(self):
        a = map_layer(LayerSpec.conv(16, 32, 3), SHAPE)
        b = map_layer(LayerSpec.conv(16, 64, 3), SHAPE)
        assert b.weight_cells == 2 * a.weight_cells

    def test_doubling_cout_at_column_boundary_doubles_adc(self):
        """With Cout a multiple of the column width, ADC activations are
        exactly proportional."""
        a = map_layer(LayerSpec.conv(16, 64, 3, input_size=8), SHAPE)
        b = map_layer(LayerSpec.conv(16, 128, 3, input_size=8), SHAPE)
        assert b.used_columns_total == 2 * a.used_columns_total
        ea = layer_dynamic_energy(a, CFG)
        eb = layer_dynamic_energy(b, CFG)
        assert eb.adc == pytest.approx(2 * ea.adc)

    def test_doubling_cin_at_slice_boundary_doubles_row_groups(self):
        # 72 rows / 9 = 8 slices per crossbar.
        a = map_layer(LayerSpec.conv(8, 64, 3), SHAPE)
        b = map_layer(LayerSpec.conv(16, 64, 3), SHAPE)
        assert b.row_groups == 2 * a.row_groups


class TestNetworkComposition:
    def test_dynamic_energy_is_layerwise_additive(self):
        """A two-layer network's dynamic energy equals the sum of its
        layers evaluated in isolation (leakage/pooling aside)."""
        l1 = LayerSpec.conv(3, 16, 3, padding=1, input_size=32)
        l2 = LayerSpec.conv(16, 32, 3, padding=1, input_size=32)
        net = Network.build("two", CIFAR10, [l1, l2])
        sim = Simulator()
        strategy = (SHAPE, SHAPE)
        combined = sim.evaluate(net, strategy, tile_shared=False)
        e1 = layer_dynamic_energy(map_layer(net.layers[0], SHAPE), CFG).total
        e2 = layer_dynamic_energy(map_layer(net.layers[1], SHAPE), CFG).total
        non_layer = (
            combined.energy_breakdown.pooling
            + combined.energy_breakdown.leakage
        )
        assert combined.energy_nj == pytest.approx(e1 + e2 + non_layer)

    def test_weight_cells_additive_across_layers(self):
        l1 = LayerSpec.conv(3, 16, 3, padding=1, input_size=32)
        l2 = LayerSpec.conv(16, 32, 3, padding=1, input_size=32)
        net = Network.build("two", CIFAR10, [l1, l2])
        sim = Simulator()
        mappings = sim.map_network(net, (SHAPE, SHAPE))
        allocation = sim.allocate(mappings, tile_shared=False)
        assert allocation.weight_cells == net.total_weights

    def test_latency_additive_across_layers(self):
        from repro.sim.latency import layer_latency_ns

        l1 = LayerSpec.conv(3, 16, 3, padding=1, input_size=32)
        l2 = LayerSpec.conv(16, 32, 3, padding=1, input_size=32)
        net = Network.build("two", CIFAR10, [l1, l2])
        sim = Simulator()
        m = sim.evaluate(net, (SHAPE, SHAPE), tile_shared=False)
        t1 = layer_latency_ns(map_layer(net.layers[0], SHAPE), CFG)
        t2 = layer_latency_ns(map_layer(net.layers[1], SHAPE), CFG)
        assert m.latency_ns == pytest.approx(t1 + t2)


class TestBitWidthScaling:
    def test_dynamic_energy_scales_with_cycles_times_slices(self):
        """Halving both widths quarters the (cycles x slices) product and
        the phase-proportional components with it."""
        layer = LayerSpec.conv(16, 64, 3, input_size=8)
        full = layer_dynamic_energy(
            map_layer(layer, SHAPE), HardwareConfig(weight_bits=8, input_bits=8)
        )
        half = layer_dynamic_energy(
            map_layer(layer, SHAPE), HardwareConfig(weight_bits=4, input_bits=4)
        )
        assert half.adc == pytest.approx(full.adc / 4)
        assert half.dac == pytest.approx(full.dac / 4)
        # Buffer traffic is byte-level, unaffected by bit organisation.
        assert half.buffer == pytest.approx(full.buffer)

    def test_adc_resolution_scales_only_adc(self):
        layer = LayerSpec.conv(16, 64, 3, input_size=8)
        lo = layer_dynamic_energy(
            map_layer(layer, SHAPE), HardwareConfig(adc_bits=8)
        )
        hi = layer_dynamic_energy(
            map_layer(layer, SHAPE), HardwareConfig(adc_bits=10)
        )
        assert hi.adc == pytest.approx(4 * lo.adc)
        assert hi.dac == pytest.approx(lo.dac)
        assert hi.crossbar == pytest.approx(lo.crossbar)


class TestStrategyTransforms:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 48), st.integers(1, 96)),
            min_size=2,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_tile_sharing_invariant_to_layer_order(self, dims, rnd):
        """Permuting the layer list changes tile ids, never the occupied
        count: each layer contributes the same multiset of partial-tile
        empties regardless of position, and Algorithm 1's plan depends
        only on that multiset."""
        from repro.core.allocation import allocate_tile_based, apply_tile_sharing

        layers = [
            LayerSpec.conv(cin, cout, 3, input_size=8).with_index(i)
            for i, (cin, cout) in enumerate(dims)
        ]
        mappings = [map_layer(l, SHAPE) for l in layers]
        shuffled = list(mappings)
        rnd.shuffle(shuffled)
        a = apply_tile_sharing(allocate_tile_based(mappings, 4))
        b = apply_tile_sharing(allocate_tile_based(shuffled, 4))
        assert a.occupied_tiles == b.occupied_tiles
        assert a.utilization == pytest.approx(b.utilization)

    def test_uniform_strategy_equals_homogeneous_eval(self, simulator):
        from repro.models import lenet

        net = lenet()
        uniform = tuple(SHAPE for _ in net.layers)
        a = simulator.evaluate(net, uniform, tile_shared=False, detailed=False)
        b = simulator.evaluate_homogeneous(net, SHAPE)
        assert a.energy_nj == b.energy_nj
        assert a.utilization == b.utilization
