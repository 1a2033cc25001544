"""End-to-end tests of the physical accelerator object model."""

import numpy as np
import pytest

from repro.arch.accelerator import HeterogeneousAccelerator
from repro.arch.config import CrossbarShape, HardwareConfig
from repro.sim import Simulator
from repro.sim.functional import random_weights, unfold_weights
from repro.sim.quantization import quantize


def build(net, strategy, tile_shared=True, config=None):
    cfg = config or HardwareConfig()
    sim = Simulator(cfg)
    mappings = sim.map_network(net, strategy)
    allocation = sim.allocate(mappings, tile_shared=tile_shared)
    weights = random_weights(net, seed=11)
    wq = {
        l.index: quantize(
            unfold_weights(l, weights[l.index]), cfg.weight_bits, signed=True
        ).values
        for l in net.layers
    }
    return HeterogeneousAccelerator(allocation, wq, cfg), allocation, wq


class TestProgramming:
    def test_every_block_placed(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        acc, allocation, _ = build(lenet_net, strategy)
        for mapping in allocation.mappings:
            assert (
                len(acc.block_locations[mapping.layer.index])
                == mapping.num_crossbars
            )

    def test_physical_utilization_matches_analytic(self, lenet_net):
        strategy = (
            CrossbarShape(36, 32),
            CrossbarShape(72, 64),
            CrossbarShape(288, 256),
            CrossbarShape(72, 64),
            CrossbarShape(72, 64),
        )
        acc, allocation, _ = build(lenet_net, strategy)
        assert acc.utilization() == pytest.approx(allocation.utilization)

    def test_occupied_tiles_match(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        acc, allocation, _ = build(lenet_net, strategy)
        assert acc.occupied_tiles == allocation.occupied_tiles

    def test_rejects_wrong_weight_shape(self, lenet_net):
        cfg = HardwareConfig()
        sim = Simulator(cfg)
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        mappings = sim.map_network(lenet_net, strategy)
        allocation = sim.allocate(mappings, tile_shared=False)
        bad = {l.index: np.zeros((1, 1), dtype=int) for l in lenet_net.layers}
        with pytest.raises(ValueError, match="weight matrix"):
            HeterogeneousAccelerator(allocation, bad, cfg)


class TestLayerMVM:
    @pytest.mark.parametrize("tile_shared", [False, True])
    def test_exact_per_layer(self, lenet_net, tile_shared):
        strategy = (
            CrossbarShape(36, 32),
            CrossbarShape(72, 64),
            CrossbarShape(288, 256),
            CrossbarShape(72, 64),
            CrossbarShape(72, 64),
        )
        acc, _, wq = build(lenet_net, strategy, tile_shared=tile_shared)
        rng = np.random.default_rng(5)
        for layer in lenet_net.layers:
            x = rng.integers(0, 256, size=layer.in_channels * layer.kernel_elems)
            out = acc.layer_mvm(layer.index, x)
            assert np.array_equal(out, x @ wq[layer.index])

    def test_exact_with_kernel_split(self):
        """A 5x5 kernel on a 16-row crossbar forces the split path."""
        from repro.models import MNIST, Network
        from repro.models.layers import LayerSpec

        net = Network.build(
            "split-net", MNIST, [LayerSpec.conv(1, 6, 5, padding=2)]
        )
        strategy = (CrossbarShape(16, 16),)
        acc, _, wq = build(net, strategy)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 256, size=25)
        assert np.array_equal(acc.layer_mvm(0, x), x @ wq[0])

    def test_rejects_wrong_input_shape(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        acc, _, _ = build(lenet_net, strategy)
        with pytest.raises(ValueError):
            acc.layer_mvm(0, np.zeros(3, dtype=int))

    def test_tiny_cnn_with_mixed_strategy(self, tiny_net):
        strategy = (
            CrossbarShape(32, 32),
            CrossbarShape(288, 256),
            CrossbarShape(576, 512),
            CrossbarShape(72, 64),
        )
        acc, _, wq = build(tiny_net, strategy)
        rng = np.random.default_rng(2)
        for layer in tiny_net.layers:
            x = rng.integers(0, 256, size=layer.in_channels * layer.kernel_elems)
            assert np.array_equal(acc.layer_mvm(layer.index, x), x @ wq[layer.index])
