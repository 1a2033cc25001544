"""Tests for the top-level Simulator and SystemMetrics."""

import pytest

from repro.arch.config import CrossbarShape, HardwareConfig
from repro.sim import CapacityError, Simulator
from repro.sim.metrics import SystemMetrics


class TestEvaluate:
    def test_returns_consistent_metrics(self, simulator, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        m = simulator.evaluate(lenet_net, strategy)
        assert 0 < m.utilization <= 1
        assert m.energy_nj > 0
        assert m.latency_ns > 0
        assert m.area_um2 > 0
        assert m.occupied_tiles > 0
        assert m.network_name == "LeNet"
        assert len(m.strategy) == lenet_net.num_layers

    def test_rue_definition(self, simulator, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        m = simulator.evaluate(lenet_net, strategy)
        assert m.rue == pytest.approx(m.utilization * 100 / m.energy_nj)
        assert m.reward == pytest.approx(m.utilization / m.energy_nj)

    def test_reward_in_unit_interval(self, simulator, lenet_net):
        """§3.2: energy's magnitude keeps R = u/e inside [0, 1]."""
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        m = simulator.evaluate(lenet_net, strategy)
        assert 0.0 < m.reward < 1.0

    def test_energy_breakdown_sums_to_total(self, simulator, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        m = simulator.evaluate(lenet_net, strategy)
        assert m.energy_breakdown.total == pytest.approx(m.energy_nj)

    def test_layer_costs_present_when_detailed(self, simulator, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        detailed = simulator.evaluate(lenet_net, strategy, detailed=True)
        brief = simulator.evaluate(lenet_net, strategy, detailed=False)
        assert len(detailed.layer_costs) == lenet_net.num_layers
        assert brief.layer_costs == ()
        assert brief.energy_nj == pytest.approx(detailed.energy_nj)

    def test_tile_shared_improves_or_preserves(self, simulator, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        base = simulator.evaluate(lenet_net, strategy, tile_shared=False)
        shared = simulator.evaluate(lenet_net, strategy, tile_shared=True)
        assert shared.occupied_tiles <= base.occupied_tiles
        assert shared.utilization >= base.utilization
        assert shared.energy_nj <= base.energy_nj + 1e-9

    def test_rejects_strategy_length_mismatch(self, simulator, lenet_net):
        with pytest.raises(ValueError):
            simulator.evaluate(lenet_net, (CrossbarShape(32, 32),))

    def test_capacity_error(self, lenet_net):
        tiny_bank = Simulator(HardwareConfig(tiles_per_bank=1))
        strategy = tuple(CrossbarShape(32, 32) for _ in lenet_net.layers)
        with pytest.raises(CapacityError):
            tiny_bank.evaluate(lenet_net, strategy)

    def test_capacity_enforcement_optional(self, lenet_net):
        lax = Simulator(HardwareConfig(tiles_per_bank=1), enforce_capacity=False)
        strategy = tuple(CrossbarShape(32, 32) for _ in lenet_net.layers)
        assert lax.evaluate(lenet_net, strategy).occupied_tiles > 1

    def test_homogeneous_wrapper(self, simulator, lenet_net):
        m = simulator.evaluate_homogeneous(lenet_net, CrossbarShape(64, 64))
        assert set(m.strategy) == {"64x64"}
        assert not m.tile_shared

    def test_determinism(self, simulator, tiny_net):
        strategy = tuple(CrossbarShape(288, 256) for _ in tiny_net.layers)
        a = simulator.evaluate(tiny_net, strategy)
        b = simulator.evaluate(tiny_net, strategy)
        assert a.energy_nj == b.energy_nj
        assert a.utilization == b.utilization
        assert a.latency_ns == b.latency_ns

    def test_summary_is_readable(self, simulator, tiny_net):
        strategy = tuple(CrossbarShape(288, 256) for _ in tiny_net.layers)
        text = simulator.evaluate(tiny_net, strategy).summary()
        assert "TinyCNN" in text and "RUE" in text


class TestSystemMetricsMath:
    def test_zero_energy_guard(self):
        m = SystemMetrics(
            network_name="x", strategy=(), utilization=0.5, energy_nj=0.0,
            latency_ns=1.0, area_um2=1.0, occupied_tiles=1,
            occupied_crossbars=1, empty_crossbars=0, tile_shared=False,
        )
        assert m.rue == 0.0 and m.reward == 0.0

    def test_utilization_percent(self):
        m = SystemMetrics(
            network_name="x", strategy=(), utilization=0.42, energy_nj=1.0,
            latency_ns=1.0, area_um2=1.0, occupied_tiles=1,
            occupied_crossbars=1, empty_crossbars=0, tile_shared=False,
        )
        assert m.utilization_percent == pytest.approx(42.0)
