"""Tests for the pipeline throughput model and replication balancing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import CrossbarShape
from repro.models import lenet
from repro.sim.pipeline import (
    pipeline_report,
    replication_crossbar_cost,
)
from repro.sim.replication import balance_replication, replication_speedup

SHAPE = CrossbarShape(72, 64)


def uniform(net, shape=SHAPE):
    return tuple(shape for _ in net.layers)


class TestPipelineReport:
    def test_stage_per_layer(self, lenet_net):
        report = pipeline_report(lenet_net, uniform(lenet_net))
        assert len(report.stages) == lenet_net.num_layers
        assert report.network_name == "LeNet"

    def test_bottleneck_is_max_stage(self, lenet_net):
        report = pipeline_report(lenet_net, uniform(lenet_net))
        assert report.bottleneck_ns == max(s.service_ns for s in report.stages)
        assert report.bottleneck_stage.service_ns == report.bottleneck_ns

    def test_first_conv_dominates_vgg(self, vgg_net):
        """Early layers with big feature maps bottleneck the pipeline."""
        report = pipeline_report(vgg_net, uniform(vgg_net))
        assert report.bottleneck_stage.layer_index in (0, 1)

    def test_fill_is_sum(self, lenet_net):
        report = pipeline_report(lenet_net, uniform(lenet_net))
        assert report.fill_ns == pytest.approx(
            sum(s.service_ns for s in report.stages)
        )

    def test_batch_latency_formula(self, lenet_net):
        report = pipeline_report(lenet_net, uniform(lenet_net))
        assert report.batch_latency_ns(1) == pytest.approx(report.fill_ns)
        assert report.batch_latency_ns(11) == pytest.approx(
            report.fill_ns + 10 * report.bottleneck_ns
        )

    def test_batch_latency_rejects_nonpositive(self, lenet_net):
        report = pipeline_report(lenet_net, uniform(lenet_net))
        with pytest.raises(ValueError):
            report.batch_latency_ns(0)

    def test_throughput_inverse_of_bottleneck(self, lenet_net):
        report = pipeline_report(lenet_net, uniform(lenet_net))
        assert report.throughput_img_per_s == pytest.approx(
            1e9 / report.bottleneck_ns
        )

    def test_stage_utilisation_bounded(self, vgg_net):
        report = pipeline_report(vgg_net, uniform(vgg_net))
        u = report.stage_utilisation()
        assert all(0 < x <= 1.0 + 1e-12 for x in u)
        assert max(u) == pytest.approx(1.0)
        assert 0 < report.balance <= 1.0

    def test_rejects_strategy_mismatch(self, lenet_net):
        with pytest.raises(ValueError):
            pipeline_report(lenet_net, (SHAPE,))

    def test_rejects_bad_replication(self, lenet_net):
        with pytest.raises(ValueError):
            pipeline_report(lenet_net, uniform(lenet_net), replication=[1])
        with pytest.raises(ValueError):
            pipeline_report(
                lenet_net, uniform(lenet_net),
                replication=[0] * lenet_net.num_layers,
            )

    def test_replication_divides_service_time(self, lenet_net):
        base = pipeline_report(lenet_net, uniform(lenet_net))
        reps = [2] + [1] * (lenet_net.num_layers - 1)
        doubled = pipeline_report(lenet_net, uniform(lenet_net), replication=reps)
        b0 = base.stages[0].service_ns
        b1 = doubled.stages[0].service_ns
        assert b1 < b0
        # ceil(mvm/2) waves: roughly half the time.
        assert b1 == pytest.approx(
            b0 * math.ceil(lenet_net.layers[0].mvm_ops / 2)
            / lenet_net.layers[0].mvm_ops,
            rel=1e-6,
        )


class TestCrossbarCost:
    def test_unreplicated_cost_matches_mapping(self, lenet_net):
        from repro.arch.mapping import map_layer

        expected = sum(
            map_layer(l, SHAPE).num_crossbars for l in lenet_net.layers
        )
        assert replication_crossbar_cost(
            lenet_net, uniform(lenet_net), [1] * lenet_net.num_layers
        ) == expected

    def test_replicas_multiply_cost(self, lenet_net):
        ones = [1] * lenet_net.num_layers
        twos = [2] * lenet_net.num_layers
        assert replication_crossbar_cost(
            lenet_net, uniform(lenet_net), twos
        ) == 2 * replication_crossbar_cost(lenet_net, uniform(lenet_net), ones)


class TestBalanceReplication:
    def test_budget_respected(self, lenet_net):
        base = replication_crossbar_cost(
            lenet_net, uniform(lenet_net), [1] * lenet_net.num_layers
        )
        budget = base + 20
        reps, report = balance_replication(
            lenet_net, uniform(lenet_net), crossbar_budget=budget
        )
        assert replication_crossbar_cost(lenet_net, uniform(lenet_net), reps) <= budget

    def test_rejects_insufficient_budget(self, lenet_net):
        with pytest.raises(ValueError, match="budget"):
            balance_replication(lenet_net, uniform(lenet_net), crossbar_budget=0)

    def test_zero_headroom_keeps_ones(self, lenet_net):
        base = replication_crossbar_cost(
            lenet_net, uniform(lenet_net), [1] * lenet_net.num_layers
        )
        reps, _ = balance_replication(
            lenet_net, uniform(lenet_net), crossbar_budget=base
        )
        assert all(r == 1 for r in reps)

    def test_throughput_never_degrades(self, lenet_net):
        base = pipeline_report(lenet_net, uniform(lenet_net))
        cost = replication_crossbar_cost(
            lenet_net, uniform(lenet_net), [1] * lenet_net.num_layers
        )
        _, balanced = balance_replication(
            lenet_net, uniform(lenet_net), crossbar_budget=cost + 50
        )
        assert balanced.throughput_img_per_s >= base.throughput_img_per_s

    def test_speedup_grows_with_budget(self, lenet_net):
        cost = replication_crossbar_cost(
            lenet_net, uniform(lenet_net), [1] * lenet_net.num_layers
        )
        small = replication_speedup(
            lenet_net, uniform(lenet_net), crossbar_budget=cost + 5
        )
        large = replication_speedup(
            lenet_net, uniform(lenet_net), crossbar_budget=cost + 200
        )
        assert large >= small >= 1.0
        assert large > 1.5  # meaningful gain with real headroom

    def test_replicas_go_to_heavy_stages(self, vgg_net):
        cost = replication_crossbar_cost(
            vgg_net, uniform(vgg_net), [1] * vgg_net.num_layers
        )
        reps, _ = balance_replication(
            vgg_net, uniform(vgg_net), crossbar_budget=cost + 100
        )
        # The 32x32-input conv layers get more replicas than the FC head.
        assert reps[0] > reps[-1]
        assert reps[-1] == 1

    def test_replication_capped_at_mvm_count(self, lenet_net):
        cost = replication_crossbar_cost(
            lenet_net, uniform(lenet_net), [1] * lenet_net.num_layers
        )
        reps, _ = balance_replication(
            lenet_net, uniform(lenet_net), crossbar_budget=cost + 10_000_000
        )
        for layer, r in zip(lenet_net.layers, reps):
            assert r <= layer.mvm_ops

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 300))
    def test_budget_monotone_property(self, headroom):
        net = lenet()
        strategy = uniform(net)
        cost = replication_crossbar_cost(net, strategy, [1] * net.num_layers)
        s1 = replication_speedup(net, strategy, crossbar_budget=cost + headroom)
        s2 = replication_speedup(
            net, strategy, crossbar_budget=cost + headroom + 50
        )
        assert s2 >= s1 - 1e-9
