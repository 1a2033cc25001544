"""Differential test: the serving engine vs. the closed-form pipeline.

The engine's service model *is* :mod:`repro.sim.pipeline` — a saturated
single-tenant run must reproduce the closed-form numbers to float
tolerance, not merely approximately:

* the j-th completion lands exactly ``fill_ns + j * bottleneck_ns``
  after dispatch (the ``fill + (N-1) * bottleneck`` batch law of
  :class:`repro.sim.pipeline.PipelineReport`),
* steady-state throughput equals ``throughput_img_per_s``,
* after a forced re-pack to two weight copies the same laws hold with
  the replicated report's timings.

Any drift here means the engine grew its own latency model.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import pytest

from repro.arch.config import CrossbarShape
from repro.core.allocation.multi_model import multi_network_tile_counts
from repro.models.graph import Network
from repro.models.zoo import get_model
from repro.serve import (
    ReallocConfig,
    ReallocDecision,
    Scenario,
    TenantSpec,
    simulate,
)
from repro.sim.pipeline import pipeline_report
from repro.sim.units_constants import NS_PER_S

REL = 1e-9
N_REQUESTS = 64


def saturated_scenario(model, shape, n, *, realloc=None, lead_ns=()):
    """One tenant, ``n`` simultaneous arrivals, pipeline never starved."""
    trace = tuple(lead_ns) + tuple(1e7 for _ in range(n))
    return Scenario(
        name="parity",
        tenants=(
            TenantSpec(
                name="solo", model=model, shape=shape,
                trace_ns=trace, slo_ns=1e12,
            ),
        ),
        duration_ns=2e7,
        max_batch=n,
        queue_cap=0,
        drain=True,
        realloc=realloc or ReallocConfig(enabled=False),
    )


@pytest.mark.parametrize(
    "model,shape", [("lenet", "64x64"), ("vgg16", "64x64")]
)
class TestClosedFormParity:
    def test_batch_law_and_steady_state_throughput(self, model, shape):
        network = get_model(model)
        strategy = tuple(
            [CrossbarShape.parse(shape)] * network.num_layers
        )
        report = pipeline_report(network, strategy)
        result = simulate(saturated_scenario(model, shape, N_REQUESTS))
        tenant = result.tenants[0]
        assert tenant.completed == N_REQUESTS

        # All arrivals share one timestamp, so each latency is the
        # completion offset from the single dispatch instant.
        latencies = tenant.latencies_ns
        for j, latency in enumerate(latencies):
            want = report.fill_ns + j * report.bottleneck_ns
            assert math.isclose(latency, want, rel_tol=REL), (
                f"request {j}: {latency} != closed-form {want}"
            )
        assert math.isclose(
            latencies[-1],
            report.batch_latency_ns(N_REQUESTS),
            rel_tol=REL,
        )

        # Steady state: (N-1) completions over the span between the
        # first and last completion is exactly the pipeline bandwidth.
        span_s = (latencies[-1] - latencies[0]) / NS_PER_S
        steady_rps = (N_REQUESTS - 1) / span_s
        assert math.isclose(
            steady_rps, report.throughput_img_per_s, rel_tol=REL
        )


@dataclass(frozen=True)
class ForceReplication:
    """Test policy: re-pack to a fixed replication vector once."""

    target: tuple[int, ...]

    def decide(
        self,
        *,
        now_ns: float,
        observed_share: Sequence[float],
        provisioned_share: Sequence[float],
        current_replication: Sequence[int],
        workloads: Sequence[tuple[Network, Sequence[CrossbarShape]]],
        tile_capacity: int,
        tile_budget: int,
        last_realloc_ns: float,
    ) -> ReallocDecision | None:
        if tuple(current_replication) == self.target:
            return None
        occupied, separate = multi_network_tile_counts(
            workloads, tile_capacity, replication=list(self.target)
        )
        return ReallocDecision(
            replication=self.target,
            occupied_tiles=occupied,
            separate_tiles=separate,
            drift=1.0,
            observed_share=tuple(observed_share),
        )


class TestReplicatedParity:
    def test_replication_two_matches_replicated_report(self):
        network = get_model("lenet")
        strategy = tuple(
            [CrossbarShape.parse("64x64")] * network.num_layers
        )
        rep2 = pipeline_report(
            network, strategy, replication=[2] * network.num_layers
        )
        rep1 = pipeline_report(network, strategy)
        assert rep2.bottleneck_ns < rep1.bottleneck_ns

        # A lone lead arrival at t=0 triggers the forced re-pack
        # (window=1, no stall); the saturating wave then runs entirely
        # on two weight copies.
        scenario = saturated_scenario(
            "lenet", "64x64", N_REQUESTS,
            lead_ns=(0.0,),
            realloc=ReallocConfig(
                enabled=True, threshold=0.5, window=1, check_every=1,
                stall_ns=0.0, cooldown_ns=0.0, headroom=4.0,
            ),
        )
        result = simulate(
            scenario, policy=ForceReplication(target=(2,))
        )
        tenant = result.tenants[0]
        assert tenant.replication == 2
        assert len(result.realloc_events) == 1
        assert result.realloc_events[0]["replication"] == [2]
        assert tenant.completed == N_REQUESTS + 1
        # The lead request entered the pipeline the instant it arrived,
        # before the re-pack; it waited for nothing.
        assert tenant.waits_ns[0] == 0.0

        wave = tenant.latencies_ns[1:]
        for j, latency in enumerate(wave):
            want = rep2.fill_ns + j * rep2.bottleneck_ns
            assert math.isclose(latency, want, rel_tol=REL), (
                f"request {j}: {latency} != replicated {want}"
            )
        span_s = (wave[-1] - wave[0]) / NS_PER_S
        assert math.isclose(
            (N_REQUESTS - 1) / span_s,
            rep2.throughput_img_per_s,
            rel_tol=REL,
        )
