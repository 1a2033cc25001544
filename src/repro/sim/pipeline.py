"""Layer-pipelined inference throughput (PipeLayer-style extension).

The paper's latency model (§4.5, Table 5) is single-image and
layer-sequential.  Deployed ReRAM accelerators (PipeLayer [21], ISAAC
[19]) instead stream a batch through a layer pipeline: every layer's
tiles work on a different image simultaneously, so steady-state
throughput is set by the *slowest stage*, not the sum.

Because all weights are resident (weight-stationary PIM), a stage's
service time is its per-layer latency from :mod:`repro.sim.latency`.
Early CONV layers, with thousands of sliding-window MVMs per image,
dominate; §repro.sim.replication rebalances them by duplicating weights.

This module computes, for a (network, strategy, replication) triple:

* per-stage service times,
* the pipeline bottleneck and steady-state throughput,
* batch latency ``fill + (N - 1) * bottleneck``,
* per-stage utilisation of the pipeline (idle fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..arch.config import CrossbarShape, DEFAULT_CONFIG, HardwareConfig
from ..arch.mapping import map_layer
from ..models.graph import Network
from .latency import layer_latency_ns
from .units_constants import NS_PER_S


@dataclass(frozen=True)
class StageTiming:
    """One pipeline stage (a layer plus its trailing pooling, if any)."""

    layer_index: int
    shape_str: str
    replication: int
    service_ns: float   #: time this stage needs per image

    @property
    def is_bottleneck_candidate(self) -> bool:
        return self.service_ns > 0


@dataclass(frozen=True)
class PipelineReport:
    """Steady-state pipeline behaviour for one configuration."""

    stages: tuple[StageTiming, ...]
    network_name: str

    @property
    def bottleneck_ns(self) -> float:
        """Slowest stage's per-image service time."""
        return max(s.service_ns for s in self.stages)

    @property
    def bottleneck_stage(self) -> StageTiming:
        return max(self.stages, key=lambda s: s.service_ns)

    @property
    def fill_ns(self) -> float:
        """Time for the first image to traverse the whole pipeline."""
        return sum(s.service_ns for s in self.stages)

    def batch_latency_ns(self, batch: int) -> float:
        """Total latency to push ``batch`` images through the pipeline."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        return self.fill_ns + (batch - 1) * self.bottleneck_ns

    @property
    def throughput_img_per_s(self) -> float:
        """Steady-state images per second."""
        return NS_PER_S / self.bottleneck_ns if self.bottleneck_ns else 0.0

    def stage_utilisation(self) -> tuple[float, ...]:
        """Busy fraction of each stage at steady state."""
        b = self.bottleneck_ns
        return tuple(s.service_ns / b if b else 0.0 for s in self.stages)

    @property
    def balance(self) -> float:
        """Mean stage utilisation — 1.0 means a perfectly balanced pipeline."""
        u = self.stage_utilisation()
        return sum(u) / len(u) if u else 0.0


def pipeline_report(
    network: Network,
    strategy: Sequence[CrossbarShape],
    *,
    replication: Sequence[int] | None = None,
    config: HardwareConfig = DEFAULT_CONFIG,
) -> PipelineReport:
    """Build the pipeline timing report for a strategy.

    ``replication[i]`` duplicates layer ``i``'s weight array that many
    times; the copies serve different sliding-window positions in
    parallel, dividing the stage's MVM count (service time scales with
    ``ceil(mvm_ops / replication)`` — the last partially-filled wave
    still costs a full round).
    """
    layers = network.layers
    if len(strategy) != len(layers):
        raise ValueError("strategy length must equal layer count")
    if replication is None:
        replication = [1] * len(layers)
    if len(replication) != len(layers):
        raise ValueError("replication length must equal layer count")
    if any(r < 1 for r in replication):
        raise ValueError("replication factors must be >= 1")

    stages = []
    for layer, shape, reps in zip(layers, strategy, replication):
        mapping = map_layer(layer, shape)
        base = layer_latency_ns(mapping, config)
        per_mvm = base / layer.mvm_ops
        import math

        waves = math.ceil(layer.mvm_ops / reps)
        service = per_mvm * waves
        try:
            pool = network.pool_after(layer.index)
        except IndexError:
            pool = None
        if pool is not None:
            pooled = pool.output_size(layer.output_size) ** 2 * layer.out_channels
            service += pooled * config.latency_pool_ns / reps
        stages.append(
            StageTiming(
                layer_index=layer.index,
                shape_str=str(shape),
                replication=reps,
                service_ns=service,
            )
        )
    return PipelineReport(stages=tuple(stages), network_name=network.name)


def replication_crossbar_cost(
    network: Network,
    strategy: Sequence[CrossbarShape],
    replication: Sequence[int],
) -> int:
    """Total logical crossbars consumed, including all replicas."""
    total = 0
    for layer, shape, reps in zip(network.layers, strategy, replication):
        total += map_layer(layer, shape).num_crossbars * reps
    return total
