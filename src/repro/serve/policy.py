"""Re-allocation policies: evict/re-pack tiles when the mix drifts.

The paper's Algorithm 1 packs one static workload; §3.4 notes freed
tiles "become available for … other models".  In an online setting the
*right* packing depends on the traffic mix, which shifts (ARAS's
motivation, PAPERS.md).  A :class:`ReallocationPolicy` watches the
observed per-tenant arrival mix and, when it drifts from the mix the
current allocation was provisioned for, proposes a new packing — here,
per-tenant PipeLayer-style weight replication sized by
:func:`repro.core.allocation.multi_network_tile_counts` (Algorithm 1
merging partially-filled tiles across tenants and replicas alike, counted
from per-layer crossbar counts without building tiles).

The contract (docs/serving.md): ``decide`` is a pure function of its
arguments — no wall clock, no global RNG — so serving runs stay
seed-deterministic.  Returning ``None`` means "keep the current
allocation"; returning a :class:`ReallocDecision` makes the engine
re-time every tenant's pipeline from the decision's replication vector,
stall dispatch for the configured weight-rewrite cost, and log a
``serve.realloc`` event with the decision's tile counts.  A policy that
wants the deployable plan behind a decision builds it with
:func:`repro.core.allocation.allocate_multi_network` over the same
workloads and replication vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ..arch.config import CrossbarShape
from ..core.allocation.multi_model import (
    allocate_multi_network,
    multi_network_tile_counts,
)
from ..models.graph import Network

__all__ = [
    "DriftReallocationPolicy",
    "ReallocDecision",
    "ReallocationPolicy",
    "allocate_multi_network",
    "mix_drift",
    "multi_network_tile_counts",
]


@dataclass(frozen=True)
class ReallocDecision:
    """A proposed re-packing: per-tenant replication plus its tile counts.

    ``occupied_tiles`` and ``separate_tiles`` are the two integers of
    :func:`~repro.core.allocation.multi_network_tile_counts` for
    ``replication``; the plan itself is
    ``allocate_multi_network(workloads, tile_capacity,
    replication=replication)``.
    """

    replication: tuple[int, ...]
    occupied_tiles: int     #: tiles the re-packed accelerator occupies
    separate_tiles: int     #: tiles if every tenant had its own accelerator
    drift: float            #: observed total-variation drift that triggered it
    observed_share: tuple[float, ...]

    @property
    def tiles_saved(self) -> int:
        """Tiles saved by cross-tenant sharing vs separate accelerators."""
        return self.separate_tiles - self.occupied_tiles


class ReallocationPolicy(Protocol):
    """Anything the serving engine can consult about re-packing."""

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
    ) -> ReallocDecision | None: ...


def mix_drift(
    observed: Sequence[float], provisioned: Sequence[float]
) -> float:
    """Total-variation distance between two arrival-mix distributions."""
    return 0.5 * sum(abs(o - p) for o, p in zip(observed, provisioned))


@dataclass(frozen=True)
class DriftReallocationPolicy:
    """Replicate hot tenants proportionally when the mix drifts.

    When the observed mix is more than ``threshold`` (total variation)
    away from the provisioned mix and the cooldown has elapsed, the
    policy rebuilds the replication vector greedily: starting from one
    copy each, it repeatedly grants an extra weight copy to the tenant
    with the highest per-copy observed share, as long as the re-packed
    allocation (Algorithm 1 over all copies of all tenants) still fits
    the tile budget.  Deterministic: ties break on tenant order.
    """

    threshold: float = 0.2
    cooldown_ns: float = 1e7
    max_replication: int = 4

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
        drift = mix_drift(observed_share, provisioned_share)
        if drift <= self.threshold:
            return None
        if now_ns - last_realloc_ns < self.cooldown_ns:
            return None
        replication = self._target_replication(
            observed_share, workloads, tile_capacity, tile_budget
        )
        if tuple(replication) == tuple(current_replication):
            return None
        occupied, separate = multi_network_tile_counts(
            workloads, tile_capacity, replication=replication
        )
        return ReallocDecision(
            replication=tuple(replication),
            occupied_tiles=occupied,
            separate_tiles=separate,
            drift=drift,
            observed_share=tuple(observed_share),
        )

    def _target_replication(
        self,
        observed_share: Sequence[float],
        workloads: Sequence[tuple[Network, Sequence[CrossbarShape]]],
        tile_capacity: int,
        tile_budget: int,
    ) -> list[int]:
        """Greedy proportional replication under the tile budget."""
        replication = [1] * len(workloads)
        while True:
            # The tenant whose copies are each carrying the most load.
            ranked = sorted(
                range(len(workloads)),
                key=lambda i: (-observed_share[i] / replication[i], i),
            )
            granted = False
            for idx in ranked:
                if replication[idx] >= self.max_replication:
                    continue
                if observed_share[idx] <= 0.0:
                    continue
                trial = list(replication)
                trial[idx] += 1
                occupied, _ = multi_network_tile_counts(
                    workloads, tile_capacity, replication=trial
                )
                if occupied <= tile_budget:
                    replication = trial
                    granted = True
                break  # only ever try the single best candidate per round
            if not granted:
                return replication
