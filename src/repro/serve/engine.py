"""Deterministic two-pass serving simulator.

Serves request-level multi-tenant traffic (:mod:`repro.serve.scenario`)
on models co-located by Algorithm 1, with service times from the
PipeLayer-style stage model in :mod:`repro.sim.pipeline`.  A run reads
only tile counts (:func:`repro.core.allocation.multi_network_tile_counts`)
and builds no tiles; :func:`initial_allocation` returns the materialised
plan.
Tenants interact only through re-allocation decisions, which read
arrivals alone, so a run takes two passes (docs/serving.md):

* **Pass 1** walks the merged arrivals once, consults the policy
  (:mod:`repro.serve.policy`) every ``check_every`` arrivals once a
  ``window`` has filled, and yields the re-allocation schedule.
* **Pass 2** runs each tenant as an independent FIFO conveyor over its
  own arrivals and that schedule.  A queue bounded by ``queue_cap``
  (overflow is *rejected*) feeds a pipeline whose input admits one
  request every ``bottleneck_ns``: a batch of ``k <= max_batch``
  dispatched at ``now`` frees the input at ``now + k * bottleneck_ns``
  and its ``j``-th request completes at ``now + j * bottleneck_ns +
  fill_ns`` (the batch law of :class:`repro.sim.pipeline.PipelineReport`).
  A re-allocation re-times the pipeline and stalls dispatch for
  ``stall_ns``; batches in flight drain on the old weights.

The merged ``event_log`` is ordered by time.  At equal times, arrivals
come first in request order, each followed by the dispatch it starts and
the re-allocation it triggers; then completions; then the dispatches a
conveyor starts on its own.  Remaining ties go by tenant, then by the
tenant's own order.  Arrivals come from per-tenant blake2b-seeded
streams and nothing reads a wall clock, so a scenario and seed reproduce
the log byte for byte.  Tracing is read-only: the ``serve.*`` records
are replayed from the finished log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf, nextafter
from operator import itemgetter
from typing import Any

from ..arch.config import DEFAULT_CONFIG, HardwareConfig
from ..core.allocation.multi_model import (
    MultiModelAllocation,
    allocate_multi_network,
    multi_network_tile_counts,
)
from ..models.zoo import get_model
from ..obs import current_tracer
from ..obs.metrics import (
    EVENT_SERVE_REALLOC,
    EVENT_SERVE_REJECT,
    emit_serve_batch,
    emit_serve_request,
)
from ..sim.pipeline import pipeline_report
from ..sim.units_constants import NS_PER_S
from .policy import DriftReallocationPolicy, ReallocationPolicy
from .scenario import Scenario, TenantSpec, generate_arrivals


@dataclass(frozen=True)
class TenantResult:
    """Immutable per-tenant outcome of one serving run."""

    name: str
    model: str
    slo_ns: float
    arrivals: int
    completed: int
    rejected: int
    replication: int
    latencies_ns: tuple[float, ...]
    waits_ns: tuple[float, ...]

    @property
    def in_flight(self) -> int:
        """Requests neither completed nor rejected at the horizon."""
        return self.arrivals - self.completed - self.rejected


@dataclass(frozen=True)
class ServeResult:
    """Complete outcome of one serving run (input to the report layer)."""

    scenario: Scenario
    tenants: tuple[TenantResult, ...]
    event_log: tuple[dict[str, Any], ...]
    realloc_events: tuple[dict[str, Any], ...]
    end_ns: float
    events_processed: int
    initial_tiles: int
    final_tiles: int
    tile_budget: int

    @property
    def total_arrivals(self) -> int:
        return sum(t.arrivals for t in self.tenants)

    @property
    def total_completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def total_rejected(self) -> int:
        return sum(t.rejected for t in self.tenants)


class _Conveyor:
    """Pass 2: one tenant's FIFO queue in front of its streaming pipeline.

    Before each input (an own arrival or a scheduled re-allocation) at
    time ``t``, the conveyor advances on its own through the wake-ups,
    input-frees and completions strictly before ``t``.  Log entries go
    to ``stream`` as ``(t, rank, tenant, seq, entry)``, a key that sorts
    into the module's merge order; ``events`` counts everything but
    arrivals processed up to the horizon.
    """

    def __init__(
        self, index: int, spec: TenantSpec, scenario: Scenario, n_arrivals: int
    ) -> None:
        self.index, self.name, self.scenario = index, spec.name, scenario
        self.network = get_model(spec.model)
        self.strategy = spec.strategy_shapes(self.network.num_layers)
        self.rank = n_arrivals  # completions rank after every arrival
        self._retime(1)
        self.queue: deque = deque()     # (req_id, arrival_ns)
        self.inflight: deque = deque()  # (done_ns, req_id, arrival_ns, fill_ns)
        self.wakes: deque = deque()     # pending wake-ups, non-decreasing
        self.free_at = inf              # pending input-free; inf when idle
        self.stall_until = 0.0
        self.rejected = self.events = 0
        self.latencies: list[float] = []
        self.waits: list[float] = []
        self.stream: list[tuple] = []

    def _retime(self, replication: int) -> None:
        report = pipeline_report(
            self.network,
            self.strategy,
            replication=[replication] * self.network.num_layers,
        )
        self.replication = replication
        self.bottleneck_ns, self.fill_ns = report.bottleneck_ns, report.fill_ns

    def run(self, times, req_ids, schedule, horizon: float) -> None:
        """Serve the tenant's arrivals under the ``(req_id, t, decision)``
        schedule; a decision applies right after the arrival that
        triggered it.  Nothing at or past ``horizon`` is processed."""
        pending = deque(schedule)
        cap = self.scenario.queue_cap
        for t, req_id in zip(times, req_ids):
            while pending and pending[0][0] < req_id:
                self._realloc(*pending.popleft())
            self._advance(t)
            kind = "reject" if cap and len(self.queue) >= cap else "arrival"
            self.stream.append(
                (t, req_id, self.index, len(self.stream),
                 {"t": t, "kind": kind, "tenant": self.name, "req": req_id})
            )
            if kind == "reject":
                self.rejected += 1
                continue
            self.queue.append((req_id, t))
            if self.free_at == inf and t >= self.stall_until:
                self._dispatch(t, req_id)
        for item in pending:
            self._realloc(*item)
        self._advance(horizon)

    def _realloc(self, req_id: int, t: float, decision) -> None:
        self._advance(t)
        if decision.replication[self.index] != self.replication:
            self._retime(decision.replication[self.index])
        self.stall_until = t + self.scenario.realloc.stall_ns
        if self.free_at == inf:
            # An idle input needs a wake-up once the weight rewrite ends.
            self.wakes.append(self.stall_until)

    def _advance(self, limit: float) -> None:
        """Process wake-ups, input-frees and completions before ``limit``.

        Wake-ups are only scheduled while the input idles, and nothing
        dispatches before their stall ends, so they never tie with an
        input-free.
        """
        while True:
            wake = self.wakes[0] if self.wakes else inf
            now = min(wake, self.free_at)
            if now >= limit:
                break
            self.events += 1
            if wake <= self.free_at:
                self.wakes.popleft()
                if self.free_at < inf or now < self.stall_until:
                    continue
            else:
                self.free_at = inf
                if now < self.stall_until:
                    self.wakes.append(self.stall_until)
                    continue
            if self.queue:
                self._dispatch(now, self.rank + 1)
        self._complete(limit)

    def _dispatch(self, now: float, rank: int) -> None:
        """Admit up to ``max_batch`` queued requests into the pipeline."""
        self._complete(now)
        queue, inflight = self.queue, self.inflight
        k = min(self.scenario.max_batch, len(queue))
        b, fill = self.bottleneck_ns, self.fill_ns
        overtakes = inflight and inflight[-1][0] > now + fill
        for j in range(k):
            inflight.append((now + j * b + fill, *queue.popleft(), fill))
        if overtakes:
            # A re-time shortened the pipeline: this batch overtakes
            # requests still draining on the old weights.
            self.inflight = deque(sorted(inflight, key=itemgetter(0)))
        self.free_at = now + k * b
        self.stream.append(
            (now, rank, self.index, len(self.stream),
             {"t": now, "kind": "dispatch", "tenant": self.name, "batch": k})
        )

    def _complete(self, bound: float) -> None:
        """Retire the in-flight requests that finish before ``bound``."""
        inflight = self.inflight
        while inflight and inflight[0][0] < bound:
            done, req_id, arrival, fill = inflight.popleft()
            latency = done - arrival
            self.latencies.append(latency)
            # (arrival + fill) - arrival rounds below fill for large
            # arrival times; the queueing share is never negative.
            self.waits.append(max(0.0, latency - fill))
            self.events += 1
            self.stream.append(
                (done, self.rank, self.index, len(self.stream),
                 {"t": done, "kind": "complete", "tenant": self.name,
                  "req": req_id, "latency_ns": latency})
            )


def simulate(
    scenario: Scenario,
    *,
    config: HardwareConfig = DEFAULT_CONFIG,
    policy: ReallocationPolicy | None = None,
) -> ServeResult:
    """Run one serving scenario to completion.

    ``policy`` overrides the default drift policy built from
    ``scenario.realloc`` (pass one to plug in a custom re-allocation
    strategy; it is only consulted when ``scenario.realloc.enabled``).
    """
    tracer = current_tracer()
    capacity = config.logical_xbars_per_tile
    realloc_cfg = scenario.realloc
    if policy is None:
        policy = DriftReallocationPolicy(
            threshold=realloc_cfg.threshold,
            cooldown_ns=realloc_cfg.cooldown_ns,
        )
    per_tenant_arrivals = [
        generate_arrivals(spec, scenario.duration_ns, scenario.seed)
        for spec in scenario.tenants
    ]
    merged = sorted(
        (t, idx) for idx, times in enumerate(per_tenant_arrivals) for t in times
    )
    conveyors = [
        _Conveyor(index, spec, scenario, len(merged))
        for index, spec in enumerate(scenario.tenants)
    ]
    n = len(conveyors)
    workloads = [(c.network, c.strategy) for c in conveyors]
    initial_tiles, _ = multi_network_tile_counts(workloads, capacity)
    tile_budget = int(realloc_cfg.headroom * initial_tiles)

    # Provisioned mix: what the initial allocation was sized for.
    expected_rates = [
        len(times) / scenario.duration_ns * NS_PER_S
        for times in per_tenant_arrivals
    ]
    rate_total = sum(expected_rates)
    provisioned_share = [
        (r / rate_total if rate_total else 1.0 / n) for r in expected_rates
    ]

    # --- pass 1: the re-allocation schedule, from arrivals alone -------
    req_ids: list[list[int]] = [[] for _ in range(n)]
    schedule = []
    window: deque = deque(maxlen=realloc_cfg.window)
    last_realloc_ns = -inf
    replication = [1] * n
    for req_id, (t, idx) in enumerate(merged):
        req_ids[idx].append(req_id)
        window.append(idx)
        if (
            not realloc_cfg.enabled
            or len(window) < realloc_cfg.window
            or (req_id + 1) % realloc_cfg.check_every
        ):
            continue
        decision = policy.decide(
            now_ns=t,
            observed_share=[window.count(i) / len(window) for i in range(n)],
            provisioned_share=provisioned_share,
            current_replication=replication,
            workloads=workloads,
            tile_capacity=capacity,
            tile_budget=tile_budget,
            last_realloc_ns=last_realloc_ns,
        )
        if decision is not None:
            last_realloc_ns = t
            provisioned_share = list(decision.observed_share)
            replication = list(decision.replication)
            schedule.append((req_id, t, decision))
    realloc_log = tuple(
        {
            "t": t,
            "kind": "realloc",
            "replication": list(decision.replication),
            "tiles": decision.occupied_tiles,
            "tiles_saved": decision.tiles_saved,
            "drift": decision.drift,
            "observed_share": list(decision.observed_share),
        }
        for _, t, decision in schedule
    )

    # --- pass 2: one independent conveyor per tenant -------------------
    horizon = inf if scenario.drain else nextafter(scenario.duration_ns, inf)
    for conveyor, times, ids in zip(conveyors, per_tenant_arrivals, req_ids):
        conveyor.run(times, ids, schedule, horizon)

    # --- merge: the streams are in order, so sorting merges runs -------
    items = [item for c in conveyors for item in c.stream]
    items.extend(
        (entry["t"], req_id, n, 0, dict(entry))
        for (req_id, _, _), entry in zip(schedule, realloc_log)
    )
    items.sort()  # (rank, tenant, seq) is unique: entries never compare
    log = tuple(item[-1] for item in items)
    if tracer.enabled:
        _emit_trace(tracer, log, conveyors)

    # A drained run ends with its last completion, the latest logged event.
    end_ns = scenario.duration_ns
    if scenario.drain and log:
        end_ns = max(end_ns, log[-1]["t"])
    return ServeResult(
        scenario=scenario,
        tenants=tuple(
            TenantResult(
                name=c.name,
                model=spec.model,
                slo_ns=spec.slo_ns,
                arrivals=len(times),
                completed=len(c.latencies),
                rejected=c.rejected,
                replication=c.replication,
                latencies_ns=tuple(c.latencies),
                waits_ns=tuple(c.waits),
            )
            for c, spec, times in zip(
                conveyors, scenario.tenants, per_tenant_arrivals
            )
        ),
        event_log=log,
        realloc_events=realloc_log,
        end_ns=end_ns,
        events_processed=len(merged) + sum(c.events for c in conveyors),
        initial_tiles=initial_tiles,
        final_tiles=realloc_log[-1]["tiles"] if realloc_log else initial_tiles,
        tile_budget=tile_budget,
    )


def _emit_trace(tracer, log, conveyors) -> None:
    """Replay a finished event log as ``serve.*`` trace records."""
    depth = {c.name: 0 for c in conveyors}
    waits = {c.name: iter(c.waits) for c in conveyors}
    for e in log:
        kind, name = e["kind"], e.get("tenant")
        if kind == "realloc":
            replication = ",".join(map(str, e["replication"]))
            tracer.event(EVENT_SERVE_REALLOC, tiles=e["tiles"],
                         drift=e["drift"], replication=replication)
        elif kind == "reject":
            tracer.event(EVENT_SERVE_REJECT, tenant=name)
        elif kind == "arrival":
            depth[name] += 1
        elif kind == "dispatch":
            depth[name] -= e["batch"]
            emit_serve_batch(tracer, tenant=name, batch_size=e["batch"])
        else:
            emit_serve_request(tracer, tenant=name, latency_ns=e["latency_ns"],
                               wait_ns=next(waits[name]),
                               queue_depth=depth[name])


def initial_allocation(
    scenario: Scenario, *, config: HardwareConfig = DEFAULT_CONFIG
) -> MultiModelAllocation:
    """The Algorithm-1 packing a scenario starts from (no replication)."""
    workloads = []
    for spec in scenario.tenants:
        network = get_model(spec.model)
        workloads.append((network, spec.strategy_shapes(network.num_layers)))
    return allocate_multi_network(workloads, config.logical_xbars_per_tile)
