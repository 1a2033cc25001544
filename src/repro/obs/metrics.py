"""Paper-grounded metric streams.

Central catalogue of the span / event / counter names the instrumented
subsystems emit, plus duck-typed emitters that turn the project's
result objects (``SystemMetrics``, ``CacheStats``) into trace records.
Emitters take their inputs as plain attribute bags so this package
never imports ``repro.sim`` or ``repro.core`` (they import us).

The streams mirror the quantities the AUTOHET paper reasons about:
Eq. 4 crossbar utilization (aggregate and per layer), activated-ADC
conversion counts (Fig. 5 energy driver), tile occupancy before/after
Algorithm 1 tile sharing, cache behaviour from PR 2/3, and the RL
loop's episode reward and actor/critic losses (Eq. 2 reward).
"""

from __future__ import annotations

from typing import Any

from .trace import Tracer

# -- span names ------------------------------------------------------
SPAN_EVALUATE = "sim.evaluate"        #: one cold Simulator.evaluate
SPAN_SCORE_BATCH = "sim.score_batch"  #: one (S, L) kernel pass, S >= 1
# The three stages below trace only the reference path (memoize_costs off).
SPAN_MAP = "sim.map"                  #: weight-matrix -> crossbar mapping
SPAN_ALLOCATE = "sim.allocate"        #: materialised allocation (Algorithm 1)
SPAN_COST = "sim.cost"                #: energy/latency/area rollup
SPAN_SEARCH = "search"                #: one whole strategy search
SPAN_EPISODE = "search.episode"       #: one RL episode (decide+eval+learn)
SPAN_LEARN = "search.learn"           #: one episode's pool insert + updates

# -- event names -----------------------------------------------------
EVENT_CACHE_HIT = "cache.hit"
EVENT_CACHE_MISS = "cache.miss"
EVENT_INFEASIBLE = "sim.infeasible"
EVENT_ALLOC_GROUP = "alloc.group"     #: one shape group through Algorithm 1
EVENT_CANDIDATE = "search.candidate"  #: one candidate probed by a strategy
EVENT_EPISODE = "rl.episode"          #: one finished environment episode
EVENT_SEARCH_RESULT = "search.result"
EVENT_SERVE_REALLOC = "serve.realloc"  #: one Algorithm-1 re-pack applied
EVENT_SERVE_REJECT = "serve.reject"    #: one arrival shed at the queue cap

# -- counter streams -------------------------------------------------
UTILIZATION = "sim.utilization"           #: Eq. 4 aggregate utilization
ENERGY_NJ = "sim.energy_nj"
LATENCY_NS = "sim.latency_ns"
TILE_OCCUPANCY = "alloc.occupied_tiles"   #: tiles after sharing
LAYER_UTILIZATION = "sim.layer.utilization"    #: per-layer Eq. 4 stream
LAYER_ADC = "sim.layer.adc_conversions"        #: activated-ADC counts
CACHE_HIT_RATE = "cache.hit_rate"
CRITIC_LOSS = "rl.critic_loss"
ACTOR_LOSS = "rl.actor_loss"
EPISODE_REWARD = "rl.reward"              #: Eq. 2 reward per episode

# -- serving streams (repro.serve, docs/serving.md) ------------------
SERVE_LATENCY_NS = "serve.latency_ns"     #: per-request end-to-end latency
SERVE_WAIT_NS = "serve.wait_ns"           #: queueing share of the latency
SERVE_QUEUE_DEPTH = "serve.queue_depth"   #: tenant queue depth at completion
SERVE_BATCH_SIZE = "serve.batch_size"     #: requests per pipeline dispatch
SERVE_SLO_ATTAINMENT = "serve.slo_attainment"  #: rollup, per tenant
SERVE_THROUGHPUT_RPS = "serve.throughput_rps"  #: rollup, per tenant


def emit_system_metrics(
    tracer: Tracer,
    metrics: Any,
    *,
    network: str = "",
    include_layers: bool = True,
) -> None:
    """Stream one ``SystemMetrics``-shaped result.

    Emits the aggregate utilization / energy / latency / occupancy
    counters, and (when ``include_layers`` and the result carries
    per-layer costs) the per-layer utilization and activated-ADC
    streams with ``layer`` / ``shape`` attributes.
    """
    if not tracer.enabled:
        return
    tracer.counter(UTILIZATION, metrics.utilization, network=network)
    tracer.counter(ENERGY_NJ, metrics.energy_nj, network=network)
    tracer.counter(LATENCY_NS, metrics.latency_ns, network=network)
    tracer.counter(TILE_OCCUPANCY, metrics.occupied_tiles, network=network)
    if not include_layers:
        return
    for cost in getattr(metrics, "layer_costs", ()) or ():
        tracer.counter(
            LAYER_UTILIZATION,
            cost.intra_utilization,
            layer=cost.layer_index,
            shape=cost.shape_str,
        )
        tracer.counter(
            LAYER_ADC,
            cost.adc_conversions,
            layer=cost.layer_index,
            shape=cost.shape_str,
        )


def emit_cache_lookup(
    tracer: Tracer,
    hit: Any,
    *,
    network: str = "",
    infeasible: bool = False,
) -> None:
    """Record one evaluation-cache lookup.

    ``hit`` is the cached value, ``None`` on a miss.  A miss emits
    ``cache.miss``; a hit emits ``cache.hit`` (flagged ``infeasible``
    when the cached verdict is a bank overflow) and, for a feasible hit,
    the aggregate counters of the served ``SystemMetrics``.
    """
    if not tracer.enabled:
        return
    if hit is None:
        tracer.event(EVENT_CACHE_MISS, network=network)
    elif infeasible:
        tracer.event(EVENT_CACHE_HIT, network=network, infeasible=True)
    else:
        tracer.event(EVENT_CACHE_HIT, network=network)
        emit_system_metrics(tracer, hit, network=network, include_layers=False)


def emit_cache_stats(tracer: Tracer, stats: Any, *, context: str = "") -> None:
    """Stream one ``CacheStats``-shaped snapshot as counters."""
    if not tracer.enabled:
        return
    tracer.counter("cache.hits", stats.hits, context=context)
    tracer.counter("cache.misses", stats.misses, context=context)
    tracer.counter("cache.evictions", stats.evictions, context=context)
    tracer.counter("cache.size", stats.size, context=context)
    tracer.counter(CACHE_HIT_RATE, stats.hit_rate, context=context)


def emit_serve_request(
    tracer: Tracer,
    *,
    tenant: str,
    latency_ns: float,
    wait_ns: float,
    queue_depth: int,
) -> None:
    """Stream one completed serving request (latency in nanoseconds)."""
    if not tracer.enabled:
        return
    tracer.counter(SERVE_LATENCY_NS, latency_ns, tenant=tenant)
    tracer.counter(SERVE_WAIT_NS, wait_ns, tenant=tenant)
    tracer.counter(SERVE_QUEUE_DEPTH, queue_depth, tenant=tenant)


def emit_serve_batch(tracer: Tracer, *, tenant: str, batch_size: int) -> None:
    """Stream one pipeline dispatch."""
    if not tracer.enabled:
        return
    tracer.counter(SERVE_BATCH_SIZE, batch_size, tenant=tenant)


def emit_serve_summary(
    tracer: Tracer,
    *,
    tenant: str,
    slo_attainment: float,
    throughput_rps: float,
    p50_ns: float,
    p95_ns: float,
    p99_ns: float,
) -> None:
    """Stream one tenant's end-of-run SLO rollup."""
    if not tracer.enabled:
        return
    tracer.counter(SERVE_SLO_ATTAINMENT, slo_attainment, tenant=tenant)
    tracer.counter(SERVE_THROUGHPUT_RPS, throughput_rps, tenant=tenant)
    tracer.counter(SERVE_LATENCY_NS, p50_ns, tenant=tenant, quantile="p50")
    tracer.counter(SERVE_LATENCY_NS, p95_ns, tenant=tenant, quantile="p95")
    tracer.counter(SERVE_LATENCY_NS, p99_ns, tenant=tenant, quantile="p99")


def emit_episode(
    tracer: Tracer,
    *,
    index: int,
    reward: float,
    feasible: bool,
    network: str = "",
    utilization: float | None = None,
    occupied_tiles: int | None = None,
) -> None:
    """Record one finished RL environment episode."""
    if not tracer.enabled:
        return
    tracer.counter(EPISODE_REWARD, reward, episode=index, feasible=feasible)
    attrs: dict[str, Any] = {
        "episode": index,
        "reward": reward,
        "feasible": feasible,
        "network": network,
    }
    if utilization is not None:
        attrs["utilization"] = utilization
    if occupied_tiles is not None:
        attrs["occupied_tiles"] = occupied_tiles
    tracer.event(EVENT_EPISODE, **attrs)
