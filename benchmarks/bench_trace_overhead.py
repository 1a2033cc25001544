"""Trace-overhead smoke: the disabled tracer must be (almost) free.

Tracing is opt-in; the cost when it is *off* is what every search pays,
so it is budgeted: the instrumented cached-hit path of
``Simulator.evaluate`` — the ~microsecond operation RL search repeats
hundreds of thousands of times (§4.5) — must stay within 5% of an
uninstrumented baseline that performs the same key-build/lookup work
with no tracer guards at all.

Timing pairs the two paths round by round: each round times one batch
of the baseline and one of the instrumented path back to back and
records the per-round ratio.  Back-to-back pairing makes each ratio
immune to slow drift (frequency scaling, thermal throttling), and the
*median* over many rounds discards the minority of rounds a scheduler
preemption lands in.  CI runs this file as a plain pytest module; no
benchmark plugin is required.
"""

from __future__ import annotations

import time

from repro.arch.config import DEFAULT_CANDIDATES
from repro.models import lenet
from repro.sim.cache import EvaluationCache
from repro.sim.kernels import InfeasibleScore
from repro.sim.simulator import Simulator

#: allowed slowdown of the instrumented (but disabled) hot path
OVERHEAD_BUDGET = 1.05

BATCH = 2_000
REPEATS = 50


def untraced_hit_baseline(sim: Simulator, network, strategy) -> object:
    """The cached-hit path of ``Simulator.evaluate`` without tracer hooks.

    Does what ``evaluate`` does on a hit, minus the tracer resolution and
    the ``tracer.enabled`` guards: tuple the strategy, build the key,
    probe the cache through ``get`` (the same lookup ``evaluate`` makes),
    check for the infeasible verdict, return the hit.
    """
    strategy = tuple(strategy)
    key = EvaluationCache.make_key(
        sim.config,
        network,
        strategy,
        tile_shared=True,
        detailed=False,
        enforce_capacity=sim.enforce_capacity,
    )
    hit = sim.cache.get(key)
    if hit is not None:
        if isinstance(hit, InfeasibleScore):
            raise AssertionError("benchmark strategy must be feasible")
        return hit
    raise AssertionError("benchmark expects a warm cache")


def _timed_batch(fn) -> float:
    t0 = time.perf_counter()
    for _ in range(BATCH):
        fn()
    return (time.perf_counter() - t0) / BATCH


def measure() -> tuple[float, float]:
    """(baseline_s, instrumented_s) per cached-hit evaluate."""
    network = lenet()
    strategy = tuple(
        DEFAULT_CANDIDATES[i % len(DEFAULT_CANDIDATES)]
        for i in range(network.num_layers)
    )
    sim = Simulator()
    sim.evaluate(network, strategy, tile_shared=True, detailed=False)  # warm

    def baseline_fn():
        untraced_hit_baseline(sim, network, strategy)

    def instrumented_fn():
        sim.evaluate(network, strategy, tile_shared=True, detailed=False)

    _timed_batch(baseline_fn)  # warm both paths before measuring
    _timed_batch(instrumented_fn)
    pairs = []
    for _ in range(REPEATS):
        pairs.append((_timed_batch(baseline_fn), _timed_batch(instrumented_fn)))
    # Median of the per-round (baseline, instrumented) pairs by ratio.
    pairs.sort(key=lambda p: p[1] / p[0])
    return pairs[len(pairs) // 2]


def test_null_tracer_overhead_within_budget():
    baseline, current = measure()
    ratio = current / baseline
    print(
        f"\ncached-hit evaluate: baseline {baseline * 1e6:.3f} us, "
        f"instrumented {current * 1e6:.3f} us, ratio {ratio:.3f} "
        f"(budget {OVERHEAD_BUDGET:.2f})"
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled-tracer overhead {ratio:.3f}x exceeds the "
        f"{OVERHEAD_BUDGET:.2f}x budget "
        f"(baseline {baseline * 1e6:.3f} us, instrumented {current * 1e6:.3f} us)"
    )


if __name__ == "__main__":
    baseline, current = measure()
    print(f"baseline      {baseline * 1e6:.3f} us/hit")
    print(f"instrumented  {current * 1e6:.3f} us/hit")
    print(f"ratio         {current / baseline:.3f}")
