"""Multi-threaded stress tests for the shared evaluation cache.

A caller may share one simulator — and one :class:`EvaluationCache` —
across threads.  These tests hammer :meth:`Simulator.try_evaluate` from
an eight-worker thread pool with a batch built to collide (each strategy
appears several times), then check the two properties the static
analyzer can only assert statically:

* the parallel results are bit-identical to the serial ones, and
* the cache counters survive without lost updates
  (``hits + misses == lookups`` and every entry is accounted for).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.arch.config import DEFAULT_CANDIDATES
from repro.sim.cache import EvaluationCache
from repro.sim.simulator import Simulator

MAX_WORKERS = 8
REPEATS = 6


def strategies_for(network, count=8):
    shapes = DEFAULT_CANDIDATES
    return [
        tuple(shapes[(i + j) % len(shapes)] for j in range(network.num_layers))
        for i in range(count)
    ]


def evaluate_threaded(sim, network, batch):
    """``try_evaluate`` every strategy from a pool sharing ``sim``."""
    with ThreadPoolExecutor(max_workers=MAX_WORKERS) as pool:
        return list(
            pool.map(
                lambda s: sim.try_evaluate(network, s, detailed=False), batch
            )
        )


def colliding_batch(network, distinct=4, repeats=REPEATS):
    """A batch where every strategy recurs, to force concurrent hits."""
    base = strategies_for(network, count=distinct)
    return base * repeats


@pytest.mark.parametrize("net_fixture", ["tiny_net", "lenet_net"])
def test_thread_pool_matches_serial_bit_for_bit(net_fixture, request):
    network = request.getfixturevalue(net_fixture)
    batch = colliding_batch(network)
    serial = Simulator().evaluate_many(network, batch)

    threaded = evaluate_threaded(Simulator(), network, batch)
    assert threaded == serial


def test_cache_counters_are_consistent_under_contention(lenet_net):
    sim = Simulator()
    batch = colliding_batch(lenet_net)
    results = evaluate_threaded(sim, lenet_net, batch)
    assert all(m is not None for m in results)

    stats = sim.cache_stats()
    # No lost counter updates: every lookup is either a hit or a miss,
    # and one evaluation ran per distinct strategy.
    assert stats.hits + stats.misses == stats.lookups
    assert stats.lookups == len(batch)
    distinct = len(set(batch))
    assert stats.misses == distinct
    assert stats.hits == len(batch) - distinct
    assert stats.size == distinct
    assert stats.evictions == 0


def test_warm_cache_serves_every_thread(lenet_net):
    sim = Simulator()
    batch = strategies_for(lenet_net, count=4)
    warm = sim.evaluate_many(lenet_net, batch)

    hot = evaluate_threaded(sim, lenet_net, batch * REPEATS)
    assert hot == warm * REPEATS
    stats = sim.cache_stats()
    assert stats.misses == len(batch)
    assert stats.hits == stats.lookups - stats.misses


def test_concurrent_eviction_keeps_counters_consistent(lenet_net):
    # A cache smaller than the working set forces concurrent evictions.
    sim = Simulator(cache=EvaluationCache(max_size=2))
    batch = colliding_batch(lenet_net, distinct=6, repeats=4)
    serial = Simulator().evaluate_many(lenet_net, batch)

    results = evaluate_threaded(sim, lenet_net, batch)
    assert results == serial
    stats = sim.cache_stats()
    assert stats.hits + stats.misses == stats.lookups
    assert stats.lookups == len(batch)
    assert stats.size <= 2
    assert stats.evictions == stats.misses - stats.size


def test_single_flight_dedupes_concurrent_misses(tiny_net, monkeypatch):
    """Concurrent misses on one key run the evaluation exactly once.

    The NumPy kernel path releases the GIL, so without the cache's
    single-flight claim protocol two threads could both miss the same
    key and evaluate it twice (the pure-Python scalar path only dodged
    this because its compute fits inside one GIL switch interval).  A
    deliberately slow evaluation makes the pre-fix race deterministic:
    every thread would miss before the first one finished.
    """
    import threading
    import time

    sim = Simulator()
    strategy = strategies_for(tiny_net, count=1)[0]
    calls = []
    original = Simulator._evaluate_impl

    def slow_impl(self, *args, **kwargs):
        calls.append(1)
        time.sleep(0.05)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "_evaluate_impl", slow_impl)
    results = []
    threads = [
        threading.Thread(
            target=lambda: results.append(
                sim.evaluate(tiny_net, strategy, detailed=False)
            )
        )
        for _ in range(MAX_WORKERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(calls) == 1
    assert len(set(map(id, results))) == 1  # every thread got the one entry
    stats = sim.cache_stats()
    assert (stats.misses, stats.hits) == (1, MAX_WORKERS - 1)
    assert stats.hits + stats.misses == stats.lookups


def test_repeated_stress_rounds_stay_deterministic(tiny_net):
    batch = colliding_batch(tiny_net, distinct=3, repeats=4)
    reference = Simulator().evaluate_many(tiny_net, batch)
    for _ in range(3):
        sim = Simulator()
        assert evaluate_threaded(sim, tiny_net, batch) == reference
        stats = sim.cache_stats()
        assert stats.hits + stats.misses == stats.lookups
