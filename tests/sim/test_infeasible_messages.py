"""One infeasible verdict on every path.

An infeasible strategy surfaces in five places: the scalar reference
raises :class:`~repro.sim.simulator.CapacityError`; so does the kernel
fast path; a cached verdict re-raises it on a hit; the batch kernel
returns :class:`~repro.sim.kernels.InfeasibleScore`; and the batched
``evaluate_many`` stores that verdict in the cache.  Every surface
carries the one verdict ``kernels.capacity_verdict`` formats: equal
``InfeasibleScore`` objects, or the same ``CapacityError`` text.
"""

from __future__ import annotations

import pytest

from repro.arch.config import CrossbarShape, HardwareConfig
from repro.models.zoo import lenet
from repro.sim import kernels
from repro.sim.cache import EvaluationCache
from repro.sim.simulator import CapacityError, Simulator

#: one bank of one tile — any real workload overflows it
TINY = HardwareConfig(tiles_per_bank=1)


@pytest.fixture()
def case():
    network = lenet()
    strategy = tuple(CrossbarShape(32, 32) for _ in network.layers)
    return network, strategy


def raised_verdict(sim, network, strategy, **kwargs) -> kernels.InfeasibleScore:
    with pytest.raises(CapacityError) as excinfo:
        sim.evaluate(network, strategy, **kwargs)
    return kernels.InfeasibleScore(str(excinfo.value))


def reference_verdict(network, strategy) -> kernels.InfeasibleScore:
    sim = Simulator(config=TINY, cache=None, memoize_costs=False)
    return raised_verdict(sim, network, strategy)


def cache_key(network, strategy, *, detailed):
    return EvaluationCache.make_key(
        TINY, network, strategy,
        tile_shared=True, detailed=detailed, enforce_capacity=True,
    )


class TestMessageByteIdentity:
    def test_fast_path_raise_matches_reference(self, case):
        network, strategy = case
        sim = Simulator(config=TINY, cache=None, memoize_costs=True)
        assert raised_verdict(sim, network, strategy) == reference_verdict(
            network, strategy
        )

    def test_cached_hit_reraise_matches_reference(self, case):
        network, strategy = case
        sim = Simulator(config=TINY)
        first = raised_verdict(sim, network, strategy)
        again = raised_verdict(sim, network, strategy)
        assert sim.cache_stats().hits == 1
        assert first == again == reference_verdict(network, strategy)

    def test_evaluate_stores_the_verdict(self, case):
        network, strategy = case
        cache = EvaluationCache()
        raised_verdict(Simulator(config=TINY, cache=cache), network, strategy)
        stored = cache.get(cache_key(network, strategy, detailed=True))
        assert stored == reference_verdict(network, strategy)

    def test_vectorized_kernel_matches_scalar(self, case):
        network, strategy = case
        (outcome,) = kernels.score_strategy_batch(
            network, [strategy], TINY, tile_shared=True, enforce_capacity=True
        )
        assert outcome == reference_verdict(network, strategy)

    def test_batched_cache_sentinel_matches_scalar(self, case):
        network, strategy = case
        cache = EvaluationCache()
        sim = Simulator(config=TINY, cache=cache)
        assert sim.evaluate_many(network, [strategy, strategy]) == [None, None]
        stored = cache.get(cache_key(network, strategy, detailed=False))
        assert type(stored) is kernels.InfeasibleScore
        assert stored == reference_verdict(network, strategy)

    def test_batch_stored_verdict_reraises_on_evaluate(self, case):
        # A verdict the batch path stored is served to a later evaluate
        # as the same CapacityError text the reference raises.
        network, strategy = case
        sim = Simulator(config=TINY)
        sim.evaluate_many(network, [strategy, strategy])
        hit = raised_verdict(sim, network, strategy, detailed=False)
        assert hit == reference_verdict(network, strategy)

    def test_message_format_is_the_pinned_one(self, case):
        network, strategy = case
        message = reference_verdict(network, strategy).message
        assert "tiles; one bank holds 1" in message
        assert message.startswith("strategy needs ")

    def test_feasible_allocation_has_no_verdict(self):
        assert kernels.capacity_verdict(
            TINY.tiles_per_bank, TINY, enforce_capacity=True
        ) is None
        assert kernels.capacity_verdict(
            TINY.tiles_per_bank + 1, TINY, enforce_capacity=False
        ) is None
