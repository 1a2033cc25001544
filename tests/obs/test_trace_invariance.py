"""Trace-invariance battery: tracing changes no result bit.

The observability layer's core contract is that instrumentation is
*read-only*: running the simulator or any search with a live tracer
attached must produce results bit-identical to the untraced run — same
metrics, same cache keys, same seed-for-seed search trajectories.
These tests pin that contract for the evaluate hot path (VGG16 and
ResNet152), for the cache state, and for every search entry point
(greedy, random, annealing, AutoHet RL).
"""

from contextlib import contextmanager

import pytest

from repro.arch.config import DEFAULT_CANDIDATES
from repro.core.autohet import autohet_search
from repro.core.search.annealing import simulated_annealing
from repro.core.search.strategies import greedy_reward_strategy, random_search
from repro.obs import Tracer, use_tracer
from repro.obs.sinks import InMemorySink
from repro.sim.simulator import Simulator


@contextmanager
def tracing():
    """Attach a live tracer for the block; yields its sink."""
    sink = InMemorySink()
    with use_tracer(Tracer([sink])):
        yield sink


def mixed_strategy(network):
    """A heterogeneous strategy cycling all five candidates."""
    return tuple(
        DEFAULT_CANDIDATES[i % len(DEFAULT_CANDIDATES)]
        for i in range(network.num_layers)
    )


NETWORK_FIXTURES = ("vgg_net", "resnet_net")


class TestEvaluateInvariance:
    @pytest.mark.parametrize("fixture", NETWORK_FIXTURES)
    def test_metrics_bit_identical(self, fixture, request):
        network = request.getfixturevalue(fixture)
        strategy = mixed_strategy(network)
        m_plain = Simulator().evaluate(network, strategy, detailed=True)
        with tracing() as sink:
            m_traced = Simulator().evaluate(network, strategy, detailed=True)
        # SystemMetrics is a frozen dataclass: == is exact, field by field.
        assert m_plain == m_traced
        assert len(sink) > 0  # tracing actually happened

    @pytest.mark.parametrize("fixture", NETWORK_FIXTURES)
    def test_cache_state_identical(self, fixture, request):
        """Same evaluation sequence -> same cache keys and counters."""
        network = request.getfixturevalue(fixture)
        strategy = mixed_strategy(network)
        plain, traced = Simulator(), Simulator()

        def run(sim):
            sim.evaluate(network, strategy, detailed=True)
            sim.evaluate(network, strategy, detailed=True)  # hit
            sim.evaluate(network, strategy, detailed=False)  # distinct key

        run(plain)
        with tracing():
            run(traced)
        assert list(plain.cache._entries.keys()) == list(
            traced.cache._entries.keys()
        )
        assert plain.cache_stats() == traced.cache_stats()

    def test_ambient_tracer_invariance(self, vgg_net):
        """Tracing via use_tracer (the CLI path) is equally invisible."""
        strategy = mixed_strategy(vgg_net)
        baseline = Simulator().evaluate(vgg_net, strategy, detailed=True)
        sink = InMemorySink()
        with use_tracer(Tracer([sink])):
            ambient = Simulator().evaluate(vgg_net, strategy, detailed=True)
        assert ambient == baseline
        assert len(sink) > 0

    def test_infeasible_verdict_invariant(self, vgg_net):
        """Capacity failures trace identically too (event, not crash)."""
        big = tuple(DEFAULT_CANDIDATES[0] for _ in range(vgg_net.num_layers))
        plain, traced = Simulator(), Simulator()
        verdict = plain.try_evaluate(vgg_net, big, tile_shared=False)
        with tracing():
            assert verdict == traced.try_evaluate(
                vgg_net, big, tile_shared=False
            )
        # Both verdicts cached under the same key either way.
        assert list(plain.cache._entries.keys()) == list(
            traced.cache._entries.keys()
        )


class TestIncrementalGroupEvents:
    """A neighbour's allocation summary is updated from the strategy
    scored before it, yet its trace is the trace of a fresh scoring."""

    @staticmethod
    def group_events(sink):
        return [
            r["attrs"]
            for r in sink.records
            if r["type"] == "event" and r["name"] == "alloc.group"
        ]

    def test_greedy_sweep_emits_fresh_group_events(self, resnet_net, monkeypatch):
        from repro.sim import kernels

        bases = []
        real = kernels.summarize_counts

        def spy(*args, **kwargs):
            bases.append(kwargs.get("base") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "summarize_counts", spy)
        # Two layers of a coordinate-ascent sweep: each layer scores one
        # batch of its candidates, then keeps the first.
        strategy = list(mixed_strategy(resnet_net))
        scored = []
        sim = Simulator(cache=None)
        with tracing() as sink:
            for layer in (40, 41):
                trials = []
                for shape in DEFAULT_CANDIDATES:
                    trial = list(strategy)
                    trial[layer] = shape
                    trials.append(tuple(trial))
                sim.evaluate_many(resnet_net, trials)
                scored += trials
                strategy[layer] = DEFAULT_CANDIDATES[0]
        assert len(bases) == len(scored) and all(bases[1:])

        fresh = []
        for trial in scored:
            with tracing() as fresh_sink:
                Simulator(cache=None).evaluate(
                    resnet_net, trial, detailed=False
                )
            events = self.group_events(fresh_sink)
            # First appearance in layer order.
            first = {s._str: i for i, s in reversed(list(enumerate(trial)))}
            assert [e["shape"] for e in events] == sorted(first, key=first.get)
            fresh += events
        assert self.group_events(sink) == fresh


class TestSearchInvariance:
    def test_greedy_identical(self, lenet_net):
        plain_sim, sim = Simulator(), Simulator()
        plain = greedy_reward_strategy(lenet_net, DEFAULT_CANDIDATES, plain_sim)
        with tracing() as sink:
            traced = greedy_reward_strategy(lenet_net, DEFAULT_CANDIDATES, sim)
        assert plain == traced
        assert plain_sim.cache_stats() == sim.cache_stats()
        assert len(sink) > 0

    def test_random_search_identical_seed_for_seed(self, lenet_net):
        for seed in (0, 3):
            plain_sim, sim = Simulator(), Simulator()
            plain = random_search(
                lenet_net, DEFAULT_CANDIDATES, plain_sim, rounds=12, seed=seed
            )
            with tracing():
                traced = random_search(
                    lenet_net, DEFAULT_CANDIDATES, sim, rounds=12, seed=seed
                )
            assert plain_sim.cache_stats() == sim.cache_stats()
            assert plain.strategy == traced.strategy
            assert plain.metrics == traced.metrics
            assert plain.evaluations == traced.evaluations
            assert plain.infeasible == traced.infeasible

    def test_annealing_identical_seed_for_seed(self, lenet_net):
        """The acceptance test consumes RNG draws; tracing must not
        perturb the draw order, so the whole trajectory must match."""
        plain = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, Simulator(), rounds=40, seed=5
        )
        with tracing() as sink:
            traced = simulated_annealing(
                lenet_net, DEFAULT_CANDIDATES, Simulator(), rounds=40, seed=5
            )
        assert plain.strategy == traced.strategy
        assert plain.metrics == traced.metrics
        assert plain.infeasible == traced.infeasible
        summary = sink.summary()
        assert summary.events["search.candidate"] == 40

    def test_autohet_identical_seed_for_seed(self, lenet_net):
        """Full RL search: tracer hooks in the env, the agent and the
        episode loop must leave the learning trajectory untouched."""
        plain = autohet_search(
            lenet_net, DEFAULT_CANDIDATES, rounds=8, seed=1
        )
        with tracing():
            traced = autohet_search(
                lenet_net, DEFAULT_CANDIDATES, rounds=8, seed=1
            )
        # Everything except wall-clock timings must be bit-identical.
        assert plain.best_strategy == traced.best_strategy
        assert plain.best_metrics == traced.best_metrics
        assert plain.reward_history == traced.reward_history
        assert plain.best_reward_history == traced.best_reward_history
        assert plain.seed_episodes == traced.seed_episodes
        assert plain.infeasible_episodes == traced.infeasible_episodes
