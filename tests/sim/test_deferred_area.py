"""The batch scorer's deferred ``SystemMetrics.area_um2``.

The fast path hands :class:`~repro.sim.metrics.SystemMetrics` a
computation for its area (:func:`repro.sim.kernels.strategy_area_um2`),
run on the first read.  These tests pin that no search pays the per-tile
area fold, and that a deferred metric behaves as the value the reference
path builds: equal, hashed, printed, copied and pickled alike, with the
reference's bits.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from repro.arch.config import DEFAULT_CANDIDATES, CrossbarShape
from repro.core.search import annealing, strategies
from repro.models import resnet152, vgg16
from repro.sim import kernels
from repro.sim.simulator import Simulator


def reference(network, strategy, *, tile_shared=True):
    sim = Simulator(cache=None, memoize_costs=False)
    return sim.evaluate(network, strategy, tile_shared=tile_shared, detailed=False)


def random_strategy(network, seed, shapes=DEFAULT_CANDIDATES):
    rng = random.Random(seed)
    return [rng.choice(shapes) for _ in network.layers]


def is_deferred(metrics):
    return callable(vars(metrics)["area_um2"])


@pytest.fixture(scope="module")
def vgg():
    return vgg16()


class TestSearchesNeverFoldArea:
    def test_local_search_folds_area_only_when_read(self, monkeypatch):
        calls = []
        fold = kernels.area_from_layer_runs

        def counting_fold(tile_areas, counts):
            calls.append(len(counts))
            return fold(tile_areas, counts)

        monkeypatch.setattr(kernels, "area_from_layer_runs", counting_fold)
        network = resnet152()
        sim = Simulator()
        greedy = strategies.greedy_reward_strategy(
            network, DEFAULT_CANDIDATES, sim
        )
        greedy_metrics = sim.evaluate(network, greedy, detailed=False)
        anneal = annealing.simulated_annealing(
            network, DEFAULT_CANDIDATES, sim, rounds=40, seed=3
        )
        assert calls == []
        best = max((greedy_metrics, anneal.metrics), key=lambda m: m.rue)
        area = best.area_um2
        assert len(calls) == 1
        assert best.area_um2 == area
        assert len(calls) == 1
        shapes = [CrossbarShape.parse(text) for text in best.strategy]
        assert area == reference(network, shapes).area_um2


class TestDeferredMetricIsAValue:
    @pytest.fixture(params=[True, False], ids=["shared", "plain"])
    def pair(self, request, vgg):
        strategy = random_strategy(vgg, 7)
        fast = Simulator().evaluate(
            vgg, strategy, tile_shared=request.param, detailed=False
        )
        assert is_deferred(fast)
        return fast, reference(vgg, strategy, tile_shared=request.param)

    def test_equal_and_hash(self, pair):
        fast, ref = pair
        assert fast == ref
        assert hash(fast) == hash(ref)
        assert not is_deferred(fast)

    def test_repr(self, pair):
        fast, ref = pair
        assert repr(fast) == repr(ref)

    def test_replace(self, pair):
        fast, ref = pair
        copied = dataclasses.replace(fast, network_name="other")
        assert copied == dataclasses.replace(ref, network_name="other")
        assert not is_deferred(copied)

    def test_asdict(self, pair):
        fast, ref = pair
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)

    def test_deepcopy(self, pair):
        fast, ref = pair
        copied = copy.deepcopy(fast)
        assert copied == ref
        assert not is_deferred(copied)

    def test_pickle_holds_the_float(self, pair):
        fast, ref = pair
        data = pickle.dumps(fast)
        for name in (b"strategy_area_um2", b"functools", b"repro.models"):
            assert name not in data
        loaded = pickle.loads(data)
        assert type(vars(loaded)["area_um2"]) is float
        assert loaded == ref


class TestDeferredAreaAfterTheTableChanged:
    def test_read_after_a_new_shape_grew_the_table(self):
        network = vgg16()
        sim = Simulator()
        first = random_strategy(network, 11)
        metrics = sim.evaluate(network, first, detailed=False)
        constants = kernels.network_constants(
            kernels.network_arrays(network), sim.config
        )
        table = constants.table
        sim.evaluate(network, [CrossbarShape(128, 128)] + first[1:], detailed=False)
        assert constants.table is not table
        assert is_deferred(metrics)
        assert metrics.area_um2 == reference(network, first).area_um2

    def test_read_after_the_table_was_dropped(self):
        network = vgg16()
        sim = Simulator()
        strategy = random_strategy(network, 13)
        metrics = sim.evaluate(network, strategy, detailed=False)
        # An emptied memo (it is bounded) takes the pair's table with it.
        vars(kernels.network_arrays(network))["_memo"].clear()
        assert is_deferred(metrics)
        assert metrics.area_um2 == reference(network, strategy).area_um2
