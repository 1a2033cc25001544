"""Tests for the simulated-annealing baseline."""

import pytest

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES
from repro.core.search import (
    AnnealingSchedule,
    simulated_annealing,
)


class TestSchedule:
    def test_defaults_valid(self):
        AnnealingSchedule()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=0)
        with pytest.raises(ValueError):
            AnnealingSchedule(cooling=1.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(min_temperature=0)


class TestSearch:
    def test_returns_valid_strategy(self, lenet_net, simulator):
        strategy, metrics = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=30, seed=0
        )
        assert len(strategy) == lenet_net.num_layers
        assert set(strategy) <= set(DEFAULT_CANDIDATES)
        assert metrics.reward > 0

    def test_never_worse_than_best_uniform(self, lenet_net, simulator):
        """The start point is the best uniform strategy; best-tracking
        guarantees we never return below it."""
        strategy, metrics = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=20, seed=1
        )
        for cand in DEFAULT_CANDIDATES:
            uniform = simulator.evaluate(
                lenet_net,
                tuple(cand for _ in lenet_net.layers),
                tile_shared=True,
                detailed=False,
            )
            assert metrics.reward >= uniform.reward

    def test_deterministic_by_seed(self, lenet_net, simulator):
        a = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=25, seed=4
        )
        b = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=25, seed=4
        )
        assert a[0] == b[0]
        assert a[1].reward == b[1].reward

    def test_more_rounds_never_worse(self, lenet_net, simulator):
        few = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=5, seed=2
        )
        # Same seed: the first 5 proposals are a prefix, and best-tracking
        # is monotone over proposals.
        many = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=60, seed=2
        )
        assert many[1].reward >= few[1].reward

    def test_rejects_bad_args(self, lenet_net):
        with pytest.raises(ValueError):
            simulated_annealing(lenet_net, DEFAULT_CANDIDATES, rounds=0)
        with pytest.raises(ValueError):
            simulated_annealing(lenet_net, (), rounds=5)

    def test_single_candidate_degenerates_to_uniform(self, lenet_net, simulator):
        only = (CrossbarShape(72, 64),)
        strategy, _ = simulated_annealing(
            lenet_net, only, simulator, rounds=5, seed=0
        )
        assert set(strategy) == set(only)

    def test_tile_shared_flag(self, lenet_net, simulator):
        _, shared = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=10,
            tile_shared=True, seed=0,
        )
        _, unshared = simulated_annealing(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=10,
            tile_shared=False, seed=0,
        )
        assert shared.tile_shared and not unshared.tile_shared
