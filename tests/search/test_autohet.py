"""Tests for the AutoHet RL search pipeline."""

import pytest

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES
from repro.core import AutoHet, autohet_search
from repro.core.search import homogeneous_strategy, random_search


class TestSearchResult:
    def test_structure(self, lenet_net):
        result = autohet_search(lenet_net, rounds=15, seed=0)
        assert result.network_name == "LeNet"
        assert len(result.best_strategy) == lenet_net.num_layers
        # History includes the |C| homogeneous probe episodes.
        assert len(result.reward_history) == 15 + len(DEFAULT_CANDIDATES)
        assert len(result.best_reward_history) == len(result.reward_history)
        assert result.rounds == 15

    def test_best_curve_monotone(self, lenet_net):
        result = autohet_search(lenet_net, rounds=20, seed=1)
        curve = result.best_reward_history
        assert all(a <= b + 1e-18 for a, b in zip(curve, curve[1:]))
        assert curve[-1] == max(result.reward_history)

    def test_best_metrics_match_best_reward(self, lenet_net):
        result = autohet_search(lenet_net, rounds=15, seed=2)
        assert result.best_metrics.reward == pytest.approx(
            max(result.reward_history)
        )

    def test_timing_split_accounted(self, lenet_net):
        result = autohet_search(lenet_net, rounds=10, seed=0)
        assert result.decision_seconds >= 0
        assert result.simulator_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.decision_seconds
            + result.simulator_seconds
            + result.learning_seconds
        )
        assert 0 < result.simulator_fraction < 1

    def test_summary_text(self, lenet_net):
        result = autohet_search(lenet_net, rounds=5, seed=0)
        assert "AutoHet[LeNet]" in result.summary()
        assert "L1:" in result.summary()

    def test_rejects_nonpositive_rounds(self, lenet_net):
        with pytest.raises(ValueError):
            autohet_search(lenet_net, rounds=0)

    def test_deterministic_by_seed(self, tiny_net):
        a = autohet_search(tiny_net, rounds=12, seed=9)
        b = autohet_search(tiny_net, rounds=12, seed=9)
        assert a.best_strategy == b.best_strategy
        assert a.reward_history == b.reward_history

    def test_different_seeds_explore_differently(self, tiny_net):
        a = autohet_search(tiny_net, rounds=12, seed=1)
        b = autohet_search(tiny_net, rounds=12, seed=2)
        assert a.reward_history != b.reward_history


class TestSearchQuality:
    def test_beats_every_homogeneous_on_lenet(self, lenet_net, simulator):
        result = autohet_search(lenet_net, rounds=60, seed=0)
        for cand in DEFAULT_CANDIDATES:
            homo = simulator.evaluate(
                lenet_net, homogeneous_strategy(lenet_net, cand),
                tile_shared=True, detailed=False,
            )
            assert result.best_metrics.reward >= homo.reward

    def test_competitive_with_random_search(self, lenet_net, simulator):
        rl = autohet_search(lenet_net, rounds=40, seed=0)
        _, rnd = random_search(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=40, seed=0
        )
        assert rl.best_metrics.reward >= 0.9 * rnd.reward

    def test_exploit_returns_valid_strategy(self, lenet_net):
        engine = AutoHet(lenet_net, DEFAULT_CANDIDATES, seed=0)
        engine.search(20)
        strategy, metrics = engine.exploit()
        assert len(strategy) == lenet_net.num_layers
        assert metrics.reward > 0

    def test_tile_shared_flag_passes_through(self, lenet_net):
        shared = autohet_search(lenet_net, rounds=10, tile_shared=True, seed=0)
        unshared = autohet_search(lenet_net, rounds=10, tile_shared=False, seed=0)
        assert shared.best_metrics.tile_shared
        assert not unshared.best_metrics.tile_shared

    def test_custom_candidates_respected(self, lenet_net):
        cands = (CrossbarShape(64, 64), CrossbarShape(128, 128))
        result = autohet_search(lenet_net, cands, rounds=10, seed=0)
        assert set(result.best_strategy) <= set(cands)
