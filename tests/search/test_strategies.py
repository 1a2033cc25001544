"""Tests for the non-RL strategy producers and search baselines."""

import pytest

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES, SQUARE_CANDIDATES
from repro.arch.mapping import map_layer
from repro.core.search import (
    best_homogeneous,
    exhaustive_search,
    greedy_reward_strategy,
    greedy_utilization_strategy,
    homogeneous_strategy,
    manual_hetero_strategy,
    random_search,
)

SMALL_CANDIDATES = (CrossbarShape(36, 32), CrossbarShape(288, 256))


class TestSimpleStrategies:
    def test_homogeneous(self, vgg_net):
        s = homogeneous_strategy(vgg_net, CrossbarShape(64, 64))
        assert len(s) == 16 and set(s) == {CrossbarShape(64, 64)}

    def test_manual_hetero_default_split(self, vgg_net):
        s = manual_hetero_strategy(vgg_net)
        assert s[:10] == tuple([CrossbarShape(512, 512)] * 10)
        assert s[10:] == tuple([CrossbarShape(256, 256)] * 6)

    def test_manual_hetero_custom_split(self, vgg_net):
        s = manual_hetero_strategy(vgg_net, split=0)
        assert set(s) == {CrossbarShape(256, 256)}

    def test_manual_hetero_rejects_bad_split(self, vgg_net):
        with pytest.raises(ValueError):
            manual_hetero_strategy(vgg_net, split=99)


class TestGreedy:
    def test_utilization_greedy_maximises_locally(self, lenet_net):
        strategy = greedy_utilization_strategy(lenet_net, DEFAULT_CANDIDATES)
        for layer, choice in zip(lenet_net.layers, strategy):
            best_u = max(
                map_layer(layer, c).utilization for c in DEFAULT_CANDIDATES
            )
            assert map_layer(layer, choice).utilization == pytest.approx(best_u)

    def test_utilization_greedy_breaks_ties_to_larger(self):
        from repro.models import Network, MNIST
        from repro.models.layers import LayerSpec

        net = Network.build("one", MNIST, [LayerSpec.conv(1, 4, 3, input_size=8)])
        # Candidates with identical utilization for this layer.
        cands = (CrossbarShape(36, 32), CrossbarShape(72, 64))
        strategy = greedy_utilization_strategy(net, cands)
        u0 = map_layer(net.layers[0], cands[0]).utilization
        u1 = map_layer(net.layers[0], cands[1]).utilization
        if u0 == u1:
            assert strategy[0] == cands[1]

    def test_rejects_empty_candidates(self, lenet_net):
        with pytest.raises(ValueError):
            greedy_utilization_strategy(lenet_net, ())

    def test_reward_greedy_not_worse_than_start(self, lenet_net, simulator):
        start = greedy_utilization_strategy(lenet_net, SMALL_CANDIDATES)
        improved = greedy_reward_strategy(
            lenet_net, SMALL_CANDIDATES, simulator
        )
        r0 = simulator.evaluate(lenet_net, start, detailed=False).reward
        r1 = simulator.evaluate(lenet_net, improved, detailed=False).reward
        assert r1 >= r0 - 1e-15


class TestRandomSearch:
    def test_returns_valid_strategy(self, lenet_net, simulator):
        strategy, metrics = random_search(
            lenet_net, DEFAULT_CANDIDATES, simulator, rounds=10, seed=0
        )
        assert len(strategy) == lenet_net.num_layers
        assert metrics.reward > 0

    def test_deterministic_by_seed(self, lenet_net, simulator):
        a = random_search(lenet_net, DEFAULT_CANDIDATES, simulator, rounds=5, seed=3)
        b = random_search(lenet_net, DEFAULT_CANDIDATES, simulator, rounds=5, seed=3)
        assert a[0] == b[0]

    def test_more_rounds_never_worse(self, lenet_net, simulator):
        few = random_search(lenet_net, DEFAULT_CANDIDATES, simulator, rounds=3, seed=1)
        many = random_search(lenet_net, DEFAULT_CANDIDATES, simulator, rounds=30, seed=1)
        assert many[1].reward >= few[1].reward

    def test_rejects_nonpositive_rounds(self, lenet_net):
        with pytest.raises(ValueError):
            random_search(lenet_net, DEFAULT_CANDIDATES, rounds=0)


class TestExhaustive:
    def test_oracle_beats_everything(self, lenet_net, simulator):
        strategy, metrics = exhaustive_search(
            lenet_net, SMALL_CANDIDATES, simulator
        )
        # No homogeneous or random strategy can beat the oracle.
        for cand in SMALL_CANDIDATES:
            homo = simulator.evaluate(
                lenet_net, homogeneous_strategy(lenet_net, cand),
                detailed=False,
            )
            assert metrics.reward >= homo.reward
        _, rnd = random_search(
            lenet_net, SMALL_CANDIDATES, simulator, rounds=20, seed=2
        )
        assert metrics.reward >= rnd.reward

    def test_space_limit_guard(self, vgg_net):
        with pytest.raises(ValueError, match="exceeds limit"):
            exhaustive_search(vgg_net, DEFAULT_CANDIDATES, limit=100)

    def test_greedy_reward_close_to_oracle(self, lenet_net, simulator):
        """Coordinate ascent should land within 20% of the oracle here."""
        _, oracle = exhaustive_search(lenet_net, SMALL_CANDIDATES, simulator)
        greedy = simulator.evaluate(
            lenet_net,
            greedy_reward_strategy(lenet_net, SMALL_CANDIDATES, simulator),
            detailed=False,
        )
        assert greedy.reward >= 0.8 * oracle.reward


class TestBestHomogeneous:
    def test_picks_max_rue(self, vgg_net, simulator):
        shape, metrics = best_homogeneous(vgg_net, SQUARE_CANDIDATES, simulator)
        for cand in SQUARE_CANDIDATES:
            other = simulator.evaluate_homogeneous(vgg_net, cand)
            assert metrics.rue >= other.rue
        assert str(shape) in {str(s) for s in SQUARE_CANDIDATES}

    def test_base_is_512_for_vgg16(self, vgg_net, simulator):
        """§4.3 pins Base for VGG16 to the 512x512 homogeneous SXB."""
        shape, _ = best_homogeneous(vgg_net, SQUARE_CANDIDATES, simulator)
        assert shape == CrossbarShape(512, 512)
