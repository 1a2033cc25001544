"""Tests for the crossbar-configuration search environment."""

import numpy as np
import pytest

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES
from repro.core.rl.environment import (
    STATE_DIM,
    CrossbarSearchEnv,
    reward_energy,
    reward_utilization,
)
from repro.sim import Simulator


@pytest.fixture
def env(lenet_net):
    return CrossbarSearchEnv(lenet_net, DEFAULT_CANDIDATES, Simulator())


class TestConstruction:
    def test_rejects_empty_candidates(self, lenet_net):
        with pytest.raises(ValueError):
            CrossbarSearchEnv(lenet_net, ())

    def test_dimensions(self, env, lenet_net):
        assert env.num_layers == lenet_net.num_layers
        assert env.num_actions == 5


class TestDiscretization:
    def test_equal_width_bins(self, env):
        assert env.continuous_to_index(0.0) == 0
        assert env.continuous_to_index(0.19) == 0
        assert env.continuous_to_index(0.21) == 1
        assert env.continuous_to_index(0.99) == 4
        assert env.continuous_to_index(1.0) == 4

    def test_clipping(self, env):
        assert env.continuous_to_index(-5.0) == 0
        assert env.continuous_to_index(5.0) == 4

    def test_index_to_continuous_is_bin_center(self, env):
        for i in range(5):
            assert env.continuous_to_index(env.index_to_continuous(i)) == i

    def test_action_to_shape(self, env):
        assert env.action_to_shape(0) == CrossbarShape(32, 32)
        assert env.action_to_shape(4) == CrossbarShape(576, 512)


class TestStateVector:
    def test_dimension(self, env):
        assert env.reset().shape == (STATE_DIM,)

    def test_all_dims_normalised(self, env, lenet_net):
        for i in range(lenet_net.num_layers):
            s = env.observe(i, 1.0, 1.0)
            assert np.all(s >= 0.0) and np.all(s <= 1.0 + 1e-12)

    def test_static_features_content(self, env, lenet_net):
        layer = lenet_net.layers[1]
        s = env.observe(1, 0.5, 0.25)
        norms = env._feature_norms()
        assert s[0] == pytest.approx(1 / norms[0])
        assert s[1] == 1.0  # CONV
        assert s[2] == pytest.approx(layer.in_channels / norms[2])
        assert s[8] == 0.5
        assert s[9] == 0.25

    def test_fc_layer_type_code(self, env, lenet_net):
        fc_index = next(
            i for i, l in enumerate(lenet_net.layers)
            if l.layer_type.name == "FC"
        )
        assert env.observe(fc_index, 0, 0)[1] == 0.0

    def test_initial_state_has_zero_dynamics(self, env):
        s = env.reset()
        assert s[8] == 0.0 and s[9] == 0.0


class TestEpisodeProtocol:
    def test_full_episode(self, env, lenet_net):
        env.reset()
        for k in range(lenet_net.num_layers):
            next_state, done = env.step(2)
            if k < lenet_net.num_layers - 1:
                assert not done and next_state is not None
            else:
                assert done and next_state is None
        result = env.finish()
        assert len(result.strategy) == lenet_net.num_layers
        assert len(result.transitions) == lenet_net.num_layers
        assert result.reward > 0

    def test_transition_structure(self, env, lenet_net):
        env.reset()
        for _ in range(lenet_net.num_layers):
            env.step(1)
        result = env.finish()
        for k, t in enumerate(result.transitions):
            assert t.reward == result.reward  # broadcast terminal reward
            assert t.done == (k == lenet_net.num_layers - 1)
            assert t.action == pytest.approx(env.index_to_continuous(1))
        # S_{k+1} carries a_k (Table 1's dynamic features).
        assert result.transitions[0].next_state[8] == pytest.approx(
            env.index_to_continuous(1)
        )

    def test_step_before_reset_raises(self, lenet_net):
        env = CrossbarSearchEnv(lenet_net, DEFAULT_CANDIDATES, Simulator())
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_step_past_end_raises(self, env, lenet_net):
        env.reset()
        for _ in range(lenet_net.num_layers):
            env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_finish_before_end_raises(self, env):
        env.reset()
        env.step(0)
        with pytest.raises(RuntimeError):
            env.finish()

    def test_invalid_action_raises(self, env):
        env.reset()
        with pytest.raises(ValueError):
            env.step(99)

    def test_rollout_convenience(self, env, lenet_net):
        result = env.rollout(lambda s: 3)
        assert set(result.strategy) == {DEFAULT_CANDIDATES[3]}

    def test_evaluate_indices(self, env, lenet_net):
        indices = [0, 1, 2, 3, 4][: lenet_net.num_layers]
        result = env.evaluate_indices(indices)
        assert result.strategy == tuple(
            DEFAULT_CANDIDATES[i] for i in indices
        )

    def test_evaluate_indices_length_check(self, env):
        with pytest.raises(ValueError):
            env.evaluate_indices([0])


class TestRewardFunctions:
    def test_rue_reward_matches_metrics(self, env):
        result = env.rollout(lambda s: 4)
        assert result.reward == pytest.approx(result.metrics.reward)

    def test_utilization_reward(self, lenet_net):
        env = CrossbarSearchEnv(
            lenet_net, DEFAULT_CANDIDATES, Simulator(),
            reward_fn=reward_utilization,
        )
        result = env.rollout(lambda s: 0)
        assert result.reward == pytest.approx(result.metrics.utilization)

    def test_energy_reward_negative(self, lenet_net):
        env = CrossbarSearchEnv(
            lenet_net, DEFAULT_CANDIDATES, Simulator(), reward_fn=reward_energy
        )
        assert env.rollout(lambda s: 0).reward < 0

    def test_tile_shared_flag_respected(self, lenet_net):
        shared = CrossbarSearchEnv(
            lenet_net, DEFAULT_CANDIDATES, Simulator(), tile_shared=True
        )
        unshared = CrossbarSearchEnv(
            lenet_net, DEFAULT_CANDIDATES, Simulator(), tile_shared=False
        )
        rs = shared.rollout(lambda s: 2).metrics
        ru = unshared.rollout(lambda s: 2).metrics
        assert rs.occupied_tiles <= ru.occupied_tiles
