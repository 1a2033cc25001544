"""Tests for the TD3-style twin-critic extension agent."""

import numpy as np
import pytest

from repro.core.autohet import AutoHet
from repro.core.rl.ddpg import DDPGAgent
from repro.core.rl.networks import MLP
from repro.core.rl.replay import Transition
from repro.core.rl.td3 import TD3Agent, TD3Config
from repro.models import lenet


def make_agent(**overrides):
    defaults = dict(
        state_dim=4, hidden=(16, 16), seed=0, warmup_episodes=0,
        batch_size=16, updates_per_episode=10,
        coherent_episode_prob=0.0, epsilon=0.0,
    )
    defaults.update(overrides)
    return TD3Agent(TD3Config(**defaults))


def feed_episodes(agent, n=5, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        transitions = []
        states = [rng.uniform(0, 1, 4) for _ in range(5)]
        reward = float(rng.uniform(0.2, 1.0))
        for k in range(4):
            transitions.append(
                Transition(states[k], states[k + 1],
                           float(rng.uniform(0, 1)), reward, k == 3)
            )
        agent.observe_episode(transitions)


class TestConstruction:
    def test_has_twin_critics(self):
        agent = make_agent()
        assert agent.critic2 is not agent.critic
        # Independently initialised.
        assert not np.allclose(
            agent.critic.weights[0], agent.critic2.weights[0]
        )

    def test_is_a_ddpg_agent(self):
        assert isinstance(make_agent(), DDPGAgent)

    @pytest.mark.parametrize("policy_delay", [0, -1])
    def test_rejects_nonpositive_policy_delay(self, policy_delay):
        with pytest.raises(ValueError, match="policy_delay"):
            TD3Config(policy_delay=policy_delay)

    def test_inherits_ddpg_validation(self):
        with pytest.raises(ValueError, match="tau"):
            TD3Config(tau=2.0)

    def test_config_inherits_ddpg_fields(self):
        cfg = TD3Config(policy_delay=3, gamma=0.9)
        assert cfg.policy_delay == 3
        assert cfg.gamma == 0.9


class TestUpdates:
    def test_learn_updates_both_critics(self):
        agent = make_agent()
        feed_episodes(agent)
        w1 = agent.critic.weights[0].copy()
        w2 = agent.critic2.weights[0].copy()
        agent.learn()
        assert not np.allclose(agent.critic.weights[0], w1)
        assert not np.allclose(agent.critic2.weights[0], w2)

    def test_policy_delay_skips_actor_updates(self):
        agent = make_agent(policy_delay=1000, updates_per_episode=5)
        feed_episodes(agent)
        aw = [w.copy() for w in agent.actor.weights]
        agent.learn()
        assert all(
            np.array_equal(a, b) for a, b in zip(aw, agent.actor.weights)
        )

    def test_actor_updates_at_delay_boundary(self):
        agent = make_agent(policy_delay=2, updates_per_episode=4)
        feed_episodes(agent)
        aw = [w.copy() for w in agent.actor.weights]
        agent.learn()
        assert any(
            not np.array_equal(a, b) for a, b in zip(aw, agent.actor.weights)
        )

    def test_bootstrap_uses_min_of_targets(self):
        agent = make_agent(bootstrap=True, target_noise_sigma=0.0)
        states = np.random.default_rng(0).uniform(0, 1, size=(6, 4))
        q = agent._target_q(states)
        sa = np.concatenate(
            [states, agent.actor_target.forward(states)], axis=1
        )
        q1 = agent.critic_target.forward(sa)
        q2 = agent.critic2_target.forward(sa)
        assert np.allclose(q, np.minimum(q1, q2))

    def test_bandit_mode_builds_and_updates_no_target(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("bandit mode must not Polyak-average")

        monkeypatch.setattr(MLP, "soft_update_from", refuse)
        agent = make_agent(policy_delay=2, updates_per_episode=4)
        assert agent.actor_target is None
        assert agent.critic_target is None and agent.critic2_target is None
        feed_episodes(agent)
        actor = agent.actor.params.copy()
        assert agent.learn() is not None
        assert not np.array_equal(agent.actor.params, actor)

    def test_bootstrap_mode_updates_every_target(self):
        agent = make_agent(bootstrap=True, policy_delay=1, tau=1.0)
        feed_episodes(agent)
        agent.learn()
        for online, target in (
            (agent.actor, agent.actor_target),
            (agent.critic, agent.critic_target),
            (agent.critic2, agent.critic2_target),
        ):
            assert np.array_equal(online.params, target.params)

    def test_losses_recorded(self):
        agent = make_agent()
        feed_episodes(agent)
        agent.learn()
        assert len(agent.critic_losses) > 0


class TestSearchIntegration:
    def test_autohet_dispatches_td3(self):
        engine = AutoHet(lenet(), agent_config=TD3Config(seed=0))
        assert isinstance(engine.agent, TD3Agent)

    def test_td3_search_runs_and_wins(self):
        from repro.arch.config import SQUARE_CANDIDATES
        from repro.core.search import best_homogeneous
        from repro.sim import Simulator

        net = lenet()
        sim = Simulator()
        engine = AutoHet(net, simulator=sim, agent_config=TD3Config(seed=1))
        result = engine.search(30)
        _, base = best_homogeneous(net, SQUARE_CANDIDATES, sim)
        assert result.best_metrics.reward > 0
        assert result.best_metrics.rue >= base.rue  # seeded probes guarantee
