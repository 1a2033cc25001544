"""DDPG agent tests: action bounds, learning dynamics, convergence on a
synthetic contextual-bandit task."""

import numpy as np
import pytest

from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.networks import MLP
from repro.core.rl.replay import Transition


def make_agent(**overrides):
    defaults = dict(
        state_dim=4, hidden=(16, 16), seed=0, warmup_episodes=1,
        batch_size=16, updates_per_episode=10,
        coherent_episode_prob=0.0, epsilon=0.0,
    )
    defaults.update(overrides)
    return DDPGAgent(DDPGConfig(**defaults))


def synthetic_episode(agent, rng, optimal_fn, explore=True):
    """A 4-step episode whose reward is high when actions track optimal_fn."""
    agent.begin_episode()
    transitions = []
    states = [rng.uniform(0, 1, size=4) for _ in range(5)]
    total = 0.0
    actions = []
    for k in range(4):
        a = agent.act(states[k], explore=explore)
        actions.append(a)
        total += 1.0 - abs(a - optimal_fn(states[k]))
    reward = total / 4
    for k in range(4):
        transitions.append(
            Transition(states[k], states[k + 1], actions[k], reward, k == 3)
        )
    return transitions, reward


class TestConfigValidation:
    """Bad hyper-parameters fail at construction, not mid-search."""

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_nonpositive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            DDPGConfig(batch_size=batch_size)

    def test_rejects_negative_updates_per_episode(self):
        with pytest.raises(ValueError, match="updates_per_episode"):
            DDPGConfig(updates_per_episode=-1)

    @pytest.mark.parametrize("tau", [-0.01, 1.5, float("nan")])
    def test_rejects_tau_outside_unit_interval(self, tau):
        with pytest.raises(ValueError, match="tau"):
            DDPGConfig(tau=tau)

    def test_accepts_boundary_values(self):
        DDPGConfig(batch_size=1, updates_per_episode=0, tau=0.0)
        DDPGConfig(tau=1.0)

    def test_zero_updates_per_episode_never_learns(self):
        agent = make_agent(warmup_episodes=0, updates_per_episode=0)
        agent.observe_episode(
            [Transition(np.zeros(4), np.zeros(4), 0.5, 1.0, True)]
        )
        assert agent.learn() is None


class TestActionInterface:
    def test_actions_bounded(self):
        agent = make_agent()
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = agent.act(rng.normal(size=4), explore=True)
            assert 0.0 <= a <= 1.0

    def test_deterministic_without_exploration(self):
        agent = make_agent()
        s = np.ones(4) * 0.3
        assert agent.act(s, explore=False) == agent.act(s, explore=False)

    def test_epsilon_decays_after_episode(self):
        agent = make_agent(epsilon=0.4, epsilon_decay=0.5, epsilon_min=0.01)
        agent.observe_episode(
            [Transition(np.zeros(4), np.zeros(4), 0.5, 1.0, True)]
        )
        assert agent.epsilon == pytest.approx(0.2)

    def test_epsilon_floor(self):
        agent = make_agent(epsilon=0.1, epsilon_decay=0.0001, epsilon_min=0.05)
        agent.observe_episode(
            [Transition(np.zeros(4), np.zeros(4), 0.5, 1.0, True)]
        )
        assert agent.epsilon == 0.05

    def test_coherent_episode_clusters_actions(self):
        agent = make_agent(coherent_episode_prob=1.0, coherent_sigma=0.01)
        agent.begin_episode()
        rng = np.random.default_rng(1)
        acts = [agent.act(rng.normal(size=4)) for _ in range(10)]
        assert np.std(acts) < 0.05

    def test_noise_decays(self):
        agent = make_agent(noise_sigma=1.0, noise_decay=0.5)
        agent.observe_episode(
            [Transition(np.zeros(4), np.zeros(4), 0.5, 1.0, True)]
        )
        assert agent.noise.sigma == pytest.approx(0.5)


class TestLearningMachinery:
    def test_reward_scale_fixed_on_first_episode(self):
        agent = make_agent()
        agent.observe_episode(
            [Transition(np.zeros(4), np.zeros(4), 0.5, 1e-6, True)]
        )
        assert agent.reward_scale == pytest.approx(1e6)

    def test_no_learning_before_warmup(self):
        agent = make_agent(warmup_episodes=5)
        agent.observe_episode(
            [Transition(np.zeros(4), np.zeros(4), 0.5, 1.0, True)] * 20
        )
        assert agent.learn() is None

    def test_baseline_tracks_rewards(self):
        agent = make_agent(baseline_decay=0.5)
        for r in (1.0, 2.0):
            agent.observe_episode(
                [Transition(np.zeros(4), np.zeros(4), 0.5, r, True)]
            )
        assert agent.reward_baseline is not None
        assert 1.0 <= agent.reward_baseline <= 2.0

    def test_learn_returns_loss_after_warmup(self):
        agent = make_agent(warmup_episodes=0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            transitions, _ = synthetic_episode(agent, rng, lambda s: 0.5)
            agent.observe_episode(transitions)
        loss = agent.learn()
        assert loss is not None and loss >= 0.0

    def test_target_networks_track_online(self):
        agent = make_agent(warmup_episodes=0, tau=1.0, bootstrap=True)
        rng = np.random.default_rng(0)
        for _ in range(3):
            transitions, _ = synthetic_episode(agent, rng, lambda s: 0.5)
            agent.observe_episode(transitions)
        agent.learn()
        for online, target in zip(
            agent.actor.parameters(), agent.actor_target.parameters()
        ):
            assert np.allclose(online, target)

    def test_bandit_mode_builds_and_updates_no_target(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("bandit mode must not Polyak-average")

        monkeypatch.setattr(MLP, "soft_update_from", refuse)
        agent = make_agent(warmup_episodes=0)
        assert agent.actor_target is None and agent.critic_target is None
        rng = np.random.default_rng(0)
        for _ in range(3):
            transitions, _ = synthetic_episode(agent, rng, lambda s: 0.5)
            agent.observe_episode(transitions)
        assert agent.learn() is not None
        assert len(agent.critic_losses) == agent.config.updates_per_episode

    def test_learn_samples_the_pool_once(self, monkeypatch):
        agent = make_agent(warmup_episodes=0, updates_per_episode=7)
        rng = np.random.default_rng(0)
        transitions, _ = synthetic_episode(agent, rng, lambda s: 0.5)
        agent.observe_episode(transitions)
        draws = []
        sample = agent.pool.sample
        monkeypatch.setattr(
            agent.pool, "sample", lambda n: draws.append(n) or sample(n)
        )
        agent.learn()
        assert draws == [7 * agent.config.batch_size]
        assert len(agent.critic_losses) == 7


class TestConvergence:
    def test_learns_constant_optimal_action(self):
        """Reward peaks at action 0.7 regardless of state.

        Uses the default bandit-mode critic.  Coherent exploration
        episodes are essential here: per-step noise alone produces episode
        rewards dominated by the policy mean, which the critic misreads as
        "larger is better" (the same basin-hopping pathology the AutoHet
        search hits on ResNet152).  The TD-bootstrap variant is *expected*
        to drift on this task (Q-overestimation with broadcast rewards),
        which is exactly why bandit mode is the default.
        """
        agent = make_agent(
            bootstrap=False, noise_sigma=0.4, seed=1,
            coherent_episode_prob=0.3, epsilon=0.1,
        )
        rng = np.random.default_rng(1)
        for _ in range(200):
            transitions, _ = synthetic_episode(agent, rng, lambda s: 0.7)
            agent.observe_episode(transitions)
            agent.learn()
        final = np.mean(
            [agent.act(rng.uniform(0, 1, 4), explore=False) for _ in range(20)]
        )
        assert abs(final - 0.7) < 0.2

    def test_learns_state_dependent_policy(self):
        """Optimal action = first state coordinate (bandit form)."""
        agent = make_agent(noise_sigma=0.4, seed=2, updates_per_episode=20)
        rng = np.random.default_rng(2)
        for _ in range(250):
            transitions, _ = synthetic_episode(
                agent, rng, lambda s: float(s[0] > 0.5)
            )
            agent.observe_episode(transitions)
            agent.learn()
        lo = agent.act(np.array([0.1, 0.5, 0.5, 0.5]), explore=False)
        hi = agent.act(np.array([0.9, 0.5, 0.5, 0.5]), explore=False)
        assert hi - lo > 0.3

    def test_average_reward_improves(self):
        agent = make_agent(noise_sigma=0.5, seed=3)
        rng = np.random.default_rng(3)
        rewards = []
        for _ in range(150):
            transitions, reward = synthetic_episode(agent, rng, lambda s: 0.2)
            agent.observe_episode(transitions)
            agent.learn()
            rewards.append(reward)
        assert np.mean(rewards[-30:]) > np.mean(rewards[:30])
