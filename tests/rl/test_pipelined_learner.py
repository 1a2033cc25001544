"""The pipelined bandit learner equals the sequential one, bit for bit.

In bandit mode ``DDPGAgent.learn`` runs actor step k beside critic step
k + 1: one critic forward over both batches, one stacked reverse pass and
one Adam step over the critic and actor segments.  Running the same
updates one by one (``_update_once``, the order bootstrapping agents and
TD3 keep) must leave every bit of the learner where the pipeline leaves
it: the parameters, both Adam moments and the per-segment step counts,
the critic losses and the last actor objective.
"""

import numpy as np
import pytest

from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.networks import MLP, stacks_rows_exactly
from repro.core.rl.replay import Transition
from repro.core.rl.td3 import TD3Agent, TD3Config

EPISODES = 6
LAYERS = 7


def episode(rng, state_dim):
    """A random episode: float32 states, one broadcast reward."""
    states = rng.uniform(0.0, 1.0, size=(LAYERS + 1, state_dim)).astype(np.float32)
    actions = rng.uniform(0.0, 1.0, size=LAYERS)
    reward = float(rng.uniform(1e-7, 1e-6))
    return [
        Transition(states[k], states[k + 1], float(actions[k]), reward, k == LAYERS - 1)
        for k in range(LAYERS)
    ]


def learner_state(agent):
    opt = agent.optimizer
    return {
        "params": opt.params.tobytes(),
        "moments": opt._moments.tobytes(),
        "t": list(opt.t),
        "losses": np.array(agent.critic_losses).tobytes(),
        "objective": np.float64(agent._last_actor_objective).tobytes(),
    }


def run_both(monkeypatch, **overrides):
    """Feed the same episodes to a pipelined and a sequential agent.

    Returns both learner states and the ``input_rows`` of every reverse
    pass the pipelined agent ran; it runs none with ``input_rows`` when
    BLAS would not give the stacked pass the sequential bits.
    """
    cfg = DDPGConfig(warmup_episodes=0, **overrides)
    pipelined, sequential = DDPGAgent(cfg), DDPGAgent(cfg)
    sequential._pipelined = False
    stacked_rows = []
    backward = MLP.backward

    def spy(net, upstream, input_rows=0):
        stacked_rows.append(input_rows)
        return backward(net, upstream, input_rows)

    rng = np.random.default_rng(17)
    for _ in range(EPISODES):
        transitions = episode(rng, cfg.state_dim)
        for agent in (pipelined, sequential):
            agent.observe_episode(transitions)
        with monkeypatch.context() as patch:
            patch.setattr(MLP, "backward", spy)
            pipelined.learn()
        sequential.learn()
    return learner_state(pipelined), learner_state(sequential), stacked_rows


@pytest.mark.parametrize("updates", [1, 2, 20])
@pytest.mark.parametrize("batch", [1, 4, 16, 64])
def test_pipeline_matches_sequential_updates(monkeypatch, updates, batch):
    pipelined, sequential, stacked_rows = run_both(
        monkeypatch, updates_per_episode=updates, batch_size=batch
    )
    assert pipelined == sequential
    assert pipelined["t"] == [EPISODES * updates] * 2
    if stacks_rows_exactly(DDPGAgent(DDPGConfig(batch_size=batch)).critic, batch):
        # Every update but the last shares its actor step's pass.
        assert stacked_rows.count(batch) == EPISODES * (updates - 1)
    else:
        assert set(stacked_rows) == {0}


def test_pool_smaller_than_the_batch(monkeypatch):
    """The first call learns from 7 transitions with a 64-row batch."""
    pipelined, sequential, _ = run_both(monkeypatch, batch_size=64, updates_per_episode=5)
    assert pipelined == sequential


def test_distinct_learning_rates(monkeypatch):
    pipelined, sequential, _ = run_both(
        monkeypatch, actor_lr=3e-4, critic_lr=2e-3, updates_per_episode=4
    )
    assert pipelined == sequential


def test_one_update_runs_no_stacked_pass(monkeypatch):
    """With one update the loop body never runs: a lone critic step, then
    a lone actor step."""
    _, _, stacked_rows = run_both(monkeypatch, updates_per_episode=1)
    assert stacked_rows == [0] * (2 * EPISODES)


def test_default_agent_pipelines():
    """The learner's default shapes stack exactly on the CI BLAS; when this
    fails, ``tests/rl/test_blas_row_stacking.py`` names the product."""
    assert DDPGAgent(DDPGConfig())._pipelined


@pytest.mark.parametrize("bootstrap", [False, True])
def test_bootstrap_and_td3_keep_the_sequential_order(bootstrap):
    assert DDPGAgent(DDPGConfig(bootstrap=bootstrap))._pipelined is not bootstrap
    assert not TD3Agent(TD3Config(bootstrap=bootstrap))._pipelined
