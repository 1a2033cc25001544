"""Golden RL search trajectories, pinned bit for bit.

The determinism tests elsewhere compare two runs of the same code; these
pin a seeded VGG16 AutoHet search to fixed hashes, so any change to the
learner (network maths, optimiser, replay sampling, update order) that
moves a single bit fails here.

Two oracles per search:

* the reward history.  Actions are discretised to a crossbar index before
  they reach the reward, so this alone misses learner changes too small to
  flip a bin;
* the learner's end state: the final parameters of the actor and of every
  online critic, the critic-loss history, and, for bootstrapping agents,
  the target networks (bandit-mode agents have none).

A hash is ``sha256`` over the float64 bytes of the array.  When a change
is *meant* to alter the trajectory, regenerate the hashes in a separate
step and explain the diff.
"""

import hashlib

import numpy as np
import pytest

from repro.arch.config import DEFAULT_CANDIDATES, CrossbarShape
from repro.core.autohet import AutoHet
from repro.core.rl.ddpg import DDPGConfig
from repro.core.rl.td3 import TD3Config
from repro.models import vgg16
from repro.sim.simulator import Simulator

ROUNDS = 60
SEARCH_SEED = 11
BEST_576x512 = (CrossbarShape(576, 512),) * 16

GOLDEN = [
    pytest.param(
        None,
        "d2aeab22f07da0c6",
        BEST_576x512,
        {
            "losses": "cf702a21ccc2dc01",
            "actor": "922b8adf24bbfb15",
            "critic": "9536994c52f902c0",
        },
        id="ddpg",
    ),
    pytest.param(
        DDPGConfig(bootstrap=True, seed=3),
        "35e3a570b05702ae",
        BEST_576x512,
        {
            "losses": "1568b1cc695df3c0",
            "actor": "66b73411619bc7ba",
            "critic": "70852ce2328ccf0a",
            "actor_target": "0442158cbe508753",
            "critic_target": "7e34801b00702c31",
        },
        id="ddpg-bootstrap",
    ),
    pytest.param(
        TD3Config(seed=5),
        "430d4c5ec7416928",
        BEST_576x512,
        {
            "losses": "171faa06228fc4ff",
            "actor": "dffa846f4577a48c",
            "critic": "282abd0335ec4632",
            "critic2": "cba1c2daf17cfc70",
        },
        id="td3",
    ),
    pytest.param(
        TD3Config(bootstrap=True, seed=7),
        "73d2e39e16459faa",
        BEST_576x512,
        {
            "losses": "9359f2acc6283953",
            "actor": "7b9800607d92c37a",
            "critic": "f3217778f532c935",
            "critic2": "386f35f07a7eba10",
            "actor_target": "39fee55682856afe",
            "critic_target": "c8ab9f9d178c2c5c",
            "critic2_target": "8248f8d94dbc3ad0",
        },
        id="td3-bootstrap",
    ),
]


def trajectory_hash(values) -> str:
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()[:16]


def learner_hashes(agent, names) -> dict[str, str]:
    """Hash of ``critic_losses`` (as ``"losses"``) or of a network's params."""
    return {
        name: trajectory_hash(
            agent.critic_losses
            if name == "losses"
            else getattr(agent, name).params
        )
        for name in names
    }


@pytest.mark.parametrize(
    "cfg,expected_hash,expected_best,expected_learner", GOLDEN
)
def test_golden_trajectory(cfg, expected_hash, expected_best, expected_learner):
    engine = AutoHet(
        vgg16(),
        DEFAULT_CANDIDATES,
        Simulator(),
        agent_config=cfg,
        seed=SEARCH_SEED,
    )
    result = engine.search(ROUNDS)
    assert len(result.reward_history) == ROUNDS + len(DEFAULT_CANDIDATES)
    assert trajectory_hash(result.reward_history) == expected_hash
    assert result.best_strategy == expected_best
    assert learner_hashes(engine.agent, expected_learner) == expected_learner
