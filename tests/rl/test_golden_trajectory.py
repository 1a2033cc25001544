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

A hash is ``sha256`` over the bytes of the array: float32 for the
learner's parameters, float64 for the reward and critic-loss histories
(lists of Python floats).  When a change is *meant* to alter the
trajectory, regenerate the hashes in a separate step and explain the
diff.
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
            "losses": "17f1565c1d7a191e",
            "actor": "61b4757ac778ada4",
            "critic": "61c04920d80eb598",
        },
        id="ddpg",
    ),
    pytest.param(
        DDPGConfig(bootstrap=True, seed=3),
        "35e3a570b05702ae",
        BEST_576x512,
        {
            "losses": "6cedaca809ddb416",
            "actor": "6524ca266645228d",
            "critic": "6b4c80301643edf4",
            "actor_target": "900ff6bf392bef8e",
            "critic_target": "8ddb3981372ce9f3",
        },
        id="ddpg-bootstrap",
    ),
    pytest.param(
        TD3Config(seed=5),
        "430d4c5ec7416928",
        BEST_576x512,
        {
            "losses": "ad81a137cd3ac567",
            "actor": "f95c35eba6f10e21",
            "critic": "868c89544958c1f8",
            "critic2": "37f364910f4a7763",
        },
        id="td3",
    ),
    pytest.param(
        TD3Config(bootstrap=True, seed=7),
        "73d2e39e16459faa",
        BEST_576x512,
        {
            "losses": "5f3099cda01e7b8b",
            "actor": "548e46165c41c7ac",
            "critic": "b9066bb810823392",
            "critic2": "54dd6e42117097e1",
            "actor_target": "3d5be343b6099ee0",
            "critic_target": "89258d8ed62a17c8",
            "critic2_target": "151e4dcf2174516e",
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
