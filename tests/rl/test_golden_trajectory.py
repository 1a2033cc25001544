"""Golden RL search trajectories, pinned bit for bit.

The determinism tests elsewhere compare two runs of the same code; these
pin the reward history of a seeded VGG16 AutoHet search to fixed hashes,
so any change to the learner (network maths, optimiser, replay sampling,
update order) that moves a single bit of the trajectory fails here.

A hash is ``sha256`` over the float64 bytes of ``reward_history``.  When
a change is *meant* to alter the trajectory, regenerate the hashes in a
separate step and explain the diff.
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
    pytest.param(None, "d2aeab22f07da0c6", BEST_576x512, id="ddpg"),
    pytest.param(
        DDPGConfig(bootstrap=True, seed=3),
        "35e3a570b05702ae",
        BEST_576x512,
        id="ddpg-bootstrap",
    ),
    pytest.param(TD3Config(seed=5), "430d4c5ec7416928", BEST_576x512, id="td3"),
    pytest.param(
        TD3Config(bootstrap=True, seed=7),
        "73d2e39e16459faa",
        BEST_576x512,
        id="td3-bootstrap",
    ),
]


def trajectory_hash(rewards) -> str:
    return hashlib.sha256(np.array(rewards).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("cfg,expected_hash,expected_best", GOLDEN)
def test_golden_trajectory(cfg, expected_hash, expected_best):
    result = AutoHet(
        vgg16(),
        DEFAULT_CANDIDATES,
        Simulator(),
        agent_config=cfg,
        seed=SEARCH_SEED,
    ).search(ROUNDS)
    assert len(result.reward_history) == ROUNDS + len(DEFAULT_CANDIDATES)
    assert trajectory_hash(result.reward_history) == expected_hash
    assert result.best_strategy == expected_best
