"""The learner computes in float32 from the replay pool to the optimiser.

A spy wraps every network pass and optimiser step of a seeded VGG16
search, under each golden agent configuration, and records the dtype of
each array that goes in or comes out.  One float64 operand anywhere
(a state, the replay pool, a noise draw, a constant buffer) would
promote everything downstream of it.  The pipelined bandit learner's
stacked reverse pass and joint critic-and-actor Adam step are recorded
apart, so the test fails if they stop running or are renamed.
"""

import numpy as np
import pytest

from repro.arch.config import DEFAULT_CANDIDATES
from repro.core.autohet import AutoHet
from repro.core.rl.networks import MLP, Adam
from repro.models import vgg16
from repro.sim.simulator import Simulator
from tests.rl.test_golden_trajectory import GOLDEN, SEARCH_SEED

ROUNDS = 8
CONFIGS = [pytest.param(p.values[0], id=p.id) for p in GOLDEN]


def spy(monkeypatch, cls, name, seen, result_of, kind=lambda args: ""):
    """Wrap ``cls.name`` to record the dtypes of its array inputs and of
    the arrays ``result_of(self, returned)`` lists, under ``name`` and
    the pass's ``kind(args)``."""
    original = getattr(cls, name)

    def wrapper(self, *args):
        returned = original(self, *args)
        arrays = [a for a in (*args, *result_of(self, returned)) if isinstance(a, np.ndarray)]
        seen.setdefault(f"{name}{kind(args)}", set()).update(a.dtype for a in arrays)
        return returned

    monkeypatch.setattr(cls, name, wrapper)


def stacked(args):
    """The pipelined learner's stacked reverse pass passes ``input_rows``."""
    return " (stacked)" if args[1:] and args[1] else ""


def joint(args):
    """The pipelined learner steps the critic and actor segments at once."""
    return " (joint)" if args[2:] and args[2] - args[1] > 1 else ""


@pytest.mark.parametrize("cfg", CONFIGS)
def test_every_learner_operand_is_float32(monkeypatch, cfg):
    seen: dict[str, set] = {}
    spy(monkeypatch, MLP, "forward", seen, lambda net, out: [out])
    spy(monkeypatch, MLP, "backward", seen, lambda net, out: [net.grads, out], stacked)
    spy(monkeypatch, MLP, "input_grad", seen, lambda net, out: [out])
    spy(monkeypatch, Adam, "step", seen, lambda opt, _: [opt.params, opt._m, opt._v], joint)
    engine = AutoHet(
        vgg16(), DEFAULT_CANDIDATES, Simulator(), agent_config=cfg, seed=SEARCH_SEED
    )
    engine.search(ROUNDS)
    passes = ["forward", "backward", "input_grad", "step"]
    if engine.agent._pipelined:
        passes += ["backward (stacked)", "step (joint)"]
    assert seen == {name: {np.dtype(np.float32)} for name in passes}
