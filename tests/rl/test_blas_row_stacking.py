"""The BLAS row identities the pipelined bandit learner rests on.

A pipelined update runs the critic over the stacked rows ``[s, mu(s)]_k``
and ``[s, a]_{k+1}`` (128 rows at the default batch of 64) and shares
each layer's product between them.  That gives the bits of the
sequential updates only if BLAS gives a row the same bits in a 64-row
and a 128-row product.  These tests check each shared product at the
learner's shapes, so a BLAS that breaks one fails here under its name,
not as an opaque trajectory-golden hash.  (Where the identities fail,
the agent runs its updates in order: ``stacks_rows_exactly``.)

The input layer's reverse product ``delta @ W0.T`` is not row-stable on
OpenBLAS 0.3.31, so the stacked pass must form it on the actor rows
alone; the last test checks that it does.
"""

import numpy as np
import pytest

from repro.core.rl import networks
from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.networks import MLP, stacks_rows_exactly

BATCH = DDPGConfig().batch_size
HIDDEN = DDPGConfig().hidden[0]


def operand(rng, rows, cols):
    return rng.standard_normal((rows, cols), np.float32)


#: name -> (weight shape, whether it is a reverse product ``np.dot(d, W.T)``
#: rather than a forward one ``a @ W``), at the learner's shapes
SHARED_PRODUCTS = {
    "forward (rows, 10) @ (10, 64), the actor's input layer": ((10, HIDDEN), False),
    "forward (rows, 11) @ (11, 64), the critic's input layer": ((11, HIDDEN), False),
    "forward (rows, 64) @ (64, 64), a hidden layer": ((HIDDEN, HIDDEN), False),
    "forward (rows, 64) @ (64, 1), the output layer": ((HIDDEN, 1), False),
    "reverse np.dot((rows, 1), W.T) through the (64, 1) output layer": ((HIDDEN, 1), True),
    "reverse np.dot((rows, 64), W.T) through a (64, 64) hidden layer": (
        (HIDDEN, HIDDEN),
        True,
    ),
}


@pytest.mark.parametrize("name", list(SHARED_PRODUCTS))
def test_row_has_the_same_bits_in_both_heights(name):
    shape, reverse = SHARED_PRODUCTS[name]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = operand(rng, *shape)
        stacked = operand(rng, 2 * BATCH, shape[1] if reverse else shape[0])

        def product(a):
            return np.dot(a, w.T) if reverse else a @ w

        full = product(stacked)
        for half in (slice(0, BATCH), slice(BATCH, None)):
            alone = product(stacked[half].copy())
            assert full[half].tobytes() == alone.tobytes(), (
                f"BLAS gives a row of {name} different bits in a "
                f"{2 * BATCH}-row and a {BATCH}-row product; the pipelined "
                f"learner cannot stack it exactly"
            )


def test_default_critic_stacks_exactly():
    assert stacks_rows_exactly(DDPGAgent(DDPGConfig()).critic, BATCH)


class RecordingNumpy:
    """``numpy`` with every ``dot`` call's operand shapes recorded."""

    def __init__(self):
        self.dots = []

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b):
        self.dots.append((a.shape, b.shape))
        return np.dot(a, b)


def test_input_layer_product_runs_on_the_actor_rows_only(monkeypatch):
    rng = np.random.default_rng(0)
    critic = MLP.create([11, HIDDEN, HIDDEN, 1], rng=rng)
    stacked = operand(rng, 2 * BATCH, 11)
    upstream = operand(rng, 2 * BATCH, 1)
    recorder = RecordingNumpy()
    monkeypatch.setattr(networks, "np", recorder)
    critic.forward(stacked)
    dx = critic.backward(upstream, BATCH)
    monkeypatch.undo()
    assert recorder.dots[-1] == ((BATCH, HIDDEN), (HIDDEN, 11))
    assert all(a[0] == 2 * BATCH for a, _ in recorder.dots[:-1])
    critic.forward(stacked[:BATCH].copy())
    assert dx.tobytes() == critic.input_grad(upstream[:BATCH].copy()).tobytes()
