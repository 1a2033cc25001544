"""Search outcomes against pinned float64-learner results, per seed.

The trajectory goldens (``test_golden_trajectory.py``) pin bits, so any
change to the learner's arithmetic moves them.  This oracle pins what a
search is for instead: for seeds 0-5 of a default-agent 80-round AutoHet
search on AlexNet and on VGG16, the best RUE found and the mean reward of
the last 20 rounds, as the float64 learner produced them.

For each model and each quantity the current learner must keep

* the median over seeds at no less than 0.99x the pinned median, and
* a two-sided Mann-Whitney U test against the pinned values that does
  not reject at 0.05.

Keep the pinned values when the learner's precision or update order
changes: they are the reference such a change is measured against.
"""

from functools import cache

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from repro.arch.config import DEFAULT_CANDIDATES
from repro.core.autohet import autohet_search
from repro.models import alexnet, vgg16
from repro.sim.simulator import Simulator

ROUNDS = 80
SEEDS = range(6)
LAST = 20
MEDIAN_FLOOR = 0.99
ALPHA = 0.05

MODELS = {"alexnet": alexnet, "vgg16": vgg16}

#: float64-learner outcomes for seeds 0-5, in seed order
PINNED = {
    ("alexnet", "best_rue"): [
        0.0004356660304967774,
        0.0004273016041509583,
        0.00043999765265473014,
        0.0004415537406202294,
        0.0004415374604806262,
        0.0004273016041509583,
    ],
    ("alexnet", "last_reward"): [
        2.407962016065894e-06,
        2.7530383803837606e-06,
        2.073646465119671e-06,
        3.0131307362433218e-06,
        2.233408691812377e-06,
        2.427909254138893e-06,
    ],
    ("vgg16", "best_rue"): [
        0.0002138088100941171,
        0.0002138088100941171,
        0.0002138088100941171,
        0.0002138088100941171,
        0.0002138088100941171,
        0.0002138088100941171,
    ],
    ("vgg16", "last_reward"): [
        1.1009763638382313e-06,
        8.752268826269832e-07,
        8.351445057732755e-07,
        9.946902300747006e-07,
        1.1685690644934942e-06,
        1.2633633486110467e-06,
    ],
}


@cache
def outcomes(model: str) -> dict[str, list[float]]:
    """Best RUE and last-rounds mean reward of each seed's search."""
    net = MODELS[model]()
    found: dict[str, list[float]] = {"best_rue": [], "last_reward": []}
    for seed in SEEDS:
        result = autohet_search(
            net, DEFAULT_CANDIDATES, rounds=ROUNDS, simulator=Simulator(), seed=seed
        )
        found["best_rue"].append(result.best_metrics.rue)
        found["last_reward"].append(float(np.mean(result.reward_history[-LAST:])))
    return found


@pytest.mark.parametrize("model,quantity", sorted(PINNED))
def test_outcomes_match_the_float64_learner(model, quantity):
    pinned = PINNED[model, quantity]
    current = outcomes(model)[quantity]
    assert np.median(current) >= MEDIAN_FLOOR * np.median(pinned), (
        f"{model} {quantity}: median {np.median(current):.6g} below "
        f"{MEDIAN_FLOOR} x pinned {np.median(pinned):.6g}"
    )
    p = mannwhitneyu(current, pinned, alternative="two-sided").pvalue
    assert p >= ALPHA, f"{model} {quantity}: Mann-Whitney U rejects (p={p:.4f})"
