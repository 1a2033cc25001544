"""Fixture multi-seed search that fans out (CON001).

Its ``ThreadPoolExecutor`` import is this module's one CON001 finding;
both ``autohet_multi_seed`` variants run their seeds in that pool.  How
a worker draws random numbers or records its reward is no concern of
CON001, which reports the fan-out itself.
"""

import random
from concurrent.futures import ThreadPoolExecutor

_BEST_REWARDS = []  # module-level list the workers append to


def autohet_multi_seed(seeds, rounds: int = 10):
    def run(seed: int) -> float:
        reward = random.random() * rounds  # the shared module RNG
        _BEST_REWARDS.append(reward)       # mutates module state
        return reward

    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(run, seeds))


def autohet_multi_seed_clean(seeds, rounds: int = 10):
    def run(seed: int) -> float:
        rng = random.Random(seed)  # a per-worker seeded RNG
        return rng.random() * rounds

    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(run, seeds))
