"""Non-RL strategy producers: homogeneous, manual-hetero, greedy, random,
exhaustive (oracle).

These are the comparison points of the paper's evaluation:

* homogeneous accelerators — the §4.1 baselines;
* the hand-crafted heterogeneous split of Fig. 3 (512x512 for the first
  ten VGG16 layers, 256x256 for the last six);
* the greedy per-layer picker in the spirit of Zhu et al. [29] (maximise
  each layer's own utilization, ignoring energy);
* random search — a sanity floor for the RL agent;
* exhaustive search — the oracle, feasible only for small models, used by
  tests to bound the RL optimality gap.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from ...arch.config import CrossbarShape
from ...arch.mapping import map_layer
from ...models.graph import Network
from ...obs import metrics as obs_metrics
from ...obs.trace import current_tracer
from ...sim.metrics import SystemMetrics
from ...sim.simulator import CapacityError, Simulator, Strategy


class SearchOutcome(tuple):
    """A ``(strategy, metrics)`` pair with search statistics attached.

    Subclasses ``tuple`` so existing ``strategy, metrics = search(...)``
    unpacking keeps working, while callers that care can read how much
    work the search did and how much of the space was infeasible
    (strategies that overflow the bank raise
    :class:`~repro.sim.simulator.CapacityError` inside the simulator; the
    searches below skip them instead of crashing, and count them here).
    """

    def __new__(
        cls,
        strategy,
        metrics: SystemMetrics,
        *,
        evaluations: int = 0,
        infeasible: int = 0,
    ) -> "SearchOutcome":
        self = super().__new__(cls, (strategy, metrics))
        return self

    def __init__(
        self,
        strategy,
        metrics: SystemMetrics,
        *,
        evaluations: int = 0,
        infeasible: int = 0,
    ) -> None:
        self._evaluations = evaluations
        self._infeasible = infeasible

    @property
    def strategy(self):
        return self[0]

    @property
    def metrics(self) -> SystemMetrics:
        return self[1]

    @property
    def evaluations(self) -> int:
        """Strategies submitted to the simulator (cache hits included)."""
        return self._evaluations

    @property
    def infeasible(self) -> int:
        """Evaluations rejected for overflowing the bank's tile budget."""
        return self._infeasible


def homogeneous_strategy(network: Network, shape: CrossbarShape) -> Strategy:
    """Every layer on the same crossbar type."""
    return tuple(shape for _ in network.layers)


def manual_hetero_strategy(
    network: Network,
    head_shape: CrossbarShape = CrossbarShape(512, 512),
    tail_shape: CrossbarShape = CrossbarShape(256, 256),
    split: int = 10,
) -> Strategy:
    """The Fig. 3 hand-tuned heterogeneous configuration.

    The paper sets 512x512 for the first ten VGG16 layers and 256x256 for
    the remaining six.
    """
    if not 0 <= split <= network.num_layers:
        raise ValueError(f"split {split} out of range")
    return tuple(
        head_shape if i < split else tail_shape
        for i in range(network.num_layers)
    )


def greedy_utilization_strategy(
    network: Network, candidates: Sequence[CrossbarShape]
) -> Strategy:
    """Per-layer greedy: the shape maximising that layer's Eq. 4 utilization.

    Ties break toward the larger crossbar (fewer peripheral sets).  This is
    the utilization-first local heuristic of the mixed-size-crossbar line
    of work [29] that AutoHet's global, energy-aware search improves on.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    strategy = []
    for layer in network.layers:
        best = max(
            candidates,
            key=lambda s: (map_layer(layer, s).utilization, s.cells),
        )
        strategy.append(best)
    return tuple(strategy)


def greedy_reward_strategy(
    network: Network,
    candidates: Sequence[CrossbarShape],
    simulator: Simulator | None = None,
    *,
    tile_shared: bool = True,
    stats: dict[str, int] | None = None,
) -> Strategy:
    """Coordinate-ascent greedy on the global reward.

    Starts from the per-layer utilization greedy and sweeps layers once,
    replacing each layer's shape with the candidate that maximises the
    whole-model ``R = u / e``.  A cheap, strong non-RL baseline.

    Candidates that overflow the bank are skipped as infeasible (a layer
    keeps its current shape if every alternative overflows).  Pass a
    ``stats`` dict to receive ``evaluations`` / ``infeasible`` counts.
    """
    sim = simulator if simulator is not None else Simulator()
    tr = current_tracer()
    strategy = list(greedy_utilization_strategy(network, candidates))
    evaluations = infeasible = 0
    with tr.span(obs_metrics.SPAN_SEARCH, search="greedy", network=network.name):
        for i in range(network.num_layers):
            best_shape = strategy[i]
            best_reward = -math.inf
            # Each layer sweep scores |candidates| one-shape-changed
            # variants — a natural (S, L) batch for the kernel scorer.
            # The winner is the first strict maximum in candidate order.
            trials = []
            for shape in candidates:
                trial = list(strategy)
                trial[i] = shape
                trials.append(tuple(trial))
            evaluations += len(trials)
            scored = sim.evaluate_many(
                network, trials, tile_shared=tile_shared, detailed=False
            )
            for shape, metrics in zip(candidates, scored):
                if tr.enabled:
                    tr.event(
                        obs_metrics.EVENT_CANDIDATE,
                        search="greedy",
                        layer=i,
                        shape=str(shape),
                        feasible=metrics is not None,
                        reward=None if metrics is None else metrics.reward,
                    )
                if metrics is None:
                    infeasible += 1
                    continue
                if metrics.reward > best_reward:
                    best_reward = metrics.reward
                    best_shape = shape
            strategy[i] = best_shape
    if tr.enabled:
        tr.event(
            obs_metrics.EVENT_SEARCH_RESULT,
            search="greedy",
            network=network.name,
            evaluations=evaluations,
            infeasible=infeasible,
        )
    if stats is not None:
        stats["evaluations"] = evaluations
        stats["infeasible"] = infeasible
    return tuple(strategy)


def random_search(
    network: Network,
    candidates: Sequence[CrossbarShape],
    simulator: Simulator | None = None,
    *,
    rounds: int = 100,
    tile_shared: bool = True,
    seed: int = 0,
) -> SearchOutcome:
    """Uniform random strategies; returns the best *feasible* one found.

    Strategies that overflow the bank are counted as infeasible and
    skipped; only when every sampled strategy overflows does the search
    re-raise :class:`~repro.sim.simulator.CapacityError`.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    sim = simulator if simulator is not None else Simulator()
    tr = current_tracer()
    rng = np.random.default_rng(seed)
    best: tuple[Strategy, SystemMetrics] | None = None
    infeasible = 0
    with tr.span(obs_metrics.SPAN_SEARCH, search="random", network=network.name):
        # Draw every round upfront — one rng.integers call per round, in
        # round order, so the sample sequence is identical to the old
        # per-round loop — then score the whole batch at once (the
        # kernel scorer collapses duplicates to cache hits exactly like
        # serial evaluation would).
        samples = [
            tuple(
                candidates[i]
                for i in rng.integers(0, len(candidates), size=network.num_layers)
            )
            for _ in range(rounds)
        ]
        scored = sim.evaluate_many(
            network, samples, tile_shared=tile_shared, detailed=False
        )
        for round_index, (strategy, metrics) in enumerate(zip(samples, scored)):
            if tr.enabled:
                tr.event(
                    obs_metrics.EVENT_CANDIDATE,
                    search="random",
                    round=round_index,
                    feasible=metrics is not None,
                    reward=None if metrics is None else metrics.reward,
                )
            if metrics is None:
                infeasible += 1
                continue
            if best is None or metrics.reward > best[1].reward:
                best = (strategy, metrics)
    if tr.enabled and best is not None:
        tr.event(
            obs_metrics.EVENT_SEARCH_RESULT,
            search="random",
            network=network.name,
            evaluations=rounds,
            infeasible=infeasible,
            best_reward=best[1].reward,
        )
    if best is None:
        raise CapacityError(
            f"all {rounds} sampled strategies overflow the bank "
            f"({sim.config.tiles_per_bank} tiles)"
        )
    return SearchOutcome(
        best[0], best[1], evaluations=rounds, infeasible=infeasible
    )


def exhaustive_search(
    network: Network,
    candidates: Sequence[CrossbarShape],
    simulator: Simulator | None = None,
    *,
    tile_shared: bool = True,
    limit: int = 2_000_000,
) -> SearchOutcome:
    """Brute-force oracle over the full C^N space (small models only).

    Infeasible combinations (bank overflow) are skipped and counted;
    :class:`~repro.sim.simulator.CapacityError` propagates only when the
    *entire* space is infeasible.
    """
    space = len(candidates) ** network.num_layers
    if space > limit:
        raise ValueError(
            f"search space {space} exceeds limit {limit}; "
            "exhaustive search is for small models"
        )
    sim = simulator if simulator is not None else Simulator()
    tr = current_tracer()
    best: tuple[Strategy, SystemMetrics] | None = None
    infeasible = 0
    # One span and a result event only — per-candidate events over a C^N
    # space would dominate the trace.
    with tr.span(
        obs_metrics.SPAN_SEARCH,
        search="exhaustive",
        network=network.name,
        space=space,
    ):
        for combo in itertools.product(candidates, repeat=network.num_layers):
            metrics = sim.try_evaluate(
                network, combo, tile_shared=tile_shared, detailed=False
            )
            if metrics is None:
                infeasible += 1
                continue
            if best is None or metrics.reward > best[1].reward:
                best = (combo, metrics)
    if tr.enabled and best is not None:
        tr.event(
            obs_metrics.EVENT_SEARCH_RESULT,
            search="exhaustive",
            network=network.name,
            evaluations=space,
            infeasible=infeasible,
            best_reward=best[1].reward,
        )
    if best is None:
        raise CapacityError(
            f"all {space} strategies overflow the bank "
            f"({sim.config.tiles_per_bank} tiles)"
        )
    return SearchOutcome(
        best[0], best[1], evaluations=space, infeasible=infeasible
    )


def best_homogeneous(
    network: Network,
    shapes: Sequence[CrossbarShape],
    simulator: Simulator | None = None,
    *,
    tile_shared: bool = False,
) -> SearchOutcome:
    """The highest-RUE homogeneous accelerator ("Best-Homo", §4.4).

    Shapes whose uniform strategy overflows the bank are skipped.
    """
    sim = simulator if simulator is not None else Simulator()
    tr = current_tracer()
    scored: list[tuple[CrossbarShape, SystemMetrics]] = []
    infeasible = 0
    for shape in shapes:
        metrics = sim.try_evaluate(
            network, homogeneous_strategy(network, shape), tile_shared=tile_shared
        )
        if tr.enabled:
            tr.event(
                obs_metrics.EVENT_CANDIDATE,
                search="best_homogeneous",
                shape=str(shape),
                feasible=metrics is not None,
                reward=None if metrics is None else metrics.reward,
            )
        if metrics is None:
            infeasible += 1
            continue
        scored.append((shape, metrics))
    if not scored:
        raise CapacityError(
            f"every homogeneous strategy overflows the bank "
            f"({sim.config.tiles_per_bank} tiles)"
        )
    shape, metrics = max(scored, key=lambda pair: pair[1].rue)
    return SearchOutcome(
        shape, metrics, evaluations=len(shapes), infeasible=infeasible
    )
