"""Simulated-annealing search baseline (extension).

A classic single-solution metaheuristic for the same C^N space the RL
agent explores: start from a uniform strategy, propose single-layer
mutations, accept improvements always and regressions with probability
``exp(delta / T)`` under a geometric cooling schedule.

Included as a comparison point between random search (no structure) and
the RL agent (learned structure): annealing exploits local structure but,
like coordinate ascent, must random-walk between the tile-sharing basins
that coherent RL exploration jumps directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...arch.config import CrossbarShape
from ...models.graph import Network
from ...obs import metrics as obs_metrics
from ...obs.trace import current_tracer
from ...sim.metrics import SystemMetrics
from ...sim.simulator import CapacityError, Simulator
from .strategies import SearchOutcome


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling parameters."""

    initial_temperature: float = 1.0
    cooling: float = 0.995
    min_temperature: float = 1e-4

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if self.min_temperature <= 0:
            raise ValueError("min_temperature must be positive")


def simulated_annealing(
    network: Network,
    candidates: Sequence[CrossbarShape],
    simulator: Simulator | None = None,
    *,
    rounds: int = 300,
    tile_shared: bool = True,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    seed: int = 0,
) -> SearchOutcome:
    """Anneal over per-layer crossbar choices; returns the best found.

    Rewards are normalised by the starting strategy's reward so one
    temperature schedule works across models (reward magnitudes span
    orders of magnitude between AlexNet and ResNet152).

    Infeasible proposals (bank overflow) are rejected like any bad move
    and counted; :class:`~repro.sim.simulator.CapacityError` only
    propagates when no uniform starting strategy fits the bank.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    if not candidates:
        raise ValueError("need at least one candidate")
    sim = simulator if simulator is not None else Simulator()
    tr = current_tracer()
    rng = np.random.default_rng(seed)
    n = network.num_layers
    evaluations = infeasible = 0

    def evaluate(indices: list[int]) -> SystemMetrics | None:
        nonlocal evaluations, infeasible
        strategy = tuple(candidates[i] for i in indices)
        evaluations += 1
        metrics = sim.try_evaluate(
            network, strategy, tile_shared=tile_shared, detailed=False
        )
        if metrics is None:
            infeasible += 1
        return metrics

    # Start from the best *feasible* uniform strategy (cheap,
    # deterministic), reusing the probe's metrics rather than paying a
    # second evaluation of the chosen start.  The probes are mutually
    # independent, so they run as one kernel batch, traced or not; no
    # search events are emitted per probe.
    uniform_probes = sim.evaluate_many(
        network,
        [tuple(candidates[i] for _ in range(n)) for i in range(len(candidates))],
        tile_shared=tile_shared,
        detailed=False,
    )
    evaluations += len(uniform_probes)
    infeasible += sum(1 for m in uniform_probes if m is None)
    feasible_starts = [
        (i, m) for i, m in enumerate(uniform_probes) if m is not None
    ]
    if not feasible_starts:
        raise CapacityError(
            f"no uniform starting strategy fits the bank "
            f"({sim.config.tiles_per_bank} tiles)"
        )
    start, current_metrics = max(
        feasible_starts, key=lambda pair: pair[1].reward
    )
    current = [start] * n
    scale = abs(current_metrics.reward) or 1.0

    best = (tuple(current), current_metrics)
    temperature = schedule.initial_temperature
    with tr.span(
        obs_metrics.SPAN_SEARCH, search="annealing", network=network.name
    ):
        for round_index in range(rounds):
            proposal = list(current)
            layer = int(rng.integers(0, n))
            choice = int(rng.integers(0, len(candidates)))
            proposal[layer] = choice
            metrics = evaluate(proposal)
            accepted = False
            if metrics is not None:
                delta = (metrics.reward - current_metrics.reward) / scale
                if delta >= 0 or rng.random() < math.exp(delta / temperature):
                    accepted = True
                    current = proposal
                    current_metrics = metrics
                    if metrics.reward > best[1].reward:
                        best = (tuple(current), metrics)
            if tr.enabled:
                tr.event(
                    obs_metrics.EVENT_CANDIDATE,
                    search="annealing",
                    round=round_index,
                    layer=layer,
                    shape=str(candidates[choice]),
                    temperature=temperature,
                    feasible=metrics is not None,
                    accepted=accepted,
                    reward=None if metrics is None else metrics.reward,
                )
            temperature = max(
                temperature * schedule.cooling, schedule.min_temperature
            )
    if tr.enabled:
        tr.event(
            obs_metrics.EVENT_SEARCH_RESULT,
            search="annealing",
            network=network.name,
            evaluations=evaluations,
            infeasible=infeasible,
            best_reward=best[1].reward,
        )
    strategy = tuple(candidates[i] for i in best[0])
    return SearchOutcome(
        strategy, best[1], evaluations=evaluations, infeasible=infeasible
    )
