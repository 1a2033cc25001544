"""The AutoHet pipeline: RL search over heterogeneous crossbar configs.

This is the system of Fig. 6: the DDPG agent proposes a crossbar type per
layer (decision stage, steps 1-4), the heterogeneous accelerator simulator
evaluates the full strategy (steps 5-7), and the experience pool feeds the
learning stage (steps 8-12).  Decision and learning alternate offline for
a fixed number of rounds (300 for the paper's VGG16 run, §4.5); the best
strategy seen becomes the final configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..arch.config import CrossbarShape, DEFAULT_CANDIDATES
from ..models.graph import Network
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.trace import current_tracer
from ..sim.cache import CacheStats
from ..sim.metrics import SystemMetrics
from ..sim.simulator import CapacityError, Simulator, Strategy
from .rl.ddpg import DDPGAgent, DDPGConfig
from .rl.environment import CrossbarSearchEnv, RewardFn, reward_rue

#: Progress logging for verbose searches, through the one obs bridge
#: (lint rules LNT001/LNT007); the CLI attaches the stdout handler.
_LOG = get_logger("search")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one AutoHet search."""

    network_name: str
    best_strategy: Strategy
    best_metrics: SystemMetrics
    rounds: int
    reward_history: tuple[float, ...]         #: episode rewards, in order
    best_reward_history: tuple[float, ...]    #: running best per episode
    decision_seconds: float                   #: time in the RL agent
    simulator_seconds: float                  #: time waiting for feedback
    learning_seconds: float                   #: time in gradient updates
    #: homogeneous warm-up episodes before the RL rounds; the histories
    #: hold ``rounds + seed_episodes`` entries.
    seed_episodes: int = 0
    #: episodes whose strategy overflowed the bank (penalty reward)
    infeasible_episodes: int = 0
    #: evaluation-cache counters at search end (``None`` when disabled)
    cache_stats: CacheStats | None = None

    @property
    def total_seconds(self) -> float:
        return self.decision_seconds + self.simulator_seconds + self.learning_seconds

    @property
    def simulator_fraction(self) -> float:
        """Share of search time spent on simulator feedback (§4.5: ~97%)."""
        total = self.total_seconds
        return self.simulator_seconds / total if total else 0.0

    def summary(self) -> str:
        strat = ", ".join(f"L{i + 1}:{s}" for i, s in enumerate(self.best_strategy))
        return (
            f"AutoHet[{self.network_name}] {self.rounds} rounds, "
            f"best RUE={self.best_metrics.rue:.3e} "
            f"(U={self.best_metrics.utilization_percent:.1f}%, "
            f"E={self.best_metrics.energy_nj:.3e} nJ)\n  strategy: {strat}"
        )


class AutoHet:
    """Automated heterogeneous crossbar configuration search."""

    def __init__(
        self,
        network: Network,
        candidates: Sequence[CrossbarShape] = DEFAULT_CANDIDATES,
        simulator: Simulator | None = None,
        *,
        tile_shared: bool = True,
        reward_fn: RewardFn = reward_rue,
        agent_config: DDPGConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        self.env = CrossbarSearchEnv(
            network,
            candidates,
            self.simulator,
            tile_shared=tile_shared,
            reward_fn=reward_fn,
        )
        cfg = agent_config if agent_config is not None else DDPGConfig(seed=seed)
        # A TD3Config transparently selects the twin-critic agent.
        from .rl.td3 import TD3Agent, TD3Config

        agent_cls = TD3Agent if isinstance(cfg, TD3Config) else DDPGAgent
        self.agent = agent_cls(cfg)
        self.network = network

    # ------------------------------------------------------------------
    def search(
        self,
        rounds: int = 300,
        *,
        verbose: bool = False,
        seed_homogeneous: bool = True,
    ) -> SearchResult:
        """Run the alternating decision/learning loop (Fig. 6).

        When ``seed_homogeneous`` is set (default), the first ``|C|``
        episodes probe the uniform strategies — one per crossbar
        candidate.  Those strategies are points of the search space the
        agent would eventually sample anyway; probing them up front
        anchors the critic's value estimate for every action bin and
        guarantees the search never returns worse than the best
        homogeneous configuration.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        env, agent = self.env, self.agent
        tracer = current_tracer()
        best_reward = float("-inf")
        best: tuple[Strategy, SystemMetrics] | None = None
        rewards: list[float] = []
        best_curve: list[float] = []
        t_decide = t_sim = t_learn = 0.0
        seed_episodes = 0
        infeasible_before = env.infeasible_episodes

        if seed_homogeneous:
            for idx in range(env.num_actions):
                t1 = time.perf_counter()
                probe = env.evaluate_indices([idx] * env.num_layers)
                t2 = time.perf_counter()
                agent.observe_episode(probe.transitions)
                t3 = time.perf_counter()
                t_sim += t2 - t1
                t_learn += t3 - t2
                seed_episodes += 1
                rewards.append(probe.reward)
                if probe.feasible and probe.reward > best_reward:
                    best_reward = probe.reward
                    best = (probe.strategy, probe.metrics)
                best_curve.append(best_reward)

        for episode in range(rounds):
            with tracer.span(obs_metrics.SPAN_EPISODE, episode=episode):
                # ---- decision stage (steps 1-4): pick an action per layer.
                t0 = time.perf_counter()
                agent.begin_episode()
                state = env.reset()
                indices: list[int] = []
                done = False
                while not done:
                    a = agent.act(state, explore=True)
                    idx = env.continuous_to_index(a)
                    indices.append(idx)
                    state, done = env.step(idx)
                t1 = time.perf_counter()
                # ---- hardware feedback (steps 5-7): simulator evaluation.
                result = env.finish()
                t2 = time.perf_counter()
                # ---- learning stage (steps 8-12): pool + pair-network
                # update.
                with tracer.span(obs_metrics.SPAN_LEARN, episode=episode):
                    agent.observe_episode(result.transitions)
                    agent.learn()
                t3 = time.perf_counter()

            t_decide += t1 - t0
            t_sim += t2 - t1
            t_learn += t3 - t2
            rewards.append(result.reward)
            if result.feasible and result.reward > best_reward:
                best_reward = result.reward
                best = (result.strategy, result.metrics)
            best_curve.append(best_reward)
            if verbose and (episode + 1) % max(rounds // 10, 1) == 0:
                _LOG.info(
                    "  round %4d/%d: reward=%.3e best=%.3e sigma=%.3f",
                    episode + 1,
                    rounds,
                    result.reward,
                    best_reward,
                    agent.noise.sigma,
                )

        if best is None:
            raise CapacityError(
                f"no feasible strategy in {len(rewards)} episodes on "
                f"{self.network.name}: every strategy overflowed the bank "
                f"({self.simulator.config.tiles_per_bank} tiles)"
            )
        if tracer.enabled:
            tracer.event(
                obs_metrics.EVENT_SEARCH_RESULT,
                search="autohet",
                network=self.network.name,
                rounds=rounds,
                best_reward=best_reward,
                seed_episodes=seed_episodes,
                infeasible=env.infeasible_episodes - infeasible_before,
            )
            stats = self.simulator.cache_stats()
            if stats is not None:
                obs_metrics.emit_cache_stats(tracer, stats, context="autohet")
        return SearchResult(
            network_name=self.network.name,
            best_strategy=best[0],
            best_metrics=best[1],
            rounds=rounds,
            reward_history=tuple(rewards),
            best_reward_history=tuple(best_curve),
            decision_seconds=t_decide,
            simulator_seconds=t_sim,
            learning_seconds=t_learn,
            seed_episodes=seed_episodes,
            infeasible_episodes=env.infeasible_episodes - infeasible_before,
            cache_stats=self.simulator.cache_stats(),
        )

    # ------------------------------------------------------------------
    def exploit(self) -> tuple[Strategy, SystemMetrics]:
        """Deterministic rollout of the current policy (no exploration)."""
        result = self.env.rollout(
            lambda s: self.env.continuous_to_index(self.agent.act(s, explore=False))
        )
        return result.strategy, result.metrics


def autohet_search(
    network: Network,
    candidates: Sequence[CrossbarShape] = DEFAULT_CANDIDATES,
    *,
    rounds: int = 300,
    tile_shared: bool = True,
    simulator: Simulator | None = None,
    seed: int = 0,
    verbose: bool = False,
) -> SearchResult:
    """One-call convenience wrapper: build an :class:`AutoHet` and search."""
    engine = AutoHet(
        network,
        candidates,
        simulator,
        tile_shared=tile_shared,
        seed=seed,
    )
    return engine.search(rounds, verbose=verbose)


def autohet_multi_seed(
    network: Network,
    candidates: Sequence[CrossbarShape] = DEFAULT_CANDIDATES,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    rounds: int = 300,
    tile_shared: bool = True,
    simulator: Simulator | None = None,
    verbose: bool = False,
) -> tuple[SearchResult, tuple[SearchResult, ...]]:
    """Run :func:`autohet_search` under several RL seeds; keep the best.

    The runs execute one after another and share one simulator — and
    therefore one evaluation cache, so later seeds hit on the earlier
    seeds' homogeneous probes and revisited strategies.

    Returns ``(best, per_seed_results)``; ``per_seed_results`` is ordered
    like ``seeds``.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    sim = simulator if simulator is not None else Simulator()
    # Every seed's environment reset probes the |C| uniform strategies
    # (``detailed=False``, matching the environment's keying); scoring
    # them once as a kernel batch pre-warms the shared cache so every
    # run starts on hits.
    if sim.cache is not None:
        sim.evaluate_many(
            network,
            [
                tuple(shape for _ in range(network.num_layers))
                for shape in candidates
            ],
            tile_shared=tile_shared,
            detailed=False,
        )

    results = tuple(
        autohet_search(
            network,
            candidates,
            rounds=rounds,
            tile_shared=tile_shared,
            simulator=sim,
            seed=seed,
            verbose=verbose,
        )
        for seed in seeds
    )
    best = max(results, key=lambda r: r.best_metrics.reward)
    return best, results
