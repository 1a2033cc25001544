"""The crossbar-configuration search environment (§3.2).

One episode walks the network's layers in order.  At step ``k`` the agent
observes the Table-1 state vector of layer ``k`` and emits an action — the
crossbar type for that layer.  When every layer has received an action the
strategy is complete (Fig. 6 step 4): the heterogeneous accelerator
simulator evaluates it and the reward ``R = u / e`` (Eq. 2) comes back as
*direct hardware feedback* (steps 5-7).  The terminal reward is broadcast
to all per-layer transitions, as the experience tuple of Eq. 3 implies.

State-vector interpretation: Table 1 lists the dynamic features ``a_k``
and ``u_k`` as "obtained from the decision stage".  Since the action of
layer ``k`` cannot be observed before it is decided, the observation for
layer ``k`` carries the *previous* decision's action and utilization
(zeros at ``k = 0``) — so that ``S_{k+1}`` contains ``a_k`` and ``u_k``
exactly as Eq. 3 requires.  All dimensions are normalised to [0, 1] by
per-network maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ...analysis.checkers import check_mappings, check_network
from ...analysis.invariants import Report
from ...arch.config import CrossbarShape
from ...arch.mapping import map_layer
from ...models.graph import Network
from ...obs import metrics as obs_metrics
from ...obs.trace import current_tracer
from ...sim.metrics import SystemMetrics
from ...sim.simulator import CapacityError, Simulator
from .networks import unit_clip
from .replay import Transition

STATE_DIM = 10

#: Maps hardware feedback to a scalar reward.  Default: Eq. 2, R = u / e.
RewardFn = Callable[[SystemMetrics], float]


def reward_rue(metrics: SystemMetrics) -> float:
    """The paper's reward (Eq. 2): utilization fraction over energy (nJ)."""
    return metrics.reward


def reward_utilization(metrics: SystemMetrics) -> float:
    """Ablation reward: utilization only."""
    return metrics.utilization


def reward_energy(metrics: SystemMetrics) -> float:
    """Ablation reward: negative energy (maximise efficiency only)."""
    return -metrics.energy_nj


@dataclass
class EpisodeResult:
    """Everything one decision episode produced.

    ``metrics`` is ``None`` for an *infeasible* episode — a strategy that
    overflows the bank's tile budget.  The episode still carries its
    (penalty) reward and transitions so the agent learns to avoid the
    region instead of crashing the search.
    """

    strategy: tuple[CrossbarShape, ...]
    metrics: SystemMetrics | None
    reward: float
    transitions: list[Transition]

    @property
    def feasible(self) -> bool:
        return self.metrics is not None


class CrossbarSearchEnv:
    """Layer-by-layer crossbar-type assignment environment."""

    def __init__(
        self,
        network: Network,
        candidates: Sequence[CrossbarShape],
        simulator: Simulator | None = None,
        *,
        tile_shared: bool = True,
        reward_fn: RewardFn = reward_rue,
        infeasible_reward: float = 0.0,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one crossbar candidate")
        self.network = network
        self.candidates = tuple(candidates)
        self.simulator = simulator if simulator is not None else Simulator()
        # Static gate: a broken model graph or an ADC that cannot resolve
        # the candidate rows would poison every episode — reject now,
        # before the search burns simulator rollouts (NET*/CFG004 rules).
        report = Report()
        report.extend(check_network(network))
        report.raise_if_errors(f"CrossbarSearchEnv({network.name})")
        self.simulator.config.validate_for_candidates(self.candidates)
        self.tile_shared = tile_shared
        self.reward_fn = reward_fn
        # Reward of an episode whose strategy overflows the bank.  With
        # the paper's R = u / e (strictly positive), the default 0.0 is
        # below every feasible reward — a capacity breach reads as the
        # worst possible outcome without crashing the search.
        self.infeasible_reward = infeasible_reward
        #: episodes rejected for bank overflow since construction
        self.infeasible_episodes = 0
        #: episodes finished since construction (feasible or not)
        self.episodes_finished = 0
        self._norms = self._feature_norms()
        self._pending: list[int] = []
        self._states: list[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return self.network.num_layers

    @property
    def num_actions(self) -> int:
        return len(self.candidates)

    def action_to_shape(self, index: int) -> CrossbarShape:
        return self.candidates[index]

    def continuous_to_index(self, a: float) -> int:
        """Discretise a continuous action in [0, 1] to a candidate index.

        Equal-width bins (``floor(a * C)``), so uniform exploration noise
        reaches every candidate — including the extreme indices — with
        equal probability.
        """
        a = float(unit_clip(a))
        return min(int(a * self.num_actions), self.num_actions - 1)

    def index_to_continuous(self, index: int) -> float:
        """The centre of the candidate's action bin."""
        return (index + 0.5) / self.num_actions

    # ------------------------------------------------------------------
    def _feature_norms(self) -> np.ndarray:
        """Per-dimension maxima for [0, 1] normalisation."""
        layers = self.network.layers
        norms = np.ones(STATE_DIM)
        norms[0] = max(len(layers) - 1, 1)                       # k
        norms[1] = 1.0                                            # t
        norms[2] = max(l.in_channels for l in layers)             # inc
        norms[3] = max(l.out_channels for l in layers)            # outc
        norms[4] = max(l.kernel_elems for l in layers)            # ks
        norms[5] = max(l.stride for l in layers)                  # s
        norms[6] = max(l.weight_count for l in layers)            # w
        norms[7] = max(l.input_size for l in layers)              # ins
        norms[8] = 1.0                                            # a (already [0,1])
        norms[9] = 1.0                                            # u (already [0,1])
        return norms

    def observe(self, layer_index: int, prev_action: float, prev_util: float) -> np.ndarray:
        """Build the normalised 10-dim state vector for one layer.

        The vector is normalised in float64 and handed to the agent in
        float32, the learner's dtype.  This is the one place a state
        changes dtype: the agent acts on it and the experience pool
        stores it as it is.
        """
        layer = self.network.layers[layer_index]
        raw = np.array(
            [
                layer.index,
                layer.layer_type.state_code,
                layer.in_channels,
                layer.out_channels,
                layer.kernel_elems,
                layer.stride,
                layer.weight_count,
                layer.input_size,
                prev_action,
                prev_util,
            ],
            dtype=np.float64,
        )
        return (raw / self._norms).astype(np.float32)

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a new episode; returns the observation for layer 0."""
        self._pending = []
        self._states = [self.observe(0, 0.0, 0.0)]
        return self._states[0]

    def step(self, action_index: int) -> tuple[np.ndarray | None, bool]:
        """Assign a crossbar type to the current layer.

        Returns ``(next_state, done)``; ``next_state`` is ``None`` once
        all layers are decided (call :meth:`finish` to get the reward).
        """
        if not self._states:
            raise RuntimeError("call reset() before step()")
        if not 0 <= action_index < self.num_actions:
            raise ValueError(f"action index {action_index} out of range")
        k = len(self._pending)
        if k >= self.num_layers:
            raise RuntimeError("episode already complete")
        self._pending.append(action_index)
        shape = self.candidates[action_index]
        util_k = map_layer(self.network.layers[k], shape).utilization
        done = len(self._pending) == self.num_layers
        # The successor observation (for layer k+1, or the terminal
        # pseudo-state repeating the last layer) carries a_k and u_k.
        next_layer = min(k + 1, self.num_layers - 1)
        next_state = self.observe(
            next_layer, self.index_to_continuous(action_index), util_k
        )
        self._states.append(next_state)
        return (None if done else next_state), done

    def finish(self) -> EpisodeResult:
        """Evaluate the completed strategy and build the transitions."""
        if len(self._pending) != self.num_layers:
            raise RuntimeError("episode not complete")
        strategy = tuple(self.candidates[i] for i in self._pending)
        # Validate the mapped plan statically before handing it to the
        # simulator: an Eq. 4 breach (MAP001-MAP003) means corrupt mapping
        # arithmetic, and feedback computed from it would train the agent
        # on garbage.  The map_layer results are lru-cached, so this costs
        # arithmetic only.
        mappings = [
            map_layer(layer, shape)
            for layer, shape in zip(self.network.layers, strategy)
        ]
        report = Report()
        report.extend(check_mappings(mappings))
        report.raise_if_errors(f"episode strategy on {self.network.name}")
        try:
            metrics = self.simulator.evaluate(
                self.network, strategy, tile_shared=self.tile_shared, detailed=False
            )
        except CapacityError:
            # An over-budget strategy is a legitimate point of the search
            # space, not a bug: emit a penalty episode so the agent steers
            # away from it (and the search survives).
            metrics = None
            self.infeasible_episodes += 1
            reward = self.infeasible_reward
        else:
            reward = self.reward_fn(metrics)
        self.episodes_finished += 1
        tracer = current_tracer()
        if tracer.enabled:
            obs_metrics.emit_episode(
                tracer,
                index=self.episodes_finished,
                reward=reward,
                feasible=metrics is not None,
                network=self.network.name,
                utilization=None if metrics is None else metrics.utilization,
                occupied_tiles=None if metrics is None else metrics.occupied_tiles,
            )
        transitions = [
            Transition(
                state=self._states[k],
                next_state=self._states[k + 1],
                action=self.index_to_continuous(self._pending[k]),
                reward=reward,
                done=(k == self.num_layers - 1),
            )
            for k in range(self.num_layers)
        ]
        return EpisodeResult(strategy, metrics, reward, transitions)

    # ------------------------------------------------------------------
    def rollout(self, policy: Callable[[np.ndarray], int]) -> EpisodeResult:
        """Run one full episode under an index-valued policy."""
        state = self.reset()
        done = False
        while not done:
            action = policy(state)
            state, done = self.step(action)
        return self.finish()

    def evaluate_indices(self, indices: Sequence[int]) -> EpisodeResult:
        """Score a fixed strategy expressed as candidate indices."""
        if len(indices) != self.num_layers:
            raise ValueError("need one index per layer")
        self.reset()
        for idx in indices:
            self.step(idx)
        return self.finish()
