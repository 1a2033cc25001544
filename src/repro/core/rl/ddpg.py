"""Deep Deterministic Policy Gradient agent (§3.2).

The paper builds its RL agent on DDPG [20]: a deterministic actor
``mu(s) -> a`` in the continuous action box [0, 1] (discretised to a
crossbar-candidate index by the environment) and a critic ``Q(s, a)``
trained by temporal-difference learning against slow-moving target copies
of both networks.

Implementation notes:

* Rewards ``R = u / e`` are numerically tiny (energy is in nJ), so the
  agent applies an automatic reward scale — the reciprocal of the first
  observed |reward| — before TD learning.  Scaling a reward by a positive
  constant leaves the optimal policy unchanged.
* With ``bootstrap=True`` the critic target is ``r`` at terminal
  transitions and ``r + gamma * Q'(s', mu'(s'))`` otherwise.  The default
  bandit form regresses ``r`` directly, reads no target network, and so
  builds none.
* The actor ascends ``Q(s, mu(s))`` by backpropagating ``dQ/da`` through
  the critic's action input into the actor.
* The learner computes in float32, from the experience pool to the
  optimiser: the environment hands over float32 states, the pool stores
  float32, and every network and optimiser buffer is float32, so no
  update casts.
* The actor and the critic(s) live in one params buffer, stepped by one
  :class:`~repro.core.rl.networks.Adam` with a segment per network.  In
  bandit mode the critic's regression never reads the actor, so actor
  step k and critic step k + 1 read the same critic, and ``learn`` runs
  them as a pipeline: one critic forward over both batches, one stacked
  reverse pass and one Adam step over both segments, bit for bit what
  the sequential order gives.  A bootstrapped target needs the actor of
  step k before critic step k + 1 can form its upstream, and TD3 delays
  its actor steps, so both keep the sequential order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...obs import metrics as obs_metrics
from ...obs.trace import current_tracer
from .networks import (
    MLP,
    Adam,
    clip_ufunc,
    joint_networks,
    mean_array,
    mean_floats,
    stacks_rows_exactly,
    unit_clip,
)
from .noise import TruncatedNormalNoise
from .replay import ExperiencePool, Transition


@dataclass(frozen=True)
class DDPGConfig:
    """Hyper-parameters of the search agent."""

    state_dim: int = 10
    hidden: tuple[int, ...] = (64, 64)
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    gamma: float = 0.98
    tau: float = 0.01             #: soft target-update rate
    batch_size: int = 64
    pool_capacity: int = 20_000
    updates_per_episode: int = 20
    warmup_episodes: int = 5      #: pure-exploration episodes before learning
    noise_sigma: float = 0.5
    noise_decay: float = 0.99
    seed: int = 0
    #: TD-bootstrap the critic target (classic DDPG) or regress the
    #: broadcast episode reward directly (contextual-bandit form).  The
    #: episode reward is already the *global* outcome of all layers'
    #: actions (Eq. 3 broadcasts it), so the bandit form gives each
    #: (layer-state, action) pair a direct, low-bias learning signal —
    #: it converges noticeably better on deep models like ResNet152.
    bootstrap: bool = False
    #: subtract an exponential moving average of episode rewards from the
    #: critic target (variance reduction, as in HAQ-style searches).
    use_baseline: bool = True
    baseline_decay: float = 0.95
    #: epsilon-greedy exploration on top of the Gaussian actor noise: with
    #: this (decaying) probability a layer's action is drawn uniformly,
    #: guaranteeing late-stage coverage of every candidate and preventing
    #: the saturating sigmoid actor from locking into an edge bin.
    epsilon: float = 0.3
    epsilon_decay: float = 0.99
    epsilon_min: float = 0.02
    #: probability of a *coherent* exploration episode, in which every
    #: layer perturbs around one shared random action.  The tile-shared
    #: allocator couples layers that pick the same crossbar shape (they
    #: pool their tile waste), creating multiple basins that per-layer
    #: independent noise cannot hop between; coherent episodes let the
    #: critic observe whole basins.
    coherent_episode_prob: float = 0.2
    coherent_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.updates_per_episode < 0:
            raise ValueError(
                f"updates_per_episode must be >= 0, got {self.updates_per_episode}"
            )
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")


class DDPGAgent:
    """Actor-critic pair, experience pool, and targets when bootstrapping."""

    def __init__(self, config: DDPGConfig = DDPGConfig()) -> None:
        self.config = config
        self._last_actor_objective: float | None = None
        rng = np.random.default_rng(config.seed)
        sizes_a = (config.state_dim, *config.hidden, 1)
        sizes_c = (config.state_dim + 1, *config.hidden, 1)
        # Linear actor output clipped to [0, 1] in act(), trained with
        # inverting gradients (Hausknecht & Stone) — a sigmoid head
        # saturates at the box edges and cannot walk back once the critic
        # later learns the peak is interior.
        actor = MLP.create(sizes_a, output_activation="linear", rng=rng)
        critics = [MLP.create(sizes_c, rng=rng), *self._twin_critics()]
        # One params, grads and Adam buffer for [critics... | actor], one
        # segment per network, so any contiguous run of them steps in one
        # pass (the pipelined bandit learner steps the critic and the actor
        # together).
        params, self._grads, (*critics, self.actor) = joint_networks(
            [*critics, actor]
        )
        self.optimizer = Adam(
            params,
            lr=[config.critic_lr] * len(critics) + [config.actor_lr],
            sizes=[net.params.size for net in (*critics, self.actor)],
        )
        self._actor_segment = len(critics)
        # Only a bootstrapping critic reads target networks, so the
        # bandit form builds none (and never Polyak-averages one).
        self.actor_target = self.actor.clone() if config.bootstrap else None
        #: ``(online, target)`` per critic, its index its Adam segment.
        #: The target is ``None`` unless the critic bootstraps.
        self._critics = [
            (critic, critic.clone() if config.bootstrap else None)
            for critic in critics
        ]
        self.critic, self.critic_target = self._critics[0]
        #: critic updates per actor update (TD3's delayed policy updates).
        self._policy_delay = 1
        self._update_count = 0
        #: run the bandit updates as a pipeline (see learn()); TD3's twin
        #: critics and delayed actor steps keep them in order.
        self._pipelined = (
            len(critics) == 1
            and not config.bootstrap
            and stacks_rows_exactly(self.critic, config.batch_size)
        )
        # The learner's upstreams: rows [:B] hold -dMean/dQ, the upstream
        # of an actor step's pass through a critic (negated, so that the
        # pass hands back the descent direction); rows [B:] take each
        # critic step's dMSE/dQ.  A pipelined update runs one reverse pass
        # over both halves.
        batch = config.batch_size
        self._upstream = np.empty((2 * batch, 1), dtype=np.float32)
        self._upstream[:batch] = -1.0 / batch
        self._neg_mean_grad = self._upstream[:batch]
        self._critic_upstream = self._upstream[batch:]
        self.pool = ExperiencePool(config.pool_capacity, seed=config.seed)
        self.noise = TruncatedNormalNoise(
            sigma=config.noise_sigma, decay=config.noise_decay, seed=config.seed
        )
        self.epsilon = config.epsilon
        self._eps_rng = np.random.default_rng(config.seed + 1)
        self._coherent_base: float | None = None
        self.reward_scale: float | None = None
        self.reward_baseline: float | None = None
        self.episodes = 0
        self.critic_losses: list[float] = []

    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, *, explore: bool = True) -> float:
        """Continuous action in [0, 1] for one state."""
        if explore and self._coherent_base is not None:
            a = self._coherent_base + self._eps_rng.normal(
                0.0, self.config.coherent_sigma
            )
            return unit_clip(a)
        if explore and self._eps_rng.random() < self.epsilon:
            return float(self._eps_rng.random())
        a = float(unit_clip(self.actor.forward(state)[0, 0]))
        if explore:
            a = self.noise.perturb(a)
        return a

    def begin_episode(self) -> None:
        """Decide this episode's exploration mode (coherent or per-layer)."""
        if self._eps_rng.random() < self.config.coherent_episode_prob:
            self._coherent_base = float(self._eps_rng.random())
        else:
            self._coherent_base = None

    def observe_episode(self, transitions: list[Transition]) -> None:
        """Store one episode's transitions, fixing the reward scale lazily."""
        if self.reward_scale is None:
            magnitudes = [abs(t.reward) for t in transitions if t.reward != 0.0]
            self.reward_scale = 1.0 / magnitudes[0] if magnitudes else 1.0
        if transitions:
            scaled = transitions[0].reward * self.reward_scale
            if self.reward_baseline is None:
                self.reward_baseline = scaled
            else:
                d = self.config.baseline_decay
                self.reward_baseline = d * self.reward_baseline + (1 - d) * scaled
        self.pool.extend(transitions)
        self.episodes += 1
        self.noise.end_episode()
        self.epsilon = max(
            self.epsilon * self.config.epsilon_decay, self.config.epsilon_min
        )

    def _twin_critics(self) -> list[MLP]:
        """Critics beside the first; TD3 adds its twin here."""
        return []

    # ------------------------------------------------------------------
    def learn(self) -> float | None:
        """Run the configured number of gradient updates; returns last loss.

        Update k is a critic step and then an actor step.  In bandit mode
        (``bootstrap=False``) the critic's regression never reads the
        actor, so actor step k and critic step k + 1 both read the critic
        after critic step k, and the updates run as a pipeline
        (:meth:`_learn_pipelined`) with the bits of running them in order.
        A bootstrapped target reads the actor after actor step k before
        critic step k + 1 can form its upstream, and TD3 steps its actor
        only every ``policy_delay`` updates, through two critics, so both
        run the updates in order (:meth:`_update_once`).  So does a bandit
        agent whose batch BLAS would not stack exactly
        (:func:`~repro.core.rl.networks.stacks_rows_exactly`, checked once
        at construction).
        """
        cfg = self.config
        # Sampling is with replacement, so a pool smaller than the batch
        # size is still usable; only an empty pool (or warmup, or zero
        # updates) blocks.
        if (
            self.episodes <= cfg.warmup_episodes
            or len(self.pool) == 0
            or cfg.updates_per_episode == 0
        ):
            return None
        # One draw serves every update of this call: the pool, the reward
        # scale and the baseline only change between episodes, and one
        # draw of n * B indices is the same stream as n draws of B.
        batch = cfg.batch_size
        states, next_states, actions, rewards, dones = self.pool.sample(
            cfg.updates_per_episode * batch
        )
        rewards *= self.reward_scale or 1.0
        if cfg.use_baseline and self.reward_baseline is not None:
            rewards -= self.reward_baseline
        sa = np.concatenate([states, actions], axis=1)
        if self._pipelined:
            loss = self._learn_pipelined(states, rewards, sa)
        else:
            # Critic inputs [s, a] and [s, mu(s)]; each actor step writes
            # its mu(s) over the action column of its own rows.
            sa_mu = sa.copy()
            for start in range(0, len(sa), batch):
                rows = slice(start, start + batch)
                loss = self._update_once(
                    states[rows],
                    next_states[rows],
                    rewards[rows],
                    dones[rows],
                    sa[rows],
                    sa_mu[rows],
                )
        # Telemetry is read-only: every traced quantity is already computed
        # by the update, so enabling it cannot change the learning
        # trajectory.
        tracer = current_tracer()
        if tracer.enabled:
            tracer.counter(obs_metrics.CRITIC_LOSS, loss, episode=self.episodes)
            if self._last_actor_objective is not None:
                tracer.counter(
                    obs_metrics.ACTOR_LOSS,
                    self._last_actor_objective,
                    episode=self.episodes,
                )
        return loss

    def _learn_pipelined(
        self, states: np.ndarray, rewards: np.ndarray, sa: np.ndarray
    ) -> float:
        """The bandit updates of one :meth:`learn`, actor step k beside
        critic step k + 1.

        A lone critic step 1 comes first.  Each loop pass then runs actor
        step k and critic step k + 1 off one critic forward over the
        stacked rows ``[s, mu(s)]_k`` and ``[s, a]_{k+1}``, one stacked
        reverse pass (:meth:`MLP.backward` with ``input_rows``) and one
        Adam step over the critic and actor segments, one step apart.  A
        lone actor step n comes last, so :meth:`act` sees the final actor.
        """
        batch = self.config.batch_size
        n = len(sa) // batch
        critic, actor, opt, grads = self.critic, self.actor, self.optimizer, self._grads
        # [s, a] of update k and its [s, mu(s)] as consecutive B-row blocks,
        # [s, a]_1, [s, mu(s)]_1, [s, a]_2, ..., so that [s, mu(s)]_k and
        # [s, a]_{k+1} are one contiguous 2B-row block.
        width = sa.shape[1]
        blocks = np.repeat(sa.reshape(n, 1, batch, width), 2, axis=1).reshape(-1, width)
        self.critic_losses.append(
            self._critic_step(critic, 0, blocks[:batch], rewards[:batch])
        )
        for k in range(1, n):
            mu_rows = slice((2 * k - 1) * batch, 2 * k * batch)
            mu_raw = actor.forward(states[(k - 1) * batch : k * batch])
            clip_ufunc(mu_raw, 0.0, 1.0, out=blocks[mu_rows, -1:])
            q = critic.forward(blocks[mu_rows.start : mu_rows.stop + batch])
            loss = self._critic_loss(q[batch:], rewards[k * batch : (k + 1) * batch])
            neg_dq_da = critic.backward(self._upstream, batch)[:, -1:]
            self._actor_backward(mu_raw, q[:batch], neg_dq_da)
            opt.step(grads, 0, 2)
            self.critic_losses.append(loss)
        self._actor_step(states[-batch:], blocks[-batch:])
        self._update_count += n
        return self.critic_losses[-1]

    def _target_actions(self, next_states: np.ndarray) -> np.ndarray:
        return self.actor_target.forward(next_states)

    def _target_q(self, next_states: np.ndarray) -> np.ndarray:
        """Bootstrap value: min over target critics of Q'(s', mu'(s'))."""
        sa = np.concatenate(
            [next_states, self._target_actions(next_states)], axis=1
        )
        q = self.critic_target.forward(sa)
        for _, target in self._critics[1:]:
            q = np.minimum(q, target.forward(sa))
        return q

    def _update_once(
        self,
        states: np.ndarray,
        next_states: np.ndarray,
        rewards: np.ndarray,
        dones: np.ndarray,
        sa: np.ndarray,
        sa_mu: np.ndarray,
    ) -> float:
        """One critic step per critic, then (every ``_policy_delay``) an actor step."""
        cfg = self.config
        if cfg.bootstrap:
            # ---- classic DDPG: TD target from the target networks.
            target = rewards + cfg.gamma * (1.0 - dones) * self._target_q(
                next_states
            )
        else:
            # ---- bandit form: the broadcast episode reward *is* the
            # value of every (state, action) pair in the episode.
            target = rewards
        losses = [
            self._critic_step(critic, segment, sa, target)
            for segment, (critic, _) in enumerate(self._critics)
        ]
        loss = mean_floats(losses)

        self._update_count += 1
        if self._update_count % self._policy_delay == 0:
            # ---- actor update, then soft target updates.
            self._actor_step(states, sa_mu)
            if cfg.bootstrap:
                self.actor_target.soft_update_from(self.actor, cfg.tau)
                for critic, critic_target in self._critics:
                    critic_target.soft_update_from(critic, cfg.tau)
        self.critic_losses.append(loss)
        return loss

    def _critic_loss(self, q: np.ndarray, target: np.ndarray) -> float:
        """The MSE of ``q`` against ``target``; leaves dMSE/dq in the
        critic rows of the upstream buffer."""
        td_error = q - target
        upstream = self._critic_upstream
        np.multiply(td_error, 2.0, out=upstream)
        upstream /= td_error.shape[0]
        return mean_array(td_error**2)

    def _critic_step(
        self, critic: MLP, segment: int, sa: np.ndarray, target: np.ndarray
    ) -> float:
        """One MSE regression step of ``critic`` onto ``target``."""
        loss = self._critic_loss(critic.forward(sa), target)
        critic.backward(self._critic_upstream)
        self.optimizer.step(self._grads, segment, segment + 1)
        return loss

    def _actor_step(self, states: np.ndarray, sa_mu: np.ndarray) -> None:
        """Ascend min over critics of Q(s, mu(s)) with inverting gradients.

        ``sa_mu`` holds ``states`` in all but its last column, which this
        step overwrites with the clipped actions mu(s).
        """
        mu_raw = self.actor.forward(states)
        clip_ufunc(mu_raw, 0.0, 1.0, out=sa_mu[:, -1:])
        # -dMean(Q)/d[s, a] through the critic; its last column is -dQ/da.
        # The critics' own parameter gradients are not needed here.
        q = self.critic.forward(sa_mu)
        neg_dq_da = self.critic.input_grad(self._neg_mean_grad)[:, -1:]
        for critic, _ in self._critics[1:]:
            # The actor follows whichever critic is lower per sample.
            q_k = critic.forward(sa_mu)
            neg_dq_da_k = critic.input_grad(self._neg_mean_grad)[:, -1:]
            neg_dq_da = np.where(q <= q_k, neg_dq_da, neg_dq_da_k)
            q = np.minimum(q, q_k)
        self._actor_backward(mu_raw, q, neg_dq_da)
        segment = self._actor_segment
        self.optimizer.step(self._grads, segment, segment + 1)

    def _actor_backward(
        self, mu_raw: np.ndarray, q: np.ndarray, neg_dq_da: np.ndarray
    ) -> None:
        """Fill the actor's ``grads`` from the critics' ``q`` and -dQ/da at mu(s)."""
        self._last_actor_objective = -mean_array(q)
        # Scale upward pushes by the headroom to 1 and downward pushes by
        # the headroom to 0, computed on the *raw* (unclipped) output:
        # outside the box the headroom turns negative, actively steering
        # the policy back in.
        headroom = np.where(neg_dq_da < 0, 1.0 - mu_raw, mu_raw)
        self.actor.backward(neg_dq_da * clip_ufunc(headroom, -1.0, 1.0))
