"""TD3-style stabilisers for the DDPG agent (extension).

DDPG's critic famously overestimates Q-values; Fujimoto et al.'s TD3
counters that with three mechanisms, all optional here on top of
:class:`~repro.core.rl.ddpg.DDPGAgent`:

* **twin critics** — two independently initialised critics; targets use
  the minimum of their target copies;
* **delayed policy updates** — the actor (and targets) update once every
  ``policy_delay`` critic updates;
* **target policy smoothing** — clipped Gaussian noise on the target
  action before bootstrapping.

With the default bandit-mode critic target the bootstrapping pieces are
inert (there is no bootstrap), but twin critics still help: the actor
ascends the *minimum* of two value surfaces, damping spurious peaks a
single regressor hallucinate.  Exposed as :class:`TD3Agent`, a drop-in
replacement accepted by :class:`~repro.core.autohet.AutoHet` via
``agent_config=TD3Config(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...obs.trace import Tracer
from .ddpg import DDPGAgent, DDPGConfig
from .networks import MLP, Adam


@dataclass(frozen=True)
class TD3Config(DDPGConfig):
    """DDPG hyper-parameters plus the TD3 stabiliser knobs."""

    policy_delay: int = 2
    target_noise_sigma: float = 0.1
    target_noise_clip: float = 0.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.policy_delay < 1:
            raise ValueError(f"policy_delay must be >= 1, got {self.policy_delay}")


class TD3Agent(DDPGAgent):
    """DDPG agent with twin critics and delayed policy updates."""

    def __init__(
        self, config: TD3Config = TD3Config(), *, tracer: Tracer | None = None
    ) -> None:
        super().__init__(config, tracer=tracer)
        rng = np.random.default_rng(config.seed + 7919)
        sizes_c = (config.state_dim + 1, *config.hidden, 1)
        self.critic2 = MLP.create(sizes_c, rng=rng)
        self.critic2_target = self.critic2.clone()
        self.critic2_opt = Adam(self.critic2.params, lr=config.critic_lr)
        self._critics.append((self.critic2, self.critic2_target, self.critic2_opt))
        self._policy_delay = config.policy_delay
        self._smooth_rng = np.random.default_rng(config.seed + 104729)

    # ------------------------------------------------------------------
    def _target_actions(self, next_states: np.ndarray) -> np.ndarray:
        """Target policy smoothing: clipped noise on mu'(s')."""
        cfg: TD3Config = self.config  # type: ignore[assignment]
        next_actions = self.actor_target.forward(next_states)
        if cfg.target_noise_sigma > 0:
            noise = np.clip(
                self._smooth_rng.normal(
                    0.0, cfg.target_noise_sigma, size=next_actions.shape
                ),
                -cfg.target_noise_clip,
                cfg.target_noise_clip,
            )
            next_actions = np.clip(next_actions + noise, 0.0, 1.0)
        return next_actions
