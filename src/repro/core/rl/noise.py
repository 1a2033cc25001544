"""Exploration noise processes for the DDPG actor.

Two standard options:

* :class:`TruncatedNormalNoise` — decayed Gaussian perturbation truncated
  to the action box (the HAQ-style default; works well for the bounded
  scalar action AutoHet uses).
* :class:`OrnsteinUhlenbeckNoise` — the temporally-correlated process of
  the original DDPG paper, kept for completeness and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .networks import clip_ufunc


@dataclass
class TruncatedNormalNoise:
    """Gaussian exploration with multiplicative per-episode decay."""

    sigma: float = 0.5
    decay: float = 0.99
    low: float = 0.0
    high: float = 1.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def perturb(self, action: float) -> float:
        """Add truncated Gaussian noise to a scalar action."""
        noisy = action + self._rng.normal(0.0, self.sigma)
        return float(clip_ufunc(noisy, self.low, self.high))

    def end_episode(self) -> None:
        """Decay the exploration scale after each search round."""
        self.sigma *= self.decay

    def reset(self) -> None:
        pass


@dataclass
class OrnsteinUhlenbeckNoise:
    """Mean-reverting OU process: ``dx = theta (mu - x) dt + sigma dW``."""

    theta: float = 0.15
    mu: float = 0.0
    sigma: float = 0.2
    dt: float = 1.0
    low: float = 0.0
    high: float = 1.0
    seed: int = 0
    _x: float = field(init=False, default=0.0)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._x = self.mu

    def perturb(self, action: float) -> float:
        self._x += self.theta * (self.mu - self._x) * self.dt + (
            self.sigma * np.sqrt(self.dt) * self._rng.normal()
        )
        return float(clip_ufunc(action + self._x, self.low, self.high))

    def end_episode(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._x = self.mu
