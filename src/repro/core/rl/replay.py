"""The experience pool (§3.2).

After each inference, the pool collects the per-layer transitions
``E_k = (S_k, S_{k+1}, a_k, R)`` (Eq. 3) — the whole-model reward is
broadcast to every layer's transition.  The agent samples uniform random
mini-batches to update the actor-critic pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Transition:
    """One experience tuple ``(S_k, S_{k+1}, a_k, R)`` plus a terminal flag."""

    state: np.ndarray
    next_state: np.ndarray
    action: float
    reward: float
    done: bool


class ExperiencePool:
    """Fixed-capacity ring buffer with uniform sampling.

    Stored as one array per field (struct of arrays), allocated on the
    first :meth:`add` once the state width is known.  Rows past the fill
    level are never written, so unused capacity stays untouched memory.
    """

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._size = 0
        self._cursor = 0
        self._rng = np.random.default_rng(seed)
        self._states = np.empty((0, 0))
        self._next_states = np.empty((0, 0))
        self._actions = np.empty((0, 1))
        self._rewards = np.empty((0, 1))
        self._dones = np.empty((0, 1))

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def add(self, transition: Transition) -> None:
        if self._size == 0:
            dim = len(transition.state)
            self._states = np.empty((self.capacity, dim))
            self._next_states = np.empty((self.capacity, dim))
            self._actions = np.empty((self.capacity, 1))
            self._rewards = np.empty((self.capacity, 1))
            self._dones = np.empty((self.capacity, 1))
        i = self._cursor
        self._states[i] = transition.state
        self._next_states[i] = transition.next_state
        self._actions[i, 0] = transition.action
        self._rewards[i, 0] = transition.reward
        self._dones[i, 0] = float(transition.done)
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def extend(self, transitions) -> None:
        for t in transitions:
            self.add(t)

    def sample(
        self, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniform mini-batch (with replacement) as fresh float64 arrays.

        Returns ``(states, next_states, actions, rewards, dones)`` with
        shapes ``(B, D), (B, D), (B, 1), (B, 1), (B, 1)``.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self._size == 0:
            raise ValueError("cannot sample from an empty pool")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return (
            self._states[idx],
            self._next_states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._dones[idx],
        )
