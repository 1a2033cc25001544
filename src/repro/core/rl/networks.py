"""Minimal feed-forward neural networks with manual backprop (NumPy only).

The DDPG agent (§3.2) needs an actor and a critic — small MLPs.  No deep
learning framework is available offline, so this module implements exactly
what DDPG requires: dense layers, ReLU/tanh/sigmoid activations, forward
passes that keep their activations, reverse-mode gradients (including the
gradient with respect to the *input*, which the actor update needs through
the critic), an Adam optimizer, and Polyak (soft) target-network updates.

Every parameter of a network lives in one flat buffer (``MLP.params``),
with a twin flat gradient buffer (``MLP.grads``); the per-layer weights
and biases are views into them.  The optimiser and the target updates are
therefore a handful of in-place elementwise ops over one array each,
whatever the depth of the network.

Gradients are verified against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

Activation = str  # "relu" | "tanh" | "sigmoid" | "linear"


def _act_inplace(name: Activation, z: np.ndarray) -> None:
    """Overwrite pre-activation ``z`` with its activation."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "tanh":
        np.tanh(z, out=z)
    elif name == "sigmoid":
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    elif name != "linear":
        raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: Activation, a: np.ndarray) -> np.ndarray | None:
    """d activation / d z from the activation ``a``; ``None`` for identity.

    ReLU's mask reads the output: ``max(z, 0) > 0`` exactly when ``z > 0``.
    """
    if name == "relu":
        return a > 0.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    return None


def _views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class MLP:
    """A fully-connected network ``in -> hidden... -> out``.

    ``params`` is laid out as every weight matrix (row-major) followed by
    every bias vector, in layer order — the order of :meth:`parameters`.
    ``grads`` has the same layout and is filled by :meth:`backward`.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        hidden_activation: Activation = "relu",
        output_activation: Activation = "linear",
        params: np.ndarray | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        pairs = list(zip(self.sizes[:-1], self.sizes[1:]))
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in pairs)
        n = n_weights + sum(fan_out for _, fan_out in pairs)
        if params is None:
            params = np.zeros(n)
        elif params.shape != (n,):
            raise ValueError(f"expected {n} parameters, got shape {params.shape}")
        self.params = params
        self.grads = np.zeros(n)
        self._scratch = np.empty(n)
        bias_shapes = [(fan_out,) for _, fan_out in pairs]
        self.weights = _views(params[:n_weights], pairs)
        self.biases = _views(params[n_weights:], bias_shapes)
        self._grad_w = _views(self.grads[:n_weights], pairs)
        self._grad_b = _views(self.grads[n_weights:], bias_shapes)
        self._activation_names = (hidden_activation,) * (len(pairs) - 1) + (
            output_activation,
        )
        self._activations: list[np.ndarray] | None = None

    @staticmethod
    def create(
        sizes: Sequence[int],
        *,
        hidden_activation: Activation = "relu",
        output_activation: Activation = "linear",
        rng: np.random.Generator | None = None,
    ) -> "MLP":
        """He-initialised network (weights drawn layer by layer, zero biases)."""
        net = MLP(sizes, hidden_activation, output_activation)
        rng = rng if rng is not None else np.random.default_rng(0)
        for w in net.weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
        return net

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Per-layer views into ``params``: weights, then biases."""
        return self.weights + self.biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; keeps the activations for the next :meth:`backward`.

        The input and the returned output are kept by reference, so the
        caller must not overwrite either before that backward pass.
        """
        a = np.atleast_2d(x)
        activations = [a]
        for w, b, name in zip(self.weights, self.biases, self._activation_names):
            a = a @ w
            a += b
            _act_inplace(name, a)
            activations.append(a)
        self._activations = activations
        return a

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Reverse-mode pass through the last :meth:`forward`.

        ``upstream`` is dLoss/dOutput of shape (batch, out).  Fills
        ``grads`` with dLoss/dParams and returns dLoss/dInput.
        """
        activations = self._activations
        if activations is None:
            raise RuntimeError("backward needs a forward pass first")
        delta = np.atleast_2d(upstream)
        if delta.shape != activations[-1].shape:
            raise ValueError(
                f"upstream shape {delta.shape} does not match the last "
                f"forward output {activations[-1].shape}"
            )
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            grad = _act_grad(self._activation_names[i], activations[i + 1])
            if grad is not None:
                # The output layer's delta is the caller's array; every
                # deeper delta is a fresh matmul result, safe to scale in place.
                if i == last:
                    delta = delta * grad
                else:
                    delta *= grad
            np.matmul(activations[i].T, delta, out=self._grad_w[i])
            np.add.reduce(delta, axis=0, out=self._grad_b[i])
            delta = delta @ self.weights[i].T
        return delta

    # ------------------------------------------------------------------
    def clone(self) -> "MLP":
        return MLP(
            self.sizes,
            self.hidden_activation,
            self.output_activation,
            self.params.copy(),
        )

    def soft_update_from(self, source: "MLP", tau: float) -> None:
        """Polyak averaging: ``theta <- tau * source + (1 - tau) * theta``.

        ``tau`` is not checked here; the agent config validates it once.
        """
        self.params *= 1.0 - tau
        np.multiply(source.params, tau, out=self._scratch)
        self.params += self._scratch

    def copy_from(self, source: "MLP") -> None:
        """Exact copy of ``source``'s parameters (non-finite values too)."""
        np.copyto(self.params, source.params)


@dataclass
class Adam:
    """Adam optimizer over one flat parameter buffer (updated in place)."""

    params: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _t: int = 0

    def __post_init__(self) -> None:
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)
        # scratch for the step and its denominator
        self._step = np.empty_like(self.params)
        self._denom = np.empty_like(self.params)

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match "
                f"parameters {self.params.shape}"
            )
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        m, v, step, denom = self._m, self._v, self._step, self._denom
        # m <- beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=step)
        m += step
        # v <- beta2 * v + (1 - beta2) * g^2
        v *= self.beta2
        np.multiply(grad, grad, out=step)
        step *= 1.0 - self.beta2
        v += step
        # p <- p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=step)
        step *= self.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self.params -= step
