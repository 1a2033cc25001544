"""Minimal feed-forward neural networks with manual backprop (NumPy only).

The DDPG agent (§3.2) needs an actor and a critic — small MLPs.  No deep
learning framework is available offline, so this module implements exactly
what DDPG requires: dense layers, ReLU/tanh/sigmoid activations, forward
passes that keep their activations, reverse-mode gradients with respect
to the parameters (:meth:`MLP.backward`) or, separately, to the *input*
(:meth:`MLP.input_grad`, which the actor update needs through the critic),
an Adam optimizer, and Polyak (soft) target-network updates.

Every parameter of a network lives in one flat buffer (``MLP.params``),
with a twin flat gradient buffer (``MLP.grads``); the per-layer weights
and biases are views into them.  The optimiser and the target updates are
therefore a handful of in-place elementwise ops over one array each,
whatever the depth of the network.

The learner computes in float32: :meth:`MLP.create` builds float32
buffers, and a network's gradients and scratch take the dtype of the
params buffer it is built on, as do an :class:`Adam`'s moments.  The
finite-difference tests build networks over a float64 buffer instead.

Gradients are verified against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

try:  # numpy >= 2
    from numpy._core import umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import umath as _umath

#: The ufunc ``np.clip`` ends in once its argument checks and method
#: dispatch are done.  On the learner's small arrays that wrapper is most
#: of the cost; calling the ufunc directly gives the same bits.
clip_ufunc = _umath.clip

Activation = str  # "relu" | "tanh" | "sigmoid" | "linear"


# Bit-identical stand-ins for NumPy wrappers on the learner's hot path;
# tests/rl/test_networks.py compares each with the call it replaces.
def unit_clip(a: float) -> float:
    """``np.clip(a, 0.0, 1.0)`` of a scalar: ``a`` unless it is out of the box.

    Like the ufunc, it keeps ``-0.0`` and passes NaN through.
    """
    return min(max(a, 0.0), 1.0)


def mean_array(x: np.ndarray) -> float:
    """``float(np.mean(x))`` of a float32 or float64 array without the wrapper.

    ``np.mean`` sums a float array in its own dtype and divides the sum
    by the count in that dtype too; so does this.
    """
    return float(np.add.reduce(x, axis=None) / x.size)


def mean_floats(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` of the per-critic losses (one or two).

    ``np.add.reduce`` adds so short a vector left to right from its
    identity ``0.0`` (so a lone ``-0.0`` averages to ``0.0``); so does this.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


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


def _dot_transposed(delta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``delta @ w.T``, bit for bit, through ``np.dot``.

    ``matmul`` forms the output layer's ``(B, 1) @ (1, n)`` outer product
    in a loop of its own rather than in BLAS; ``np.dot`` hands it to BLAS
    (1.5 against 8.3 µs for a 64-row float32 batch) and is no slower on
    the other layers.
    """
    return np.dot(delta, w.T)


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
    ``grads`` has the same layout and dtype and is filled by
    :meth:`backward`.  Without a ``params`` buffer the network is float32.
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
            params = np.zeros(n, dtype=np.float32)
        elif params.shape != (n,):
            raise ValueError(f"expected {n} parameters, got shape {params.shape}")
        self.params = params
        self.grads = np.zeros(n, dtype=params.dtype)
        self._scratch = np.empty(n, dtype=params.dtype)
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
        """He-initialised float32 network (weights drawn layer by layer in
        float64 and stored rounded, zero biases)."""
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
        """Forward pass; keeps the activations for the next :meth:`backward`
        or :meth:`input_grad`.

        The input and the returned output are kept by reference, so the
        caller must not overwrite either before that backward pass.
        """
        a = x if x.ndim >= 2 else x.reshape(1, -1)
        activations = [a]
        for w, b, name in zip(self.weights, self.biases, self._activation_names):
            a = a @ w
            a += b
            _act_inplace(name, a)
            activations.append(a)
        self._activations = activations
        return a

    def _output_delta(self, upstream: np.ndarray) -> np.ndarray:
        """``upstream`` as a 2-D dLoss/dOutput checked against the last forward."""
        activations = self._activations
        if activations is None:
            raise RuntimeError("backward needs a forward pass first")
        delta = upstream if upstream.ndim >= 2 else upstream.reshape(1, -1)
        if delta.shape != activations[-1].shape:
            raise ValueError(
                f"upstream shape {delta.shape} does not match the last "
                f"forward output {activations[-1].shape}"
            )
        return delta

    def _layer_delta(self, i: int, delta: np.ndarray) -> np.ndarray:
        """dLoss/dPre-activation of layer ``i`` from dLoss/dOutput of it.

        The output layer's delta is the caller's array; every deeper delta
        is a fresh matmul result, safe to scale in place.
        """
        grad = _act_grad(self._activation_names[i], self._activations[i + 1])
        if grad is None:
            return delta
        if i == len(self.weights) - 1:
            return delta * grad
        delta *= grad
        return delta

    def backward(self, upstream: np.ndarray) -> None:
        """Fill ``grads`` with dLoss/dParams through the last :meth:`forward`.

        ``upstream`` is dLoss/dOutput of shape (batch, out).  The gradient
        with respect to the input is not formed; see :meth:`input_grad`.
        """
        delta = self._output_delta(upstream)
        activations = self._activations
        for i in range(len(self.weights) - 1, -1, -1):
            delta = self._layer_delta(i, delta)
            np.matmul(activations[i].T, delta, out=self._grad_w[i])
            np.add.reduce(delta, axis=0, out=self._grad_b[i])
            if i:
                delta = _dot_transposed(delta, self.weights[i])

    def input_grad(self, upstream: np.ndarray) -> np.ndarray:
        """dLoss/dInput through the last :meth:`forward`; ``grads`` is untouched.

        ``upstream`` is dLoss/dOutput of shape (batch, out).
        """
        delta = self._output_delta(upstream)
        for i in range(len(self.weights) - 1, -1, -1):
            delta = _dot_transposed(self._layer_delta(i, delta), self.weights[i])
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
    """Adam optimizer over one flat parameter buffer (updated in place).

    The step is Kingma & Ba's efficient form: the two bias corrections
    fold into one step size ``alpha_t = lr * sqrt(1 - beta2^t) /
    (1 - beta1^t)``, so ``p <- p - alpha_t * m / (sqrt(v) + eps)``.  The
    moments take the dtype of ``params``.

    A moment entry below the dtype's smallest normal number is flushed to
    zero after every update.  Without the flush, the first moment of a
    parameter whose gradient stays zero (a dead ReLU's weights) decays by
    ``beta1`` per step into the float32 subnormal range after about 700
    steps, and rounding then holds it there: ``4 * 0.9`` rounds back to
    ``4`` units of the last place.  A 100-round VGG16 search left each
    optimiser with 260-510 such entries, and on a Xeon host a float32
    multiply ran about 13 times slower per subnormal element.
    """

    params: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _t: int = 0

    def __post_init__(self) -> None:
        dtype = self.params.dtype
        # m and v are the rows of one buffer, so that each elementwise
        # pass over both moments is one NumPy call.
        self._moments = np.zeros((2, *self.params.shape), dtype=dtype)
        self._m, self._v = self._moments
        self._decay = np.array([[self.beta1], [self.beta2]], dtype=dtype)
        self._gain = np.array([[1.0 - self.beta1], [1.0 - self.beta2]], dtype=dtype)
        self._tiny = np.finfo(dtype).tiny
        # scratch: one row per moment's increment, the flush mask, and
        # the step's denominator
        self._step = np.empty_like(self._moments)
        self._normal = np.empty(self._moments.shape, dtype=bool)
        self._denom = np.empty_like(self.params)

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match "
                f"parameters {self.params.shape}"
            )
        self._t += 1
        alpha = (
            self.lr
            * math.sqrt(1.0 - self.beta2**self._t)
            / (1.0 - self.beta1**self._t)
        )
        moments, step, normal, denom = self._moments, self._step, self._normal, self._denom
        # m <- beta1 * m + (1 - beta1) * g;  v <- beta2 * v + (1 - beta2) * g * g
        moments *= self._decay
        np.multiply(grad, self._gain, out=step)
        step[1] *= grad
        moments += step
        # Flush entries below the smallest normal number to zero.  A
        # multiply by the mask costs the same whatever its pattern; a
        # masked copy branches per entry, and the learner's masks (every
        # zero moment of a dead unit is in one) made it the step's
        # slowest call.
        np.abs(moments, out=step)
        np.greater_equal(step, self._tiny, out=normal)
        moments *= normal
        # p <- p - alpha_t * m / (sqrt(v) + eps)
        np.sqrt(self._v, out=denom)
        denom += self.eps
        update = step[0]
        np.multiply(self._m, alpha, out=update)
        update /= denom
        self.params -= update
