"""Minimal feed-forward neural networks with manual backprop (NumPy only).

The DDPG agent (§3.2) needs an actor and a critic — small MLPs.  No deep
learning framework is available offline, so this module implements exactly
what DDPG requires: dense layers, ReLU/tanh/sigmoid activations, forward
passes that keep their activations, reverse-mode gradients with respect
to the parameters (:meth:`MLP.backward`) or, separately, to the *input*
(:meth:`MLP.input_grad`, which the actor update needs through the critic),
a stacked reverse pass that does both for two batches at once, an Adam
optimizer, and Polyak (soft) target-network updates.

Every parameter of a network lives in one flat buffer (``MLP.params``),
with a twin flat gradient buffer (``MLP.grads``); the per-layer weights
and biases are views into them.  Several networks can share one pair of
buffers (:func:`joint_networks`), and one :class:`Adam` with a segment
per network then steps any contiguous run of them.  The optimiser and
the target updates are therefore a handful of in-place elementwise ops
over one array each, whatever the depth of the network.

The learner computes in float32: :meth:`MLP.create` builds float32
buffers, and a network's gradients and scratch take the dtype of the
params buffer it is built on, as do an :class:`Adam`'s moments.  The
finite-difference tests build networks over a float64 buffer instead.

Gradients are verified against finite differences in the test suite.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

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


def _sigmoid(z: np.ndarray) -> None:
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


#: name -> (overwrite a pre-activation ``z`` with its activation,
#: d activation / d z from the activation ``a``); ``None`` is the identity.
#: ReLU's mask reads the output: ``max(z, 0) > 0`` exactly when ``z > 0``.
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0.0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a * a),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
    "linear": (None, None),
}


def _activation(name: Activation) -> tuple:
    """``_ACTIVATIONS[name]``; an unknown name fails at the first forward."""
    if name in _ACTIVATIONS:
        return _ACTIVATIONS[name]

    def unknown(z: np.ndarray) -> None:
        raise ValueError(f"unknown activation {name!r}")

    return unknown, None


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
    :meth:`backward`.  Either buffer may be a view into a larger one
    (:func:`joint_networks`).  Without a ``params`` buffer the network is
    float32.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        hidden_activation: Activation = "relu",
        output_activation: Activation = "linear",
        params: np.ndarray | None = None,
        grads: np.ndarray | None = None,
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
        if grads is None:
            grads = np.zeros(n, dtype=params.dtype)
        elif grads.shape != (n,):
            raise ValueError(f"expected {n} gradients, got shape {grads.shape}")
        self.params = params
        self.grads = grads
        self._scratch = np.empty(n, dtype=params.dtype)
        bias_shapes = [(fan_out,) for _, fan_out in pairs]
        self.weights = _views(params[:n_weights], pairs)
        self.biases = _views(params[n_weights:], bias_shapes)
        self._grad_w = _views(self.grads[:n_weights], pairs)
        self._grad_b = _views(self.grads[n_weights:], bias_shapes)
        # Each layer's activation and its slope, resolved once.
        acts, slopes = zip(
            *(_activation(hidden_activation) for _ in pairs[1:]),
            _activation(output_activation),
        )
        self._forward_layers = tuple(zip(self.weights, self.biases, acts))
        self._output_slope = slopes[-1]
        #: ``(i, W_i, dW_i, db_i, slope of layer i - 1)`` from the output
        #: layer down to layer 1; layer 0 ends both reverse passes.
        self._upper_layers = tuple(
            (i, self.weights[i], self._grad_w[i], self._grad_b[i], slopes[i - 1])
            for i in range(len(pairs) - 1, 0, -1)
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
        for w, b, act in self._forward_layers:
            a = a @ w
            a += b
            if act is not None:
                act(a)
            activations.append(a)
        self._activations = activations
        return a

    def _output_delta(self, upstream: np.ndarray) -> np.ndarray:
        """dLoss/dPre-activation of the output layer from dLoss/dOutput.

        ``upstream`` is checked against the last forward and left as it is:
        a slope multiplies into a fresh array.
        """
        activations = self._activations
        if activations is None:
            raise RuntimeError("backward needs a forward pass first")
        delta = upstream if upstream.ndim >= 2 else upstream.reshape(1, -1)
        if delta.shape != activations[-1].shape:
            raise ValueError(
                f"upstream shape {delta.shape} does not match the last "
                f"forward output {activations[-1].shape}"
            )
        if self._output_slope is not None:
            return delta * self._output_slope(activations[-1])
        return delta

    def backward(self, upstream: np.ndarray, input_rows: int = 0) -> np.ndarray | None:
        """Fill ``grads`` with dLoss/dParams through the last :meth:`forward`.

        ``upstream`` is dLoss/dOutput of shape (batch, out).  With
        ``input_rows`` at 0 every row adds to ``grads``, nothing is
        returned, and dLoss/dInput is not formed (see :meth:`input_grad`).

        A positive ``input_rows`` makes it the stacked pass: ``grads``
        comes from the rows after the first ``input_rows`` alone, and
        dLoss/dInput of those first rows is returned, as :meth:`input_grad`
        of a forward over them alone would give it.  Both sets of rows
        share each deeper layer's ``delta @ W.T`` product; the input
        layer's product runs on the first rows only.  Its bits rest on
        BLAS giving a row the same result in a product of either height
        (``tests/rl/test_blas_row_stacking.py``).

        Deltas propagate through ``np.dot``: ``matmul`` forms the output
        layer's ``(B, 1) @ (1, n)`` outer product in a loop of its own
        rather than in BLAS (8.3 against 1.5 µs for a 64-row float32
        batch), and gives the same bits on the other layers.
        """
        delta = self._output_delta(upstream)
        activations = self._activations
        rows = slice(input_rows, None)
        for i, w, grad_w, grad_b, slope in self._upper_layers:
            below, own = activations[i], delta[rows]
            np.matmul(below[rows].T, own, out=grad_w)
            np.add.reduce(own, axis=0, out=grad_b)
            delta = np.dot(delta, w.T)
            if slope is not None:
                delta *= slope(below)
        own = delta[rows]
        np.matmul(activations[0][rows].T, own, out=self._grad_w[0])
        np.add.reduce(own, axis=0, out=self._grad_b[0])
        if input_rows:
            return np.dot(delta[:input_rows], self.weights[0].T)
        return None

    def input_grad(self, upstream: np.ndarray) -> np.ndarray:
        """dLoss/dInput through the last :meth:`forward`; ``grads`` is untouched.

        ``upstream`` is dLoss/dOutput of shape (batch, out).
        """
        delta = self._output_delta(upstream)
        activations = self._activations
        for i, w, _, _, slope in self._upper_layers:
            delta = np.dot(delta, w.T)
            if slope is not None:
                delta *= slope(activations[i])
        return np.dot(delta, self.weights[0].T)

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


def _rows_agree(product: Callable[[np.ndarray], np.ndarray], x: np.ndarray, rows: int) -> bool:
    """Whether ``product(x)`` gives each half of ``x``'s rows the bits of
    ``product`` of that half alone."""
    stacked = product(x)
    return (
        stacked[:rows].tobytes() == product(x[:rows].copy()).tobytes()
        and stacked[rows:].tobytes() == product(x[rows:].copy()).tobytes()
    )


def stacks_rows_exactly(net: MLP, rows: int) -> bool:
    """Whether a stacked pass over ``2 * rows`` rows of ``net`` gives the
    bits of separate passes over each half.

    The stacked pass (:meth:`MLP.backward` with ``input_rows``) shares
    each layer's forward product ``a @ W`` and each deeper layer's
    reverse product ``delta @ W.T`` between both halves.  So it is exact
    when BLAS gives a row the same bits in a product of either height.
    Which kernel a product takes depends on its shape, not its values,
    but a different summation order can still give equal bits by chance,
    so each product is checked on three dense random operands (a ReLU
    network's zeros would hide more).  On OpenBLAS 0.3.31 it holds at 64
    rows, the learner's default, and fails at one row and at most other
    small heights (docs/performance.md, "The RL learner").
    """
    rng = np.random.default_rng(0)
    for _ in range(3):
        block = rng.random((2 * rows, max(net.sizes)), net.params.dtype) - 0.5
        for w in net.weights:
            x = np.ascontiguousarray(block[:, : w.shape[0]])
            if not _rows_agree(lambda a: a @ w, x, rows):
                return False
        for w in net.weights[1:]:
            delta = np.ascontiguousarray(block[:, : w.shape[1]])
            if not _rows_agree(lambda d: np.dot(d, w.T), delta, rows):
                return False
    return True


def joint_networks(nets: Sequence[MLP]) -> tuple[np.ndarray, np.ndarray, list[MLP]]:
    """One ``params`` and one ``grads`` buffer for all of ``nets``.

    Returns both buffers and copies of ``nets`` rebuilt over consecutive
    views into them, in order, so that one :class:`Adam` with a segment
    per network can step any contiguous run of them in one pass.
    """
    params = np.concatenate([net.params for net in nets])
    grads = np.zeros_like(params)
    joined, start = [], 0
    for net in nets:
        stop = start + net.params.size
        joined.append(
            MLP(
                net.sizes,
                net.hidden_activation,
                net.output_activation,
                params[start:stop],
                grads[start:stop],
            )
        )
        start = stop
    return params, grads, joined


class Adam:
    """Adam optimizer over one flat parameter buffer (updated in place).

    The step is Kingma & Ba's efficient form: the two bias corrections
    fold into one step size ``alpha_t = lr * sqrt(1 - beta2^t) /
    (1 - beta1^t)``, so ``p <- p - alpha_t * m / (sqrt(v) + eps)``.  The
    moments take the dtype of ``params``.

    ``sizes`` splits the buffer into consecutive segments (by default one
    segment), and ``lr`` is one rate for all of them or one per segment.
    Each segment counts its own steps in ``t``.  :meth:`step` advances any
    contiguous run of segments in one pass of elementwise calls; only the
    ``alpha_t`` multiply runs per segment, since segments may differ in
    ``lr`` and be at different steps.  The scalar ``alpha_t`` is rounded
    to the moments' dtype there, so a segment's bits do not depend on
    what it is stepped with: stepping a critic and an actor in one call
    gives the bits of two separate optimisers.

    A moment entry below the dtype's smallest normal number is flushed to
    zero after every update.  Without the flush, the first moment of a
    parameter whose gradient stays zero (a dead ReLU's weights) decays by
    ``beta1`` per step into the float32 subnormal range after about 700
    steps, and rounding then holds it there: ``4 * 0.9`` rounds back to
    ``4`` units of the last place.  A 100-round VGG16 search left each
    optimiser with 260-510 such entries, and on a Xeon host a float32
    multiply ran about 13 times slower per subnormal element.
    """

    def __init__(
        self,
        params: np.ndarray,
        lr: float | Sequence[float] = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        *,
        sizes: Sequence[int] | None = None,
    ) -> None:
        sizes = tuple(sizes) if sizes is not None else (params.size,)
        lrs = tuple(lr) if isinstance(lr, Sequence) else (lr,) * len(sizes)
        if len(lrs) != len(sizes) or sum(sizes) != params.size:
            raise ValueError(
                f"{len(lrs)} rates and segments {sizes} do not split "
                f"{params.size} parameters"
            )
        self.params = params
        self.lr = lrs
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        #: steps taken, per segment
        self.t = [0] * len(sizes)
        self._bounds = list(itertools.accumulate(sizes, initial=0))
        dtype = params.dtype
        # m and v are the rows of one buffer, so that each elementwise
        # pass over both moments is one NumPy call.
        self._moments = np.zeros((2, *params.shape), dtype=dtype)
        self._m, self._v = self._moments
        self._decay = np.array([[beta1], [beta2]], dtype=dtype)
        self._gain = np.array([[1.0 - beta1], [1.0 - beta2]], dtype=dtype)
        self._tiny = np.finfo(dtype).tiny
        # scratch: one row per moment's increment, the flush mask, and
        # the step's denominator
        self._step = np.empty_like(self._moments)
        self._normal = np.empty(self._moments.shape, dtype=bool)
        self._denom = np.empty_like(params)
        self._runs: dict[tuple[int, int | None], tuple] = {}

    def _run(self, first: int, stop: int | None) -> tuple:
        """Views of every buffer over segments ``first`` to ``stop``, built once."""
        run = self._runs.get((first, stop))
        if run is None:
            bounds = self._bounds
            last = len(bounds) - 1 if stop is None else stop
            if not 0 <= first < last <= len(bounds) - 1:
                raise ValueError(f"no segments {first}:{stop} of {len(bounds) - 1}")
            span = slice(bounds[first], bounds[last])
            per_segment = []
            for k in range(first, last):
                seg = slice(bounds[k], bounds[k + 1])
                per_segment.append((k, self._m[seg], self._step[0, seg]))
            run = self._runs[first, stop] = (
                span,
                self._moments[:, span],
                self._step[:, span],
                self._step[0, span],
                self._step[1, span],
                self._normal[:, span],
                self._v[span],
                self._denom[span],
                self.params[span],
                per_segment,
            )
        return run

    def step(self, grad: np.ndarray, first: int = 0, stop: int | None = None) -> None:
        """One step of segments ``first`` to ``stop`` (by default all).

        ``grad`` covers the whole buffer; only the run's entries are read.
        """
        if grad.shape != self.params.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match "
                f"parameters {self.params.shape}"
            )
        span, moments, step, update, step_v, normal, v, denom, params, per_segment = (
            self._run(first, stop)
        )
        grad = grad[span]
        # m <- beta1 * m + (1 - beta1) * g;  v <- beta2 * v + (1 - beta2) * g * g
        moments *= self._decay
        np.multiply(grad, self._gain, out=step)
        step_v *= grad
        moments += step
        # Flush entries below the smallest normal number to zero.  A
        # multiply by the mask costs the same whatever its pattern; a
        # masked copy branches per entry, and the learner's masks (every
        # zero moment of a dead unit is in one) made it the step's
        # slowest call.
        np.abs(moments, out=step)
        np.greater_equal(step, self._tiny, out=normal)
        moments *= normal
        # p <- p - alpha_t * m / (sqrt(v) + eps), alpha_t per segment
        np.sqrt(v, out=denom)
        denom += self.eps
        t, beta1, beta2 = self.t, self.beta1, self.beta2
        for k, m, segment_update in per_segment:
            t[k] += 1
            alpha = self.lr[k] * math.sqrt(1.0 - beta2 ** t[k]) / (1.0 - beta1 ** t[k])
            np.multiply(m, alpha, out=segment_update)
        update /= denom
        params -= update
