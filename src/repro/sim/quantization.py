"""Fixed-point quantization and bit-slicing for the functional engine.

The paper quantizes weights to 8 bits and stores them across a group of
eight 1-bit-cell crossbars (§4.1).  Memristor conductances are
non-negative, so signed weights use **offset (biased) encoding** — the
ISAAC convention: a signed ``b``-bit weight ``q`` is stored as
``q + 2^(b-1)`` (in ``[0, 2^b - 1]``) and the dot product is corrected by
subtracting ``2^(b-1) * sum(x)`` afterwards.  Activations are unsigned
(post-ReLU) and stream in bit-serially through 1-bit DACs.

Everything here is integer-exact, which is what makes the engine's
"crossbar output equals the integer matrix product" property testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor plus the scale mapping it back to real values."""

    values: np.ndarray  #: integer array (int64)
    scale: float        #: real = values * scale
    bits: int
    signed: bool

    def dequantize(self) -> np.ndarray:
        return self.values.astype(np.float64) * self.scale

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1)) + 1 if self.signed else 0

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.signed else 2**self.bits - 1


def quantize(x: np.ndarray, bits: int, *, signed: bool) -> QuantizedTensor:
    """Symmetric linear quantization of a real tensor.

    Signed tensors map ``[-max|x|, +max|x|]`` onto ``[-(2^(b-1)-1),
    2^(b-1)-1]``; unsigned tensors map ``[0, max x]`` onto
    ``[0, 2^b - 1]``.  An all-zero tensor quantizes to zeros with scale 1.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    x = np.asarray(x, dtype=np.float64)
    if signed:
        qmax = 2 ** (bits - 1) - 1
        peak = float(np.max(np.abs(x))) if x.size else 0.0
    else:
        if x.size and float(np.min(x)) < 0:
            raise ValueError("unsigned quantization requires non-negative input")
        qmax = 2**bits - 1
        peak = float(np.max(x)) if x.size else 0.0
    if qmax == 0:
        # bits == 1, signed: the representable range collapses to {0} and
        # ``peak / qmax`` below would divide by zero.
        raise ValueError("signed quantization requires at least 2 bits")
    if peak == 0.0:  # an all-zero tensor: no scale to divide by
        return QuantizedTensor(
            np.zeros(x.shape, dtype=np.int64), 1.0, bits, signed
        )
    scale = peak / qmax
    if scale == 0.0:
        # A subnormal peak can underflow ``peak / qmax`` to zero, and
        # dividing by that turns zeros into NaN (cast to INT64_MIN) and
        # everything else into ±inf.  Clamp to the smallest subnormal:
        # every float below such a peak is an exact integer multiple of
        # it, so the quantization is exact and stays inside [qmin, qmax].
        scale = math.ulp(0.0)
    q = np.clip(np.round(x / scale), -qmax if signed else 0, qmax)
    return QuantizedTensor(q.astype(np.int64), scale, bits, signed)


def offset_encode(q: np.ndarray, bits: int) -> np.ndarray:
    """Bias a signed integer tensor into the unsigned cell domain."""
    offset = 2 ** (bits - 1)
    encoded = np.asarray(q, dtype=np.int64) + offset
    if encoded.min(initial=0) < 0 or encoded.max(initial=0) > 2**bits - 1:
        raise ValueError(f"values out of range for {bits}-bit offset encoding")
    return encoded


def offset_decode_dot(
    encoded_dot: np.ndarray, x_sum: int | np.ndarray, bits: int
) -> np.ndarray:
    """Undo offset encoding after a dot product.

    ``(q + o) . x = q . x + o * sum(x)`` with ``o = 2^(b-1)``, so the true
    product is the encoded product minus ``o * sum(x)``.
    """
    offset = 2 ** (bits - 1)
    return np.asarray(encoded_dot, dtype=np.int64) - offset * np.asarray(
        x_sum, dtype=np.int64
    )


def bit_slices(values: np.ndarray, bits: int) -> np.ndarray:
    """Decompose unsigned integers into binary planes, LSB first.

    Returns an array of shape ``(bits, *values.shape)`` with entries in
    {0, 1} such that ``sum_b 2^b * slices[b] == values``.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.min(initial=0) < 0 or v.max(initial=0) > 2**bits - 1:
        raise ValueError(f"values out of range for {bits}-bit slicing")
    planes = np.empty((bits,) + v.shape, dtype=np.int64)
    for b in range(bits):
        planes[b] = (v >> b) & 1
    return planes


def from_bit_slices(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bit_slices` (LSB-first binary planes)."""
    planes = np.asarray(planes, dtype=np.int64)
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64)).reshape(
        (-1,) + (1,) * (planes.ndim - 1)
    )
    return (planes * weights).sum(axis=0)
