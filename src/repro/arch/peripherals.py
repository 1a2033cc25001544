"""Peripheral circuit models: DAC, ADC, shift-and-add, adder tree, pooling.

These are *functional* models with event counters.  The analytic
energy/latency models in :mod:`repro.sim` predict how many conversions each
component performs; the counters here let tests verify those predictions
against an actual execution (the functional engine increments them as it
computes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass  # stateful: counts conversion activity for the energy model
class DACArray:
    """A bank of 1-bit (by default) wordline drivers.

    With ``bits == 1`` the input bit-plane is the voltage vector directly;
    higher resolutions would emit multi-level voltages.
    """

    lanes: int
    bits: int = 1
    conversions: int = 0

    def drive(self, bit_plane: np.ndarray) -> np.ndarray:
        """Convert one digital input bit-plane to wordline voltages."""
        plane = np.asarray(bit_plane)
        if plane.shape[-1] > self.lanes:
            raise ValueError(
                f"{plane.shape[-1]} inputs exceed {self.lanes} DAC lanes"
            )
        if self.bits == 1 and not np.isin(plane, (0, 1)).all():
            raise ValueError("1-bit DAC requires binary input")
        self.conversions += int(np.count_nonzero(plane >= 0)) if plane.size else 0
        return plane.astype(np.float64)


@dataclass  # stateful: counts conversion activity for the energy model
class ADCArray:
    """A bank of saturating analog-to-digital converters.

    An ``bits``-resolution ADC reports integer codes in ``[0, 2^bits - 1]``
    and *clips* anything beyond — the source of accuracy loss when a
    crossbar is taller than the ADC range covers.  The paper sets 10 bits
    so that every candidate height (<= 576 < 1024) converts losslessly.
    """

    lanes: int
    bits: int = 10
    conversions: int = 0
    saturations: int = 0

    @property
    def max_code(self) -> int:
        return 2**self.bits - 1

    def sample(self, currents: np.ndarray) -> np.ndarray:
        """Quantize bitline currents (integer unit-current model)."""
        c = np.asarray(currents)
        if c.shape[-1] > self.lanes:
            raise ValueError(
                f"{c.shape[-1]} bitlines exceed {self.lanes} ADC lanes"
            )
        codes = np.rint(c).astype(np.int64)
        over = codes > self.max_code
        under = codes < 0
        self.saturations += int(over.sum() + under.sum())
        self.conversions += int(c.size)
        return np.clip(codes, 0, self.max_code)


@dataclass  # stateful: accumulates shifted partial sums
class ShiftAdder:
    """Shift-and-add accumulator merging bit-serial / bit-sliced samples.

    Reconstructs ``sum_{ib, wb} 2^(ib + wb) * sample[ib][wb]`` across the
    input-bit cycles (``ib``) and weight bit-slices (``wb``).
    """

    operations: int = 0
    _acc: np.ndarray | None = None

    def reset(self, width: int) -> None:
        self._acc = np.zeros(width, dtype=np.int64)

    def accumulate(self, samples: np.ndarray, shift: int) -> None:
        if self._acc is None:
            raise RuntimeError("call reset() before accumulate()")
        self._acc += np.asarray(samples, dtype=np.int64) << shift
        self.operations += int(np.asarray(samples).size)

    @property
    def value(self) -> np.ndarray:
        if self._acc is None:
            raise RuntimeError("no accumulation in progress")
        return self._acc.copy()


@dataclass  # stateful: accumulates partial-sum merge activity
class AdderTree:
    """Merges partial sums from multiple crossbar row-groups."""

    additions: int = 0

    def reduce(self, partials: np.ndarray) -> np.ndarray:
        """Sum partial results along axis 0, counting additions."""
        p = np.asarray(partials, dtype=np.int64)
        if p.ndim < 2:
            return p
        self.additions += (p.shape[0] - 1) * int(np.prod(p.shape[1:]))
        return p.sum(axis=0)


@dataclass  # stateful: accumulates pooling activity
class PoolingModule:
    """The tile's pooling unit (max / average)."""

    operations: int = 0

    def pool(self, fmap: np.ndarray, kind: str, window: int, stride: int) -> np.ndarray:
        """Pool a (C, H, W) feature map."""
        if kind not in ("max", "avg"):
            raise ValueError(f"unsupported pooling kind {kind!r}")
        c, h, w = fmap.shape
        oh = max((h - window) // stride + 1, 1)
        ow = max((w - window) // stride + 1, 1)
        out = np.empty((c, oh, ow), dtype=fmap.dtype if kind == "max" else np.float64)
        for i in range(oh):
            for j in range(ow):
                patch = fmap[:, i * stride : i * stride + window, j * stride : j * stride + window]
                out[:, i, j] = patch.max(axis=(1, 2)) if kind == "max" else patch.mean(axis=(1, 2))
        self.operations += c * oh * ow
        return out
