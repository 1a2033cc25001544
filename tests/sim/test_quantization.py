"""Tests for quantization, offset encoding, and bit slicing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.sim.quantization import (
    bit_slices,
    from_bit_slices,
    offset_decode_dot,
    offset_encode,
    quantize,
)


class TestQuantize:
    def test_signed_range(self):
        q = quantize(np.array([-1.0, 0.0, 1.0]), 8, signed=True)
        assert q.values.min() == -127 and q.values.max() == 127

    def test_unsigned_range(self):
        q = quantize(np.array([0.0, 0.5, 1.0]), 8, signed=False)
        assert q.values.min() == 0 and q.values.max() == 255

    def test_unsigned_rejects_negative(self):
        with pytest.raises(ValueError):
            quantize(np.array([-0.1]), 8, signed=False)

    def test_zero_tensor(self):
        q = quantize(np.zeros(5), 8, signed=True)
        assert np.array_equal(q.values, np.zeros(5))
        assert q.scale == 1.0

    def test_subnormal_peak_does_not_underflow_the_scale(self):
        # peak / qmax underflowed to 0.0 for subnormal peaks, turning
        # zeros into NaN (cast to INT64_MIN) and the rest into inf.
        smallest = math.ulp(0.0)
        for signed in (False, True):
            q = quantize(np.array([smallest, 0.0]), 8, signed=signed)
            assert q.scale > 0.0
            assert list(q.values) == [1, 0]
            assert np.array_equal(q.dequantize(), [smallest, 0.0])

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), 0, signed=True)

    def test_qmin_qmax(self):
        signed = quantize(np.ones(1), 8, signed=True)
        assert (signed.qmin, signed.qmax) == (-127, 127)
        unsigned = quantize(np.ones(1), 8, signed=False)
        assert (unsigned.qmin, unsigned.qmax) == (0, 255)

    @settings(max_examples=80, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        st.integers(2, 12),
    )
    def test_roundtrip_error_bounded(self, x, bits):
        q = quantize(x, bits, signed=True)
        recon = q.dequantize()
        peak = np.max(np.abs(x))
        if peak > 0:
            # Max error is half a quantization step.
            step = peak / (2 ** (bits - 1) - 1)
            assert np.max(np.abs(recon - x)) <= step / 2 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(0, 100, allow_nan=False),
        )
    )
    def test_unsigned_roundtrip_in_range(self, x):
        q = quantize(x, 8, signed=False)
        assert q.values.min() >= 0
        assert q.values.max() <= 255


class TestOffsetEncoding:
    def test_encode_shifts_by_half_range(self):
        enc = offset_encode(np.array([-128, 0, 127]), 8)
        assert np.array_equal(enc, [0, 128, 255])

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            offset_encode(np.array([128]), 8)
        with pytest.raises(ValueError):
            offset_encode(np.array([-129]), 8)

    def test_decode_dot_identity(self):
        rng = np.random.default_rng(0)
        w = rng.integers(-127, 128, size=(10, 4))
        x = rng.integers(0, 256, size=10)
        enc = offset_encode(w, 8)
        assert np.array_equal(
            offset_decode_dot(x @ enc, x.sum(), 8), x @ w
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    def test_decode_dot_property(self, seed, bits):
        rng = np.random.default_rng(seed)
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1)
        w = rng.integers(lo, hi, size=(7, 3))
        x = rng.integers(0, 2**bits, size=7)
        enc = offset_encode(w, bits)
        assert np.array_equal(offset_decode_dot(x @ enc, x.sum(), bits), x @ w)


class TestBitSlices:
    def test_lsb_first(self):
        planes = bit_slices(np.array([5]), 4)  # 0101
        assert planes[:, 0].tolist() == [1, 0, 1, 0]

    def test_roundtrip(self):
        v = np.array([[0, 1], [254, 255]])
        assert np.array_equal(from_bit_slices(bit_slices(v, 8)), v)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bit_slices(np.array([16]), 4)
        with pytest.raises(ValueError):
            bit_slices(np.array([-1]), 4)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(np.int64, st.integers(1, 30), elements=st.integers(0, 255)),
    )
    def test_roundtrip_property(self, values):
        assert np.array_equal(from_bit_slices(bit_slices(values, 8)), values)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.int64, st.integers(1, 20), elements=st.integers(0, 255)),
        hnp.arrays(np.int64, st.integers(1, 20), elements=st.integers(0, 255)),
    )
    def test_slicewise_dot_reconstruction(self, w, x):
        """sum_b 2^b (w_b . x) == w . x — the crossbar's algebra."""
        n = min(w.size, x.size)
        w, x = w[:n], x[:n]
        planes = bit_slices(w, 8)
        partial = sum((1 << b) * int(planes[b] @ x) for b in range(8))
        assert partial == int(w @ x)
