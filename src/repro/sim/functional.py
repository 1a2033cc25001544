"""Bit-exact functional inference through the mapped crossbars.

This module executes the *computation* the analytic simulator only costs
out: weights are offset-encoded, bit-sliced across the 8-crossbar group,
laid out on the crossbar array exactly per :func:`repro.arch.mapping
.map_layer` (including the same per-row-group slice placement
:func:`~repro.arch.mapping.occupancy_grid` describes), and inputs stream
through bit-serially.  Every bitline sample passes a saturating ADC model
before shift-and-add reconstruction and the adder-tree merge of row-group
partial sums.

Because the paper's 10-bit ADC covers every candidate height (576 < 1024),
the default pipeline is *integer-exact*: the engine's output equals
``Wq @ xq`` — the property the test suite pins down.  Lowering
``adc_bits`` makes saturation observable, which the variation example
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.config import CrossbarShape, DEFAULT_CONFIG, HardwareConfig
from ..arch.mapping import LayerMapping, map_layer
from ..models.graph import Network
from ..models.layers import LayerSpec, LayerType
from .quantization import bit_slices, offset_encode, quantize


@dataclass
class EngineCounters:
    """Activity counters accumulated by a functional engine."""

    adc_conversions: int = 0
    adc_saturations: int = 0
    dac_conversions: int = 0
    crossbar_evaluations: int = 0
    shift_add_ops: int = 0
    adder_tree_adds: int = 0

    def merged(self, other: "EngineCounters") -> "EngineCounters":
        return EngineCounters(
            adc_conversions=self.adc_conversions + other.adc_conversions,
            adc_saturations=self.adc_saturations + other.adc_saturations,
            dac_conversions=self.dac_conversions + other.dac_conversions,
            crossbar_evaluations=self.crossbar_evaluations + other.crossbar_evaluations,
            shift_add_ops=self.shift_add_ops + other.shift_add_ops,
            adder_tree_adds=self.adder_tree_adds + other.adder_tree_adds,
        )


class FunctionalLayerEngine:
    """One layer's weight matrix programmed onto one crossbar type."""

    def __init__(
        self,
        layer: LayerSpec,
        shape: CrossbarShape,
        weight_matrix_q: np.ndarray,
        config: HardwareConfig = DEFAULT_CONFIG,
    ) -> None:
        """Program quantized signed weights onto the crossbar array.

        ``weight_matrix_q`` is the unfolded integer weight matrix of shape
        ``(Cin * k^2, Cout)`` with values in the signed ``weight_bits``
        range.
        """
        rows_total, cout = layer.weight_matrix_shape
        wq = np.asarray(weight_matrix_q, dtype=np.int64)
        if wq.shape != (rows_total, cout):
            raise ValueError(
                f"weight matrix shape {wq.shape} != expected {(rows_total, cout)}"
            )
        limit = 2 ** (config.weight_bits - 1)
        if wq.min(initial=0) < -limit or wq.max(initial=0) >= limit:
            raise ValueError(f"weights exceed {config.weight_bits}-bit signed range")

        self.layer = layer
        self.shape = shape
        self.config = config
        self.mapping: LayerMapping = map_layer(layer, shape)
        self.counters = EngineCounters()

        encoded = offset_encode(wq, config.weight_bits)
        planes = bit_slices(encoded, config.weight_bits)  # (wb, rows, cout)

        # Padded per-row-group cell tensors, laid out exactly like
        # occupancy_grid(): slice `ch` of kernel rows sits at local row
        # (ch % slices_per_xbar) * k^2 inside row group ch // slices.
        rg = self.mapping.row_groups
        r = shape.rows
        self._row_of = self._global_row_placement()  # (rows_total,) -> (rg, local)
        cells = np.zeros((config.weight_bits, rg, r, cout), dtype=np.int64)
        groups, locals_ = self._row_of
        cells[:, groups, locals_, :] = planes
        self._cells = cells
        self._x_groups = groups
        self._x_locals = locals_

    # ------------------------------------------------------------------
    def _global_row_placement(self) -> tuple[np.ndarray, np.ndarray]:
        """Map each global weight-matrix row to (row_group, local_row)."""
        layer, shape, mapping = self.layer, self.shape, self.mapping
        rows_total = layer.in_channels * layer.kernel_elems
        idx = np.arange(rows_total)
        if not mapping.kernel_split:
            k2 = layer.kernel_elems
            slices = shape.rows // k2
            ch = idx // k2
            within = idx % k2
            groups = ch // slices
            locals_ = (ch % slices) * k2 + within
        else:
            groups = idx // shape.rows
            locals_ = idx % shape.rows
        return groups, locals_

    # ------------------------------------------------------------------
    def mvm_batch(self, x_q: np.ndarray) -> np.ndarray:
        """Exact integer MVM for a batch of unsigned input vectors.

        Parameters
        ----------
        x_q:
            ``(N, Cin * k^2)`` unsigned integers in the ``input_bits``
            range.

        Returns
        -------
        ``(N, Cout)`` int64 — ``x_q @ Wq`` when the ADC never saturates.
        """
        cfg = self.config
        x = np.atleast_2d(np.asarray(x_q, dtype=np.int64))
        n, width = x.shape
        rows_total = self.layer.in_channels * self.layer.kernel_elems
        if width != rows_total:
            raise ValueError(f"input width {width} != {rows_total}")
        if x.min(initial=0) < 0 or x.max(initial=0) > 2**cfg.input_bits - 1:
            raise ValueError(f"inputs exceed unsigned {cfg.input_bits}-bit range")

        rg, r = self.mapping.row_groups, self.shape.rows
        # Scatter inputs into the padded per-row-group layout.
        x_pad = np.zeros((n, rg, r), dtype=np.int64)
        x_pad[:, self._x_groups, self._x_locals] = x

        max_code = 2**cfg.adc_bits - 1
        acc = np.zeros((n, self.layer.out_channels), dtype=np.int64)
        cycles = cfg.input_cycles
        wbits = cfg.weight_bits
        for ib in range(cycles):
            plane = (x_pad >> ib) & 1  # (n, rg, r)
            for wb in range(wbits):
                # (n, rg, r) x (rg, r, cout) -> (n, rg, cout)
                partial = np.einsum(
                    "ngr,grc->ngc", plane, self._cells[wb], optimize=True
                )
                sat = partial > max_code
                if sat.any():
                    self.counters.adc_saturations += int(sat.sum())
                    partial = np.minimum(partial, max_code)
                merged = partial.sum(axis=1)  # adder tree over row groups
                acc += merged << (ib + wb)
                self.counters.adc_conversions += int(partial.size)
                self.counters.shift_add_ops += int(merged.size)
                self.counters.adder_tree_adds += int(
                    (rg - 1) * merged.size
                )
                self.counters.crossbar_evaluations += n * rg
            self.counters.dac_conversions += n * rg * r * wbits
        # Undo the offset encoding: subtract 2^(wbits-1) * sum(x).
        offset = 1 << (wbits - 1)
        return acc - offset * x.sum(axis=1, keepdims=True)

    def mvm(self, x_q: np.ndarray) -> np.ndarray:
        """Single-vector convenience wrapper around :meth:`mvm_batch`."""
        return self.mvm_batch(np.asarray(x_q)[None, :])[0]


# ----------------------------------------------------------------------
# Whole-network functional inference
# ----------------------------------------------------------------------
def unfold_weights(layer: LayerSpec, weights: np.ndarray) -> np.ndarray:
    """Unfold (Cout, Cin, k, k) CONV weights — or (Cout, Cin) FC weights —
    into the Fig. 7 ``(Cin * k^2, Cout)`` matrix (row order: channel-major,
    then kernel row, then kernel column)."""
    w = np.asarray(weights)
    if layer.layer_type is LayerType.FC:
        if w.shape != (layer.out_channels, layer.in_channels):
            raise ValueError(f"FC weights {w.shape} != "
                             f"{(layer.out_channels, layer.in_channels)}")
        return w.T.copy()
    k = layer.kernel_size
    expect = (layer.out_channels, layer.in_channels, k, k)
    if w.shape != expect:
        raise ValueError(f"CONV weights {w.shape} != {expect}")
    return w.reshape(layer.out_channels, -1).T.copy()


def im2col(fmap: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Extract convolution patches matching the unfolded weight row order.

    ``fmap`` is (Cin, H, W); the result is (positions, Cin * k^2) with
    positions scanning row-major over the output map.
    """
    c, h, w = fmap.shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    if p:
        fmap = np.pad(fmap, ((0, 0), (p, p), (p, p)))
        h, w = h + 2 * p, w + 2 * p
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    cols = np.empty((oh * ow, c * k * k), dtype=fmap.dtype)
    pos = 0
    for i in range(oh):
        for j in range(ow):
            patch = fmap[:, i * s : i * s + k, j * s : j * s + k]
            cols[pos] = patch.reshape(-1)
            pos += 1
    return cols


def random_weights(
    network: Network, *, seed: int = 0
) -> dict[int, np.ndarray]:
    """He-scaled random float weights for every layer, keyed by index."""
    rng = np.random.default_rng(seed)
    out: dict[int, np.ndarray] = {}
    for layer in network.layers:
        fan_in = layer.in_channels * layer.kernel_elems
        std = np.sqrt(2.0 / fan_in)
        if layer.layer_type is LayerType.FC:
            shape = (layer.out_channels, layer.in_channels)
        else:
            shape = (
                layer.out_channels,
                layer.in_channels,
                layer.kernel_size,
                layer.kernel_size,
            )
        out[layer.index] = rng.normal(0.0, std, size=shape)
    return out


class FunctionalNetworkEngine:
    """Run quantized inference for a whole network through crossbars.

    Only sequential-topology networks are supported (the residual adds of
    ResNet are outside the crossbars' concern; see DESIGN.md).  Layers
    execute in order: quantize activations (unsigned), MVM through the
    mapped crossbars, dequantize, ReLU, pool.
    """

    def __init__(
        self,
        network: Network,
        strategy: tuple[CrossbarShape, ...],
        weights: dict[int, np.ndarray] | None = None,
        config: HardwareConfig = DEFAULT_CONFIG,
        *,
        seed: int = 0,
    ) -> None:
        if len(strategy) != network.num_layers:
            raise ValueError("strategy length must equal layer count")
        self.network = network
        self.config = config
        self.weights = weights if weights is not None else random_weights(network, seed=seed)
        self.engines: list[FunctionalLayerEngine] = []
        self.weight_scales: list[float] = []
        for layer, shape in zip(network.layers, strategy):
            unfolded = unfold_weights(layer, self.weights[layer.index])
            wq = quantize(unfolded, config.weight_bits, signed=True)
            self.engines.append(
                FunctionalLayerEngine(layer, shape, wq.values, config)
            )
            self.weight_scales.append(wq.scale)

    # ------------------------------------------------------------------
    def forward(self, image: np.ndarray) -> np.ndarray:
        """Inference for one (C, H, W) image; returns the logits vector."""
        x = np.asarray(image, dtype=np.float64)
        if x.shape != self.network.dataset.input_shape:
            raise ValueError(
                f"image shape {x.shape} != {self.network.dataset.input_shape}"
            )
        fmap = x
        for i, (layer, engine) in enumerate(
            zip(self.network.layers, self.engines)
        ):
            if layer.layer_type is LayerType.CONV:
                cols = im2col(fmap, layer)
            else:
                cols = fmap.reshape(1, -1)
            act = np.maximum(cols, 0.0)
            act_q = quantize(act, self.config.input_bits, signed=False)
            out_q = engine.mvm_batch(act_q.values)
            out = out_q.astype(np.float64) * (
                act_q.scale * self.weight_scales[i]
            )
            if layer.layer_type is LayerType.CONV:
                side = layer.output_size
                fmap = out.T.reshape(layer.out_channels, side, side)
            else:
                fmap = out.reshape(-1)
            if i < len(self.engines) - 1:
                fmap = np.maximum(fmap, 0.0)
            pool = self.network.pool_after(i)
            if pool is not None and layer.layer_type is LayerType.CONV:
                fmap = _pool(fmap, pool.kind, pool.window, pool.stride)
        return np.asarray(fmap, dtype=np.float64).reshape(-1)

    def counters(self) -> EngineCounters:
        total = EngineCounters()
        for engine in self.engines:
            total = total.merged(engine.counters)
        return total

    # ------------------------------------------------------------------
    def reference_forward(self, image: np.ndarray) -> np.ndarray:
        """Float reference using the same weights, no quantization."""
        fmap = np.asarray(image, dtype=np.float64)
        for i, layer in enumerate(self.network.layers):
            if layer.layer_type is LayerType.CONV:
                cols = im2col(fmap, layer)
            else:
                cols = fmap.reshape(1, -1)
            act = np.maximum(cols, 0.0)
            out = act @ unfold_weights(layer, self.weights[layer.index])
            if layer.layer_type is LayerType.CONV:
                side = layer.output_size
                fmap = out.T.reshape(layer.out_channels, side, side)
            else:
                fmap = out.reshape(-1)
            if i < self.network.num_layers - 1:
                fmap = np.maximum(fmap, 0.0)
            pool = self.network.pool_after(i)
            if pool is not None and layer.layer_type is LayerType.CONV:
                fmap = _pool(fmap, pool.kind, pool.window, pool.stride)
        return np.asarray(fmap, dtype=np.float64).reshape(-1)


def _pool(fmap: np.ndarray, kind: str, window: int, stride: int) -> np.ndarray:
    c, h, w = fmap.shape
    oh = max((h - window) // stride + 1, 1)
    ow = max((w - window) // stride + 1, 1)
    out = np.empty((c, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            patch = fmap[:, i * stride : i * stride + window, j * stride : j * stride + window]
            out[:, i, j] = patch.max(axis=(1, 2)) if kind == "max" else patch.mean(axis=(1, 2))
    return out
