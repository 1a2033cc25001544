"""Functional engine tests: bit-exactness, saturation, end-to-end error."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import CrossbarShape, DEFAULT_CANDIDATES, HardwareConfig
from repro.models.layers import LayerSpec
from repro.sim.functional import (
    FunctionalLayerEngine,
    FunctionalNetworkEngine,
    im2col,
    random_weights,
    unfold_weights,
)
from repro.sim.quantization import quantize


def make_engine(layer, shape, seed=0, config=None):
    rng = np.random.default_rng(seed)
    if layer.layer_type.name == "FC":
        w = rng.normal(size=(layer.out_channels, layer.in_channels))
    else:
        w = rng.normal(
            size=(layer.out_channels, layer.in_channels,
                  layer.kernel_size, layer.kernel_size)
        )
    cfg = config or HardwareConfig()
    wq = quantize(unfold_weights(layer, w), cfg.weight_bits, signed=True)
    return FunctionalLayerEngine(layer, shape, wq.values, cfg), wq.values


class TestUnfoldAndIm2col:
    def test_unfold_conv_shape(self):
        layer = LayerSpec.conv(3, 5, 3)
        w = np.arange(3 * 5 * 9, dtype=float).reshape(5, 3, 3, 3)
        u = unfold_weights(layer, w)
        assert u.shape == (27, 5)
        # Column j is kernel j flattened channel-major.
        assert np.array_equal(u[:, 2], w[2].reshape(-1))

    def test_unfold_fc_is_transpose(self):
        layer = LayerSpec.fc(4, 3)
        w = np.arange(12, dtype=float).reshape(3, 4)
        assert np.array_equal(unfold_weights(layer, w), w.T)

    def test_unfold_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            unfold_weights(LayerSpec.fc(4, 3), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            unfold_weights(LayerSpec.conv(3, 5, 3), np.zeros((5, 3, 2, 2)))

    def test_im2col_matches_direct_convolution(self):
        rng = np.random.default_rng(7)
        layer = LayerSpec.conv(2, 3, 3, stride=1, padding=1, input_size=6)
        fmap = rng.normal(size=(2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        cols = im2col(fmap, layer)
        out = (cols @ unfold_weights(layer, w)).T.reshape(3, 6, 6)
        # Direct reference convolution.
        padded = np.pad(fmap, ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros((3, 6, 6))
        for o in range(3):
            for i in range(6):
                for j in range(6):
                    ref[o, i, j] = np.sum(padded[:, i : i + 3, j : j + 3] * w[o])
        assert np.allclose(out, ref)

    def test_im2col_stride(self):
        layer = LayerSpec.conv(1, 1, 2, stride=2, input_size=4)
        fmap = np.arange(16, dtype=float).reshape(1, 4, 4)
        cols = im2col(fmap, layer)
        assert cols.shape == (4, 4)
        assert np.array_equal(cols[0], [0, 1, 4, 5])


class TestLayerEngineExactness:
    @pytest.mark.parametrize("shape", DEFAULT_CANDIDATES)
    def test_exact_on_every_candidate(self, shape):
        layer = LayerSpec.conv(12, 40, 3, input_size=8)
        engine, wq = make_engine(layer, shape)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 256, size=(6, 108))
        assert np.array_equal(engine.mvm_batch(x), x @ wq)

    def test_exact_kernel_split(self):
        layer = LayerSpec.conv(3, 10, 7, input_size=28)
        engine, wq = make_engine(layer, CrossbarShape(32, 32))
        assert engine.mapping.kernel_split
        rng = np.random.default_rng(2)
        x = rng.integers(0, 256, size=(4, 147))
        assert np.array_equal(engine.mvm_batch(x), x @ wq)

    def test_exact_fc(self):
        layer = LayerSpec.fc(300, 77)
        engine, wq = make_engine(layer, CrossbarShape(72, 64))
        rng = np.random.default_rng(3)
        x = rng.integers(0, 256, size=(3, 300))
        assert np.array_equal(engine.mvm_batch(x), x @ wq)

    def test_single_vector_wrapper(self):
        layer = LayerSpec.fc(20, 5)
        engine, wq = make_engine(layer, CrossbarShape(32, 32))
        x = np.arange(20) % 256
        assert np.array_equal(engine.mvm(x), x @ wq)

    def test_rejects_wrong_input_width(self):
        layer = LayerSpec.fc(20, 5)
        engine, _ = make_engine(layer, CrossbarShape(32, 32))
        with pytest.raises(ValueError):
            engine.mvm_batch(np.zeros((1, 19), dtype=int))

    def test_rejects_out_of_range_inputs(self):
        layer = LayerSpec.fc(4, 2)
        engine, _ = make_engine(layer, CrossbarShape(32, 32))
        with pytest.raises(ValueError):
            engine.mvm_batch(np.full((1, 4), 256))

    def test_rejects_out_of_range_weights(self):
        layer = LayerSpec.fc(4, 2)
        with pytest.raises(ValueError):
            FunctionalLayerEngine(
                layer, CrossbarShape(32, 32), np.full((4, 2), 200)
            )

    def test_rejects_wrong_weight_shape(self):
        layer = LayerSpec.fc(4, 2)
        with pytest.raises(ValueError):
            FunctionalLayerEngine(layer, CrossbarShape(32, 32), np.zeros((2, 4)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_exactness_property(self, seed):
        rng = np.random.default_rng(seed)
        cin = int(rng.integers(1, 40))
        cout = int(rng.integers(1, 80))
        k = int(rng.choice([1, 3, 5]))
        shape = DEFAULT_CANDIDATES[int(rng.integers(0, 5))]
        layer = LayerSpec.conv(cin, cout, k, input_size=8)
        engine, wq = make_engine(layer, shape, seed=seed)
        x = rng.integers(0, 256, size=(2, cin * k * k))
        assert np.array_equal(engine.mvm_batch(x), x @ wq)

    def test_adc_saturation_breaks_exactness(self):
        """With a too-small ADC the engine saturates and under-reports."""
        cfg = HardwareConfig(adc_bits=4)
        layer = LayerSpec.fc(256, 8)
        engine, wq = make_engine(layer, CrossbarShape(288, 256), config=cfg)
        x = np.full((1, 256), 255)
        out = engine.mvm_batch(x)
        assert engine.counters.adc_saturations > 0
        exact = x @ wq
        assert np.all(out <= exact)  # clipping only loses magnitude

    def test_counters_match_analytic_model(self):
        cfg = HardwareConfig()
        layer = LayerSpec.conv(12, 40, 3, input_size=8)
        engine, _ = make_engine(layer, CrossbarShape(64, 64))
        n = 5
        engine.mvm_batch(np.zeros((n, 108), dtype=int))
        m = engine.mapping
        expected_adc = (
            n * m.row_groups * layer.out_channels  # per (cycle, slice) grid
            * cfg.input_cycles * cfg.xbars_per_group
        )
        # Engine converts the full allocated grid per (n, rg); columns are
        # cout wide because the cell tensor is dense over cout.
        assert engine.counters.adc_conversions == expected_adc
        assert engine.counters.crossbar_evaluations == (
            n * m.row_groups * cfg.input_cycles * cfg.xbars_per_group
        )


class TestNetworkEngine:
    def test_close_to_float_reference(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        engine = FunctionalNetworkEngine(lenet_net, strategy, seed=3)
        img = lenet_net.dataset.synthetic_batch(1, seed=5)[0]
        q = engine.forward(img)
        ref = engine.reference_forward(img)
        rel = np.abs(q - ref).max() / (np.abs(ref).max() + 1e-12)
        assert rel < 0.05

    def test_no_saturation_with_paper_adc(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        engine = FunctionalNetworkEngine(lenet_net, strategy, seed=3)
        engine.forward(lenet_net.dataset.synthetic_batch(1, seed=5)[0])
        assert engine.counters().adc_saturations == 0

    def test_heterogeneous_strategy_equivalent_output(self, lenet_net):
        """The crossbar shape must not change the computed result."""
        img = lenet_net.dataset.synthetic_batch(1, seed=9)[0]
        outs = []
        for shape in (CrossbarShape(36, 32), CrossbarShape(576, 512)):
            strategy = tuple(shape for _ in lenet_net.layers)
            engine = FunctionalNetworkEngine(lenet_net, strategy, seed=4)
            outs.append(engine.forward(img))
        assert np.allclose(outs[0], outs[1])

    def test_logit_count_matches_classes(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        engine = FunctionalNetworkEngine(lenet_net, strategy, seed=0)
        out = engine.forward(lenet_net.dataset.synthetic_batch(1)[0])
        assert out.shape == (lenet_net.dataset.num_classes,)

    def test_rejects_strategy_length_mismatch(self, lenet_net):
        with pytest.raises(ValueError):
            FunctionalNetworkEngine(lenet_net, (CrossbarShape(32, 32),))

    def test_rejects_wrong_image_shape(self, lenet_net):
        strategy = tuple(CrossbarShape(72, 64) for _ in lenet_net.layers)
        engine = FunctionalNetworkEngine(lenet_net, strategy)
        with pytest.raises(ValueError):
            engine.forward(np.zeros((3, 28, 28)))

    def test_random_weights_deterministic(self, tiny_net):
        a = random_weights(tiny_net, seed=1)
        b = random_weights(tiny_net, seed=1)
        assert all(np.array_equal(a[k], b[k]) for k in a)
