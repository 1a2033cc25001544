"""Tests for the device non-ideality (variation) extension."""

import numpy as np
import pytest

from repro.arch.config import CrossbarShape
from repro.models.layers import LayerSpec
from repro.sim.functional import FunctionalLayerEngine, unfold_weights
from repro.sim.quantization import quantize
from repro.sim.variation import (
    VariationModel,
    inject_faults,
    relative_output_error,
)


def make_engine(seed=0):
    rng = np.random.default_rng(seed)
    layer = LayerSpec.conv(12, 32, 3, input_size=8)
    w = rng.normal(size=(32, 12, 3, 3))
    wq = quantize(unfold_weights(layer, w), 8, signed=True)
    return (
        FunctionalLayerEngine(layer, CrossbarShape(72, 64), wq.values),
        wq.values,
    )


class TestVariationModel:
    def test_ideal_by_default(self):
        assert VariationModel().is_ideal
        assert VariationModel().flip_probability == 0.0

    def test_flip_probability_monotone_in_sigma(self):
        probs = [
            VariationModel(conductance_sigma=s).flip_probability
            for s in (0.1, 0.3, 0.5, 1.0)
        ]
        assert all(0 < a < b < 1 for a, b in zip(probs, probs[1:]))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            VariationModel(conductance_sigma=-0.1)

    def test_rejects_bad_stuck_fractions(self):
        with pytest.raises(ValueError):
            VariationModel(stuck_at_on=1.5)
        with pytest.raises(ValueError):
            VariationModel(stuck_at_on=0.6, stuck_at_off=0.6)


class TestInjection:
    def test_ideal_injection_is_noop(self):
        engine, wq = make_engine()
        counts = inject_faults(engine, VariationModel())
        assert counts == {"flipped": 0, "stuck_on": 0, "stuck_off": 0}
        x = np.random.default_rng(0).integers(0, 256, size=(3, 108))
        assert np.array_equal(engine.mvm_batch(x), x @ wq)

    def test_flips_are_counted_and_change_cells(self):
        engine, _ = make_engine()
        before = engine._cells.copy()
        counts = inject_faults(
            engine, VariationModel(conductance_sigma=0.5, seed=1)
        )
        assert counts["flipped"] > 0
        assert (engine._cells != before).sum() == counts["flipped"]

    def test_stuck_at_on_sets_cells(self):
        engine, _ = make_engine()
        inject_faults(engine, VariationModel(stuck_at_on=1.0))
        assert engine._cells.min() == 1

    def test_stuck_at_off_clears_cells(self):
        engine, _ = make_engine()
        inject_faults(engine, VariationModel(stuck_at_off=1.0))
        assert engine._cells.max() == 0

    def test_injection_deterministic_by_seed(self):
        e1, _ = make_engine()
        e2, _ = make_engine()
        model = VariationModel(conductance_sigma=0.4, seed=42)
        inject_faults(e1, model)
        inject_faults(e2, model)
        assert np.array_equal(e1._cells, e2._cells)


class TestAccuracyImpact:
    def test_error_zero_when_ideal(self):
        engine, wq = make_engine()
        x = np.random.default_rng(2).integers(0, 256, size=(4, 108))
        assert relative_output_error(engine, wq, x) == 0.0

    def test_error_grows_with_sigma(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 256, size=(8, 108))
        errors = []
        for sigma in (0.3, 0.6, 1.2):
            engine, wq = make_engine(seed=5)
            inject_faults(
                engine, VariationModel(conductance_sigma=sigma, seed=7)
            )
            errors.append(relative_output_error(engine, wq, x))
        assert errors[0] < errors[-1]
        assert errors[0] > 0.0

    def test_stuck_faults_degrade_output(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 256, size=(4, 108))
        engine, wq = make_engine(seed=6)
        inject_faults(engine, VariationModel(stuck_at_off=0.1, seed=8))
        assert relative_output_error(engine, wq, x) > 0.0
