"""Tests for the crossbar-vs-float agreement utilities."""

import numpy as np
import pytest

from repro.arch.config import CrossbarShape
from repro.models import lenet
from repro.sim.accuracy import AgreementReport, evaluate_agreement, fault_sweep
from repro.sim.variation import VariationModel


@pytest.fixture(scope="module")
def net():
    return lenet()


@pytest.fixture(scope="module")
def strategy(net):
    return tuple(CrossbarShape(72, 64) for _ in net.layers)


class TestIdealPipeline:
    def test_full_agreement_when_ideal(self, net, strategy):
        report = evaluate_agreement(net, strategy, batch=6, seed=0)
        assert report.agreement_rate == 1.0
        assert report.adc_saturations == 0
        assert report.mean_logit_rel_error < 0.1

    def test_report_counts(self, net, strategy):
        report = evaluate_agreement(net, strategy, batch=4, seed=1)
        assert report.samples == 4
        assert 0 <= report.agreements <= 4

    def test_rejects_nonpositive_batch(self, net, strategy):
        with pytest.raises(ValueError):
            evaluate_agreement(net, strategy, batch=0)


class TestFaultyPipeline:
    def test_strong_variation_breaks_agreement(self, net, strategy):
        faulty = evaluate_agreement(
            net, strategy, batch=6, seed=0,
            variation=VariationModel(conductance_sigma=1.0, seed=2),
        )
        assert faulty.mean_logit_rel_error > 0.2

    def test_sweep_monotone_in_error(self, net, strategy):
        sweep = fault_sweep(
            net, strategy, sigmas=(0.0, 0.6, 1.2), batch=4, seed=0
        )
        errors = [sweep[s].mean_logit_rel_error for s in (0.0, 0.6, 1.2)]
        assert errors[0] == pytest.approx(
            min(errors)
        )
        assert errors[-1] > errors[0]

    def test_sweep_keys(self, net, strategy):
        sweep = fault_sweep(net, strategy, sigmas=(0.0, 0.5), batch=2)
        assert set(sweep) == {0.0, 0.5}
        assert all(isinstance(v, AgreementReport) for v in sweep.values())


class TestZeroLogits:
    def test_all_zero_reference_logits_report_zero_error(
        self, net, strategy, monkeypatch
    ):
        # With no bias anywhere, an all-zero image gives all-zero logits
        # on both paths: the relative error must fall back to an absolute
        # one instead of dividing by the zero peak.
        from repro.models.datasets import DatasetSpec

        def zeros(self, batch, *, rng=None, seed=0):
            return np.zeros((batch, *self.input_shape))

        monkeypatch.setattr(DatasetSpec, "synthetic_batch", zeros)
        report = evaluate_agreement(net, strategy, batch=2, seed=0)
        assert report.mean_logit_rel_error == 0.0
        assert report.agreement_rate == 1.0
