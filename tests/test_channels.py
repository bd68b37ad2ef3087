import math

import numpy as np
import pytest

from qkdng.channels import (
    ChannelConfig,
    NoiseModel,
    NoiseStatistics,
    assess,
    effective_detector,
    poisson_fields,
    poisson_observables,
    thermal_observables,
)
from qkdng.errors import ConfigurationError, DomainError
from qkdng.photodetection import DetectorKind, DetectorModel

PERFECT_PNRD = DetectorModel(DetectorKind.PNRD)
PERFECT_SPAD = DetectorModel(DetectorKind.SPAD)


def thermal(t, nbar, p=1.0, det=PERFECT_PNRD):
    return thermal_observables(
        ChannelConfig(t=t, p=p), NoiseModel(NoiseStatistics.THERMAL, nbar), det
    )


def poisson(t, nbar, p=1.0, det=PERFECT_SPAD):
    return poisson_observables(
        ChannelConfig(t=t, p=p), NoiseModel(NoiseStatistics.POISSON, nbar), det
    )


class TestThermalObservables:
    @pytest.mark.parametrize("p", [1.0, 0.8, 0.5])
    @pytest.mark.parametrize("nbar", [0.3, 2.0])
    def test_unit_transmittance_decouples_noise(self, p, nbar):
        out = thermal(1.0, nbar, p=p)
        assert out.q == pytest.approx((1.0 - p) / 2.0, abs=1e-12)

    def test_reference_point(self):
        out = thermal(0.5, 1.0)
        assert out.q == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert out.stats.p_s == pytest.approx((8.0 / 27.0) ** 2, abs=1e-9)
        assert out.stats.p_e == pytest.approx(7.0 / 27.0, abs=1e-9)
        assert not out.witness.passed

    def test_dead_coupler_is_undefined(self):
        out = thermal(0.0, 0.0)
        assert not out.coincidence_defined
        assert math.isnan(out.q)
        assert out.rates.bb84 <= 0.0
        assert not out.rates.di_defined
        assert not out.nongauss

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
    def test_pure_loss_creates_no_errors(self, t):
        out = thermal(t, 0.0)
        assert out.q == pytest.approx(0.0, abs=1e-10)
        assert out.stats.p_e == pytest.approx(0.0, abs=1e-10)
        assert out.stats.p_s == pytest.approx(t * t, abs=1e-10)

    @pytest.mark.parametrize("t", [0.4, 0.6, 0.8])
    def test_qber_nondecreasing_in_noise(self, t):
        grid = np.linspace(0.0, 3.0, 20)
        values = [thermal(t, nbar).q for nbar in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bell_score_tied_to_qber(self):
        out = thermal(0.7, 0.4)
        assert out.s == pytest.approx(2.0 * math.sqrt(2.0) * (1.0 - 2.0 * out.q), abs=1e-12)

    def test_imperfect_detection_changes_observables(self):
        det = DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001)
        ideal = thermal(0.6, 0.2)
        lossy = thermal(0.6, 0.2, det=det)
        assert lossy.q > ideal.q
        assert lossy.stats.p_s < ideal.stats.p_s

    def test_requires_pnrd(self):
        with pytest.raises(ConfigurationError):
            thermal(0.5, 0.5, det=PERFECT_SPAD)


class TestPoissonObservables:
    def test_zero_dark_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            eta = rng.uniform(0.05, 1.0)
            p = rng.uniform(0.0, 1.0)
            out = poisson(1.0, 0.0, p=p, det=DetectorModel(DetectorKind.SPAD, eta=eta))
            assert out.q == pytest.approx((1.0 - p) / 2.0, abs=1e-12)
            assert out.stats.p_e == pytest.approx(0.0, abs=1e-15)
            assert out.stats.p_s == pytest.approx(eta * eta / 4.0, abs=1e-12)

    def test_unit_efficiency_kills_error_coincidences(self):
        out = poisson(1.0, 0.7, det=DetectorModel(DetectorKind.SPAD, eta=1.0, dark=0.02))
        assert out.stats.p_e == pytest.approx(0.0, abs=1e-15)

    def test_qber_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = poisson(
                rng.uniform(0.0, 1.0),
                rng.uniform(0.0, 5.0),
                p=rng.uniform(0.0, 1.0),
                det=DetectorModel(DetectorKind.SPAD, eta=rng.uniform(0.01, 1.0),
                                  dark=rng.uniform(0.0, 0.2)),
            )
            assert 0.0 <= out.q <= 0.5
            assert 0.0 <= out.stats.p_s <= 1.0
            assert 0.0 <= out.stats.p_e <= 1.0

    def test_faint_link_keeps_its_qber_digits(self):
        # eta_eff ~ 8e-17 and d_eff ~ 1e-15: F = (2 - 2 eta) x + eta - 2 summed
        # as written cancels to ~10% error; the reference is 40-digit arithmetic
        det = DetectorModel(DetectorKind.SPAD, eta=2.220446049250313e-16, dark=0.0)
        exact = 0.49949754586451178834
        assert poisson(0.34375, 8.0, det=det).q == pytest.approx(exact, abs=1e-15)
        fields = poisson_fields(np.array([0.34375]), np.array([8.0]), 1.0, det)
        assert fields.q[0] == pytest.approx(exact, abs=1e-15)

    def test_dead_detector_is_undefined(self):
        out = poisson(0.0, 0.0, det=DetectorModel(DetectorKind.SPAD, eta=0.5, dark=0.0))
        assert not out.coincidence_defined

    def test_requires_spad(self):
        with pytest.raises(ConfigurationError):
            poisson(0.5, 0.5, det=PERFECT_PNRD)


class TestEffectiveDetector:
    def test_unit_transmittance_adds_nothing(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.7, dark=0.001)
        assert effective_detector(1.0, 5.0, det) == (0.7, 0.001)

    def test_pure_loss(self):
        det = DetectorModel(DetectorKind.SPAD, eta=1.0, dark=0.0)
        assert effective_detector(0.5, 0.0, det) == (0.5, 0.0)

    def test_noise_folds_into_dark_rate(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.5, dark=0.01)
        eta_eff, d_eff = effective_detector(0.5, 0.2, det)
        assert eta_eff == pytest.approx(0.25, abs=1e-15)
        assert d_eff == pytest.approx(0.06, abs=1e-15)


class TestAssessDispatch:
    def test_thermal_routes_to_pnrd_model(self):
        via_assess = assess(ChannelConfig(t=0.5), NoiseModel(NoiseStatistics.THERMAL, 1.0),
                            PERFECT_PNRD)
        direct = thermal(0.5, 1.0)
        assert via_assess == direct

    def test_poisson_routes_to_spad_model(self):
        via_assess = assess(ChannelConfig(t=0.5), NoiseModel(NoiseStatistics.POISSON, 1.0),
                            PERFECT_SPAD)
        direct = poisson(0.5, 1.0)
        assert via_assess == direct

    @pytest.mark.parametrize("stat,det", [
        (NoiseStatistics.THERMAL, PERFECT_SPAD),
        (NoiseStatistics.POISSON, PERFECT_PNRD),
    ])
    def test_rejected_pairings(self, stat, det):
        with pytest.raises(ConfigurationError, match="supported pairings"):
            assess(ChannelConfig(t=0.5), NoiseModel(stat, 1.0), det)


class TestCrossModelConsistency:
    @pytest.mark.parametrize("t", [0.3, 0.55, 0.9])
    @pytest.mark.parametrize("p", [1.0, 0.92])
    def test_models_agree_at_zero_noise(self, t, p):
        q_thermal = thermal(t, 0.0, p=p).q
        q_poisson = poisson(t, 0.0, p=p).q
        assert q_thermal == pytest.approx(q_poisson, abs=1e-9)


class TestConfigValidation:
    def test_channel_config(self):
        with pytest.raises(DomainError):
            ChannelConfig(t=1.5)
        with pytest.raises(DomainError):
            ChannelConfig(t=0.5, p=-0.1)

    def test_noise_model(self):
        with pytest.raises(DomainError):
            NoiseModel(NoiseStatistics.THERMAL, -1.0)

    @pytest.mark.parametrize("statistics", list(NoiseStatistics))
    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_non_finite_noise_mean(self, statistics, nbar):
        with pytest.raises(DomainError, match="noise mean"):
            NoiseModel(statistics, nbar)

    def test_string_statistics_coerced(self):
        model = NoiseModel("thermal", 0.5)
        assert model.statistics is NoiseStatistics.THERMAL
        out = assess(ChannelConfig(t=0.5), model, DetectorModel("pnrd"))
        assert out.coincidence_defined
