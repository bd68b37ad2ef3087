import math

import numpy as np
import pytest

from qkdng.channels import NoiseStatistics
from qkdng.errors import DomainError
from qkdng.photodetection import DetectorKind, DetectorModel
from qkdng.scan import (
    ALL_CRITERIA,
    Criterion,
    RegionLabel,
    ScanConfig,
    classify,
    indicator,
    max_noise,
    sweep,
)

PERFECT_PNRD = DetectorModel(DetectorKind.PNRD)
LOSSY_PNRD = DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001)


def thermal_config(det=PERFECT_PNRD, p=1.0, nu_cap=2.0, tol=1e-3, t_grid=(0.5,), **kw):
    return ScanConfig(
        t_grid=t_grid,
        statistics=NoiseStatistics.THERMAL,
        detector=det,
        p=p,
        nu_cap=nu_cap,
        tol=tol,
        **kw,
    )


class TestIndicator:
    def test_decoupled_noise_secure(self):
        config = thermal_config(nu_cap=10.0)
        assert indicator(Criterion.BB84, 1.0, 10.0, config)

    def test_high_qber_kills_di(self):
        # Q(T=0.5, nu=1) = 4/9 leaves no CHSH violation at all
        config = thermal_config()
        assert not indicator(Criterion.DI, 0.5, 1.0, config)

    def test_reference_point_fails_witness(self):
        config = thermal_config()
        assert not indicator(Criterion.NONGAUSS, 0.5, 1.0, config)

    def test_undefined_counts_as_false(self):
        config = thermal_config()
        assert not indicator(Criterion.BB84, 0.0, 0.0, config)


class TestMaxNoise:
    def test_capped_branch(self):
        config = thermal_config()
        bound = max_noise(Criterion.BB84, 1.0, config)
        assert bound.capped
        assert bound.nu_star == config.nu_cap
        assert not bound.undefined

    def test_dead_channel(self):
        # p=0.5 pins the QBER at 0.25, above the BB84 threshold already at nu=0
        config = thermal_config(p=0.5)
        bound = max_noise(Criterion.BB84, 0.8, config)
        assert bound.nu_star == 0.0
        assert not bound.capped
        assert not bound.undefined

    def test_undefined_channel(self):
        config = thermal_config()
        bound = max_noise(Criterion.BB84, 0.0, config)
        assert bound.undefined
        assert bound.nu_star == 0.0

    def test_bisection_matches_dense_grid(self):
        config = thermal_config(tol=1e-4, nu_cap=2.0)
        bound = max_noise(Criterion.BB84, 0.6, config)
        assert not bound.capped
        # independent localisation: coarse bracket, then an exhaustive
        # 1e-4-step grid walk inside it
        coarse = np.arange(0.0, 2.0 + 0.05, 0.05)
        flags = [indicator(Criterion.BB84, 0.6, nu, config) for nu in coarse]
        last_true = max(i for i, f in enumerate(flags) if f)
        assert not flags[last_true + 1]
        fine = coarse[last_true] + 1e-4 * np.arange(0, 502)
        fine_last = coarse[last_true]
        for nu in fine:
            if nu > 2.0:
                break
            if indicator(Criterion.BB84, 0.6, nu, config):
                fine_last = nu
            else:
                break
        assert bound.nu_star == pytest.approx(fine_last, abs=2e-4)

    def test_probe_does_not_disturb_result(self):
        plain = max_noise(Criterion.BB84, 0.6, thermal_config())
        probed = max_noise(Criterion.BB84, 0.6, thermal_config(probe_points=9))
        assert probed.nu_star == plain.nu_star
        assert not probed.monotone_warning

    def test_boundary_sits_at_security_threshold(self):
        # at the BB84 boundary the QBER must equal the protocol threshold
        from qkdng.channels import ChannelConfig, NoiseModel, assess
        from qkdng.keyrates import security_threshold

        config = thermal_config(tol=1e-4, nu_cap=2.0)
        bound = max_noise(Criterion.BB84, 0.8, config)
        at_boundary = assess(
            ChannelConfig(t=0.8, p=1.0),
            NoiseModel(NoiseStatistics.THERMAL, bound.nu_star),
            PERFECT_PNRD,
        )
        assert at_boundary.q == pytest.approx(security_threshold("bb84"), abs=5e-4)

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_indicator_consistent_with_boundary(self, criterion):
        config = thermal_config(tol=1e-4, nu_cap=2.0)
        bound = max_noise(criterion, 0.7, config)
        assert not bound.capped
        assert indicator(criterion, 0.7, bound.nu_star - config.tol, config)
        assert not indicator(criterion, 0.7, bound.nu_star + 2 * config.tol, config)


class TestSweep:
    def test_single_point_grid(self):
        curve = sweep(thermal_config(t_grid=(0.7,)))
        assert len(curve.points) == 1
        assert curve.points[0].t == 0.7

    def test_criteria_order_does_not_matter(self):
        forward = sweep(thermal_config(t_grid=(0.4, 0.7), criteria=ALL_CRITERIA))
        backward = sweep(thermal_config(t_grid=(0.4, 0.7), criteria=ALL_CRITERIA[::-1]))
        for criterion in ALL_CRITERIA:
            assert np.array_equal(forward.nu_star(criterion), backward.nu_star(criterion))

    def test_repeat_runs_identical(self):
        config = thermal_config(t_grid=(0.45, 0.75))
        assert sweep(config) == sweep(config)

    def test_security_nesting(self):
        curve = sweep(thermal_config(t_grid=(0.4, 0.6, 0.8), tol=1e-4))
        bb84 = curve.nu_star(Criterion.BB84)
        di = curve.nu_star(Criterion.DI)
        assert np.all(bb84 >= di - 2e-4)

    def test_undefined_point_surfaces_as_nan(self):
        curve = sweep(thermal_config(t_grid=(0.0, 0.5)))
        values = curve.nu_star(Criterion.BB84)
        assert math.isnan(values[0])
        assert values[1] > 0.0


class TestClassify:
    def test_decoupled_point_is_cross_region(self):
        config = thermal_config(nu_cap=10.0)
        labels = classify(1.0, 0.01, config)
        assert labels[Criterion.BB84] is RegionLabel.SECURE_AND_NONGAUSS
        assert labels[Criterion.DI] is RegionLabel.SECURE_AND_NONGAUSS

    def test_noisy_point_is_neither(self):
        labels = classify(0.5, 2.0, thermal_config())
        assert labels[Criterion.BB84] is RegionLabel.NEITHER
        assert labels[Criterion.DI] is RegionLabel.NEITHER

    def test_lossy_detection_low_coupling_is_secure_only(self):
        # dark counts push the witness below threshold long before the
        # key rate dies: the inconclusive regime
        labels = classify(0.05, 0.0, thermal_config(det=LOSSY_PNRD))
        assert labels[Criterion.BB84] is RegionLabel.SECURE_ONLY
        assert labels[Criterion.DI] is RegionLabel.SECURE_ONLY

    def test_high_coupling_witness_outlives_security(self):
        labels = classify(0.83, 1.1, thermal_config(nu_cap=10.0))
        assert labels[Criterion.BB84] is RegionLabel.NONGAUSS_ONLY
        assert labels[Criterion.DI] is RegionLabel.NONGAUSS_ONLY

    def test_undefined_point_is_neither(self):
        labels = classify(0.0, 0.0, thermal_config())
        assert labels[Criterion.BB84] is RegionLabel.NEITHER


class TestScanConfigValidation:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            thermal_config(t_grid=(0.5, 0.4))

    def test_grid_range(self):
        with pytest.raises(DomainError):
            thermal_config(t_grid=(0.5, 1.4))

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            thermal_config(t_grid=())

    def test_positive_tolerances(self):
        with pytest.raises(DomainError):
            thermal_config(tol=0.0)
        with pytest.raises(DomainError):
            thermal_config(nu_cap=-1.0)

    @pytest.mark.parametrize("field", ["tol", "nu_cap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_search_range(self, field, value):
        with pytest.raises(DomainError, match=field):
            thermal_config(**{field: value})

    def test_duplicate_criteria(self):
        with pytest.raises(DomainError):
            thermal_config(criteria=(Criterion.BB84, Criterion.BB84))
