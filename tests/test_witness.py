import math

import numpy as np
import pytest

from qkdng.errors import DomainError
from qkdng.photodetection import DetectorKind
from qkdng.witness import (
    CoincidenceStats,
    evaluate,
    pnrd_threshold,
    spad_threshold,
)


class TestSpadThreshold:
    def test_zero_errors(self):
        assert spad_threshold(0.0) == 0.0

    def test_unpassable_at_one(self):
        # (1/2)*sqrt(1/9)*(2 + 1 + 3) = 1, so P_s <= 1 can never beat it strictly
        assert spad_threshold(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_point_one(self):
        # closed form collapses to exact fractions here:
        # sqrt(0.1/8.1) = 1/9, sqrt(0.1*8.1) = 9/10, so the value is 1/6
        assert spad_threshold(0.1) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1.0, 100)
        values = [spad_threshold(p) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p_e", [-0.01, 1.01])
    def test_domain(self, p_e):
        with pytest.raises(DomainError):
            spad_threshold(p_e)


class TestPnrdThreshold:
    def test_zero_errors(self):
        assert pnrd_threshold(0.0) == 0.0

    def test_maximum(self):
        assert pnrd_threshold(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_one(self):
        assert pnrd_threshold(1.0) == 0.0

    def test_bounded_by_quarter(self):
        for p_e in np.linspace(0.0, 1.0, 201):
            assert pnrd_threshold(p_e) <= 0.25 + 1e-15

    @pytest.mark.parametrize("p_e", [-1e-9, 1.5])
    def test_domain(self, p_e):
        with pytest.raises(DomainError):
            pnrd_threshold(p_e)


class TestContinuity:
    @pytest.mark.parametrize("threshold", [spad_threshold, pnrd_threshold])
    def test_small_steps_small_changes(self, threshold):
        # both curves have a sqrt cusp at zero, so the first 5e-4 step may
        # move by up to sqrt(5e-4) ~ 0.0224
        grid = np.linspace(0.0, 1.0, 2001)
        values = np.array([threshold(p) for p in grid])
        assert np.abs(np.diff(values)).max() < 0.03


class TestEvaluate:
    def test_thermal_reference_point_fails(self):
        # the T=1/2, nbar=1 thermal link: threshold ~0.2499 dwarfs P_s
        verdict = evaluate(DetectorKind.PNRD, CoincidenceStats(p_s=0.08779, p_e=0.25926))
        assert not verdict.passed
        assert verdict.margin == pytest.approx(0.08779 - 0.2499, abs=1e-3)

    def test_positive_success_zero_errors_passes(self):
        verdict = evaluate(DetectorKind.SPAD, CoincidenceStats(p_s=0.49 / 4.0, p_e=0.0))
        assert verdict.passed
        assert verdict.margin == pytest.approx(0.1225, abs=1e-12)

    def test_strict_at_origin(self):
        verdict = evaluate(DetectorKind.PNRD, CoincidenceStats(p_s=0.0, p_e=0.0))
        assert not verdict.passed

    @pytest.mark.parametrize("kind,threshold", [
        (DetectorKind.SPAD, spad_threshold),
        (DetectorKind.PNRD, pnrd_threshold),
    ])
    def test_verdict_flips_at_threshold(self, kind, threshold):
        p_e = 0.09
        lo, hi = 0.0, 1.0  # fails at lo, passes at hi along a P_s ramp
        assert not evaluate(kind, CoincidenceStats(lo, p_e)).passed
        assert evaluate(kind, CoincidenceStats(hi, p_e)).passed
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if evaluate(kind, CoincidenceStats(mid, p_e)).passed:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(threshold(p_e), abs=1e-12)

    def test_stats_validation(self):
        with pytest.raises(DomainError):
            CoincidenceStats(p_s=-0.1, p_e=0.0)
        with pytest.raises(DomainError):
            CoincidenceStats(p_s=0.0, p_e=1.1)

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @pytest.mark.parametrize("scale", [-1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_scale_outside_unit_interval_rejected(self, kind, scale):
        # at scale -1 this PNRD point passed (margin +0.426); at scale 1 it fails
        with pytest.raises(DomainError, match="scale"):
            evaluate(kind, CoincidenceStats(p_s=0.01, p_e=0.1), scale=scale)

    def test_zero_scale_accepted(self):
        # a SPAD whose q0 underflowed: nothing certifies non-Gaussianity
        verdict = evaluate(DetectorKind.SPAD, CoincidenceStats(p_s=0.25, p_e=0.0), scale=0.0)
        assert not verdict.passed and verdict.margin == 0.0
