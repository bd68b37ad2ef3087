"""Physics invariants of both channel models, checked on generated points.

Bisection in ``qkdng.scan`` assumes that the QBER never falls as the noise
mean grows at a fixed coupling; the monotonicity property checks that
assumption on points the boundary tests do not visit.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdng.channels import ChannelConfig, NoiseModel, NoiseStatistics, assess
from qkdng.keyrates import S_MAX
from qkdng.photodetection import DetectorKind, DetectorModel

DETECTOR_FOR = {NoiseStatistics.THERMAL: DetectorKind.PNRD, NoiseStatistics.POISSON: DetectorKind.SPAD}
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0)
noise_mean = st.floats(0.0, 50.0)
dark = st.floats(0.0, 0.2)


def link(statistics, t, nu, eta, d, p):
    det = DetectorModel(DETECTOR_FOR[statistics], eta=eta, dark=d)
    return assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)


@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_qber_range_and_bell_score(statistics, t, nu, eta, d, p):
    a = link(statistics, t, nu, eta, d, p)
    if not a.coincidence_defined:
        assert math.isnan(a.q) and math.isnan(a.s)
        return
    assert 0.0 <= a.q <= 0.5
    assert a.s == pytest.approx(S_MAX * (1.0 - 2.0 * a.q), abs=1e-12)


@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@EXAMPLES
@given(t=unit, nu=noise_mean, extra=noise_mean, eta=unit, d=dark, p=unit)
def test_qber_nondecreasing_in_noise(statistics, t, nu, extra, eta, d, p):
    quiet = link(statistics, t, nu, eta, d, p)
    noisy = link(statistics, t, nu + extra, eta, d, p)
    if quiet.coincidence_defined and noisy.coincidence_defined:
        assert noisy.q >= quiet.q - 1e-12


@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_bb84_rate_bounds_di_rate(statistics, t, nu, eta, d, p):
    rates = link(statistics, t, nu, eta, d, p).rates
    if rates.di_defined:
        assert rates.bb84 >= rates.di
