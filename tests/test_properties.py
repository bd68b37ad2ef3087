"""Physics invariants of both channel models, checked on generated points.

Bisection in ``qkdng.scan`` assumes that the QBER never falls as the noise
mean grows at a fixed coupling; the monotonicity property checks that
assumption on points the boundary tests do not visit.  The sweep decides on
the array twins of the models, which must agree with the scalar ``assess``.

The security boundaries cross once, so the sweep reads them from closed-form
roots.  Thermal model: Q = (1-p)/2 + 2p rho/(1+rho)^2 rises with rho for
rho <= 1, and rho/(1-rho) = ((1+d) m + d)(1 + m - t_e)/t_e (t_e = T eta)
rises with the noise m = (1-T) nu eta reaching the detector.  Poisson model:
Q = 1/2 - p eta^2/(2 F^2) rises as x = e^(-d_eff) falls, and x falls as the
noise mean grows.  So Q = Q* has one root in the noise mean, and the root
property checks the criterion's indicator on both sides of it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkdng.channels import (
    DETECTOR_FOR,
    ChannelConfig,
    NoiseModel,
    NoiseStatistics,
    assess,
    noise_root,
    poisson_fields,
    thermal_fields,
)
from qkdng.keyrates import S_MAX
from qkdng.photodetection import DetectorModel
from qkdng.scan import PROTOCOLS, Q_STAR, Criterion, ScanConfig, _holds, _holds_array, indicator

ARRAY_MODEL = {NoiseStatistics.THERMAL: thermal_fields, NoiseStatistics.POISSON: poisson_fields}
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0)
noise_mean = st.floats(0.0, 50.0)
dark = st.floats(0.0, 0.2)


def link(statistics, t, nu, eta, d, p):
    det = DetectorModel(DETECTOR_FOR[statistics], eta=eta, dark=d)
    return assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)


def assert_decisions_agree(fields, a):
    """The array decisions equal the scalar ones wherever the deciding field is clear of 0."""
    deciding = {Criterion.NONGAUSS: a.witness.margin, Criterion.BB84: a.rates.bb84,
                Criterion.DI: a.rates.di}
    for criterion, field in deciding.items():
        if abs(field) > 1e-12:
            assert _holds_array(criterion, fields).tolist() == [_holds(criterion, a)]


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


@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_array_model_equals_scalar_model(statistics, t, nu, eta, d, p):
    det = DetectorModel(DETECTOR_FOR[statistics], eta=eta, dark=d)
    a = assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)
    fields = ARRAY_MODEL[statistics](np.array([t]), np.array([nu]), p, det)
    assert fields.defined.tolist() == [a.coincidence_defined]
    assert fields.margin[0] == pytest.approx(a.witness.margin, abs=1e-12)
    if a.coincidence_defined:
        assert fields.q[0] == pytest.approx(a.q, abs=1e-12)
    else:
        assert math.isnan(fields.q[0])
    assert_decisions_agree(fields, a)


@EXAMPLES
@given(t=unit, nu=st.floats(0.0, 1e6), extra=st.floats(0.0, 1e6), eta=unit, d=dark, p=unit)
def test_poisson_model_at_huge_noise(t, nu, extra, eta, d, p):
    # far past e^(d_eff) overflow: Q still lies in [0, 1/2], grows with the
    # noise mean, and the array model still equals the scalar one
    statistics = NoiseStatistics.POISSON
    quiet = link(statistics, t, nu, eta, d, p)
    noisy = link(statistics, t, nu + extra, eta, d, p)
    if quiet.coincidence_defined:
        assert 0.0 <= quiet.q <= 0.5
        if noisy.coincidence_defined:
            assert noisy.q >= quiet.q - 1e-12
    det = DetectorModel(DETECTOR_FOR[statistics], eta=eta, dark=d)
    fields = poisson_fields(np.array([t]), np.array([nu]), p, det)
    assert fields.defined.tolist() == [quiet.coincidence_defined]
    if quiet.coincidence_defined:
        assert fields.q[0] == pytest.approx(quiet.q, abs=1e-12)
    assert fields.margin[0] == pytest.approx(quiet.witness.margin, abs=1e-12)
    assert_decisions_agree(fields, quiet)


@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@pytest.mark.parametrize("criterion", PROTOCOLS)
@EXAMPLES
# below p = 1 - 2 Q* or with much dark noise no link is secure at all
@given(t=unit, eta=st.floats(0.05, 1.0), d=st.floats(0.0, 0.01), p=st.floats(0.8, 1.0))
def test_noise_root_separates_secure_from_insecure(statistics, criterion, t, eta, d, p):
    det = DetectorModel(DETECTOR_FOR[statistics], eta=eta, dark=d)
    config = ScanConfig(t_grid=(t,), statistics=statistics, detector=det, p=p, nu_cap=50.0)
    root = float(noise_root(statistics, np.array([t]), Q_STAR[criterion], p, det)[0])
    # an open bracket: the criterion holds at nu = 0 and the root lies below the cap
    assume(indicator(criterion, t, 0.0, config) and 0.0 < root < config.nu_cap)
    assert indicator(criterion, t, root * (1.0 - 1e-6), config)
    assert not indicator(criterion, t, root * (1.0 + 1e-6), config)
