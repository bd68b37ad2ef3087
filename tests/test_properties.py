"""Physics invariants of both channel models, checked on generated points.

Bisection in ``qkdng.scan`` assumes that the QBER never falls as the noise
mean grows at a fixed coupling; the monotonicity property checks that
assumption on points the boundary tests do not visit.  The sweep decides on
``link_fields``, the models' array entry point, which must agree with the
scalar ``assess``.

The security boundaries cross once, so the sweep reads them from closed-form
roots.  PNRD: Q = (1-p)/2 + 2p rho/(1+rho)^2 rises with rho for rho <= 1,
and rho/(1-rho) rises with the noise reaching the detector: it is
((1+d) m + d)(1 + m - t_e)/t_e (t_e = T eta) for thermal noise
m = (1-T) nu eta and d_eff (1 - t_e)/t_e for Poisson noise.  SPAD:
Q = 1/2 - p (1 - q1/q0)^2/(2 f^2), f = c1 + c0 q1/q0, rises with f.  So
Q = Q* has one root in the noise mean, and the root property checks the
criterion's indicator on both sides of it.  Every property runs on all four
noise/detector pairings; the two original pairings keep their short ids.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdng.channels import (
    ChannelConfig,
    NoiseModel,
    NoiseStatistics,
    _counts,
    _detector_input,
    _terms,
    assess,
    link_fields,
    noise_root,
)
from qkdng.keyrates import S_MAX, bell_from_qber, key_rates
from qkdng.photodetection import DetectorKind, DetectorModel
from qkdng.scan import PROTOCOLS, Q_STAR, Criterion, ScanConfig, _holds, indicator
from qkdng.witness import CoincidenceStats

PAIRINGS = ("statistics, kind", [
    pytest.param(NoiseStatistics.THERMAL, DetectorKind.PNRD, id="thermal"),
    pytest.param(NoiseStatistics.POISSON, DetectorKind.SPAD, id="poisson"),
    pytest.param(NoiseStatistics.THERMAL, DetectorKind.SPAD, id="thermal-spad"),
    pytest.param(NoiseStatistics.POISSON, DetectorKind.PNRD, id="poisson-pnrd"),
])
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0)
noise_mean = st.floats(0.0, 50.0)
dark = st.floats(0.0, 0.2)


def link(statistics, kind, t, nu, eta, d, p):
    det = DetectorModel(kind, eta=eta, dark=d)
    return assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)


def assert_decisions_agree(fields, a):
    """The array decisions equal the scalar ones wherever the deciding field is clear of 0."""
    deciding = {Criterion.NONGAUSS: a.witness.margin, Criterion.BB84: a.rates.bb84,
                Criterion.DI: a.rates.di}
    for criterion, field in deciding.items():
        if abs(field) > 1e-12:
            scalar = _holds(criterion, a.coincidence_defined, a.witness.margin, a.q)
            assert _holds(criterion, *fields).tolist() == [scalar]


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_qber_range_and_bell_score(statistics, kind, t, nu, eta, d, p):
    a = link(statistics, kind, t, nu, eta, d, p)
    if not a.coincidence_defined:
        assert math.isnan(a.q) and math.isnan(a.s)
        return
    assert 0.0 <= a.q <= 0.5
    assert a.s == pytest.approx(S_MAX * (1.0 - 2.0 * a.q), abs=1e-12)


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_assessment_needs_no_second_check(statistics, kind, t, nu, eta, d, p):
    # ``assess`` passes these values to no checking function; each check would pass
    det = DetectorModel(kind, eta=eta, dark=d)
    *_, scale = _terms(kind, *_counts(*_detector_input(statistics, t, nu, det)), p)
    a = assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)
    assert 0.0 <= scale <= 1.0  # the witness scale
    assert (0.0 <= a.q <= 0.5) == a.coincidence_defined
    if a.coincidence_defined:
        assert a.s == S_MAX * (1.0 - 2.0 * a.q) == bell_from_qber(a.q)
        assert a.rates == key_rates(a.q, a.s)
    assert CoincidenceStats(a.stats.p_s, a.stats.p_e) == a.stats


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
@given(t=unit, nu=noise_mean, extra=noise_mean, eta=unit, d=dark, p=unit)
def test_qber_nondecreasing_in_noise(statistics, kind, t, nu, extra, eta, d, p):
    quiet = link(statistics, kind, t, nu, eta, d, p)
    noisy = link(statistics, kind, t, nu + extra, eta, d, p)
    if quiet.coincidence_defined and noisy.coincidence_defined:
        assert noisy.q >= quiet.q - 1e-12


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_bb84_rate_bounds_di_rate(statistics, kind, t, nu, eta, d, p):
    rates = link(statistics, kind, t, nu, eta, d, p).rates
    if rates.di_defined:
        assert rates.bb84 >= rates.di


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
@given(t=unit, nu=noise_mean, eta=unit, d=dark, p=unit)
def test_array_model_equals_scalar_model(statistics, kind, t, nu, eta, d, p):
    det = DetectorModel(kind, eta=eta, dark=d)
    a = assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)
    fields = link_fields(statistics, np.array([t]), np.array([nu]), p, det)
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
    statistics, kind = NoiseStatistics.POISSON, DetectorKind.SPAD
    quiet = link(statistics, kind, t, nu, eta, d, p)
    noisy = link(statistics, kind, t, nu + extra, eta, d, p)
    if quiet.coincidence_defined:
        assert 0.0 <= quiet.q <= 0.5
        if noisy.coincidence_defined:
            assert noisy.q >= quiet.q - 1e-12
    det = DetectorModel(kind, eta=eta, dark=d)
    fields = link_fields(statistics, np.array([t]), np.array([nu]), p, det)
    assert fields.defined.tolist() == [quiet.coincidence_defined]
    if quiet.coincidence_defined:
        assert fields.q[0] == pytest.approx(quiet.q, abs=1e-12)
    assert fields.margin[0] == pytest.approx(quiet.witness.margin, abs=1e-12)
    assert_decisions_agree(fields, quiet)


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
# the Poisson/SPAD band where P_s and P_e underflowed and the witness passed again
@example(t=0.3, nu=100.0, extra=658.0, eta=0.7, d=0.001)
@example(t=0.3, nu=100.0, extra=658.5, eta=0.7, d=0.0)
@given(t=unit, nu=st.floats(0.0, 1e6), extra=st.floats(0.0, 1e6), eta=unit, d=dark)
def test_witness_never_returns_as_noise_grows(statistics, kind, t, nu, extra, eta, d):
    quiet = link(statistics, kind, t, nu, eta, d, 1.0)
    noisy = link(statistics, kind, t, nu + extra, eta, d, 1.0)
    if not quiet.nongauss:
        assert not noisy.nongauss
    assert noisy.witness.passed == (noisy.witness.margin > 0.0)
    det = DetectorModel(kind, eta=eta, dark=d)
    fields = link_fields(statistics, np.array([t, t]), np.array([nu, nu + extra]), 1.0, det)
    witness = _holds(Criterion.NONGAUSS, *fields).tolist()
    assert witness[1] <= witness[0]


@pytest.mark.parametrize(*PAIRINGS)
@pytest.mark.parametrize("criterion", PROTOCOLS)
@EXAMPLES
# below p = 1 - 2 Q* or with much dark noise no link is secure at all
@given(t=unit, eta=st.floats(0.05, 1.0), d=st.floats(0.0, 0.01), p=st.floats(0.8, 1.0))
def test_noise_root_separates_secure_from_insecure(statistics, kind, criterion, t, eta, d, p):
    det = DetectorModel(kind, eta=eta, dark=d)
    config = ScanConfig(t_grid=(t,), statistics=statistics, detector=det, p=p, nu_cap=50.0)
    root = float(noise_root(statistics, np.array([t]), Q_STAR[criterion], p, det)[0])
    # an open bracket: the criterion holds at nu = 0 and the root lies below the cap
    assume(indicator(criterion, t, 0.0, config) and 0.0 < root < config.nu_cap)
    assert indicator(criterion, t, root * (1.0 - 1e-6), config)
    assert not indicator(criterion, t, root * (1.0 + 1e-6), config)


@pytest.mark.parametrize(*PAIRINGS)
@EXAMPLES
# a subnormal eta loses bits in t eta, far more than rounding elsewhere
@given(etas=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=2, max_size=2),
       darks=st.lists(dark, min_size=2, max_size=2), p=st.floats(0.8, 1.0))
def test_noise_root_falls_with_dark_counts_and_rises_with_efficiency(statistics, kind, etas,
                                                                    darks, p):
    # where a bracket is open (root > 0) the worse detector's root is the smaller,
    # up to rounding: with no dark counts the root hardly depends on a tiny eta
    t = np.linspace(0.0, 1.0, 201)
    (eta, more_eta), (d, more_d) = sorted(etas), sorted(darks)
    for q_star in Q_STAR.values():
        def root(eta, d):
            return noise_root(statistics, t, q_star, p, DetectorModel(kind, eta=eta, dark=d))
        base, darker, keener = root(eta, d), root(eta, more_d), root(more_eta, d)
        assert not ((darker > 0.0) & (base < darker * (1.0 - 1e-12))).any()
        assert not ((base > 0.0) & (keener < base * (1.0 - 1e-12))).any()
        if statistics is NoiseStatistics.POISSON:
            # Q depends on the dark and noise counts only through d_eff = eta (1-T) nu + dark
            per_nu = eta * (1.0 - t)
            open_ = (base > 0.0) & (darker > 0.0) & np.isfinite(base) & np.isfinite(darker)
            assert per_nu[open_] * darker[open_] + more_d == pytest.approx(
                per_nu[open_] * base[open_] + d, rel=1e-14, abs=0.0)
