"""Physics invariants of both channel models, checked on seeded samples.

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
criterion's indicator on both sides of it.  From its third step on, the
sweep decides the witness by ``witness_holds``, a closed-form sign, on every
pairing but Poisson noise on a PNRD; the closed-form property checks it
against ``link_fields`` wherever the margin is clear of rounding.  Every
other property runs on all four noise/detector pairings; the two original
pairings keep their short ids.

Each property runs over fixed cases (``seeded``): listed rows, every corner of
its input ranges, then draws from ``random.Random(seed)``, 40 unless a test
filters them.  So every run checks the same inputs, whatever else is loaded,
and a failure names its seed, the case's index and its inputs.
"""

import contextlib
import functools
import hashlib
import inspect
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

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
    witness_holds,
)
from qkdng.keyrates import S_MAX, bell_from_qber, key_rates
from qkdng.photodetection import DetectorKind, DetectorModel
from qkdng.scan import PROTOCOLS, Q_STAR, Criterion, ScanConfig, _holds, indicator, sweep
from qkdng.witness import CoincidenceStats, _bound

PAIRINGS = ("statistics, kind", [
    pytest.param(NoiseStatistics.THERMAL, DetectorKind.PNRD, id="thermal"),
    pytest.param(NoiseStatistics.POISSON, DetectorKind.SPAD, id="poisson"),
    pytest.param(NoiseStatistics.THERMAL, DetectorKind.SPAD, id="thermal-spad"),
    pytest.param(NoiseStatistics.POISSON, DetectorKind.PNRD, id="poisson-pnrd"),
])
# the pairings whose witness steps ``witness_holds`` decides; Poisson noise on a PNRD has
# no closed form, and ``test_scan.TestSweepCost`` shows its steps still call ``link_fields``
CLOSED_FORM_PAIRINGS = (PAIRINGS[0], PAIRINGS[1][:3])
DRAWS = 40  # seeded cases per test id, besides its rows and corners
OPEN_DRAWS = 160  # noise-root draws, of which at least DRAWS open a bracket on each test id


class Span(NamedTuple):
    """Inputs in [lo, hi].  A wide span draws half its values log-uniformly over its
    top 12 decades, so small magnitudes stay covered."""

    lo: float
    hi: float
    wide: bool = False

    def draw(self, rng: random.Random) -> float:
        if self.wide and rng.random() < 0.5:
            return self.hi * 10.0 ** -rng.uniform(0.0, 12.0)
        return rng.uniform(self.lo, self.hi)


UNIT = Span(0.0, 1.0)
NOISE_MEAN = Span(0.0, 50.0, wide=True)
HUGE_NOISE = Span(0.0, 1e6, wide=True)
DARK = Span(0.0, 0.2, wide=True)


@contextlib.contextmanager
def seeded_case(seed, index, inputs):
    """Name the seed, index and inputs of the case a failure comes from."""
    try:
        yield
    except (Exception, SystemExit) as exc:  # SystemExit: argparse refusing a line
        raise AssertionError(f"seed {seed}, case {index}: {inputs!r}") from exc


def seeded(seed, *rows, draws=DRAWS, least=0, **spans):
    """Run the decorated test once per case, beside the arguments pytest passes.

    The cases are ``rows``, every corner of ``spans``, then ``draws`` draws from
    ``random.Random(seed)``; they are made once, at import.  With ``least``, the
    test returns whether it checked its case, and at least ``least`` must be.
    """
    rng = random.Random(seed)
    corners = itertools.product(*[(span.lo, span.hi) for span in spans.values()])
    cases = [*rows, *(dict(zip(spans, ends)) for ends in corners),
             *({name: span.draw(rng) for name, span in spans.items()} for _ in range(draws))]

    def decorate(test):
        @functools.wraps(test)
        def run(**fixed):
            checked = 0
            for index, case in enumerate(cases):
                with seeded_case(seed, index, case):
                    checked += bool(test(**fixed, **case))
            assert checked >= least, f"seed {seed}: {checked} cases checked, fewer than {least}"

        signature = inspect.signature(test)
        run.__signature__ = signature.replace(parameters=[
            param for name, param in signature.parameters.items() if name not in spans])
        run.cases = cases
        return run

    return decorate


def case_digest() -> str:
    """SHA-256 of every seeded test's cases and of ``test_cli``'s reader fuzz lines."""
    import test_cli  # imported here: test_cli imports this module

    cases = sorted((name, test.cases) for name, test in globals().items()
                   if hasattr(test, "cases"))
    return hashlib.sha256(repr([cases, test_cli.TestReader.lines()]).encode()).hexdigest()


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
@seeded(3201, t=UNIT, nu=NOISE_MEAN, eta=UNIT, d=DARK, p=UNIT)
def test_qber_range_and_bell_score(statistics, kind, t, nu, eta, d, p):
    a = link(statistics, kind, t, nu, eta, d, p)
    if not a.coincidence_defined:
        assert math.isnan(a.q) and math.isnan(a.s)
        return
    assert 0.0 <= a.q <= 0.5
    assert a.s == pytest.approx(S_MAX * (1.0 - 2.0 * a.q), abs=1e-12)


@pytest.mark.parametrize(*PAIRINGS)
@seeded(3202, t=UNIT, nu=NOISE_MEAN, eta=UNIT, d=DARK, p=UNIT)
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
@seeded(3203, t=UNIT, nu=NOISE_MEAN, extra=NOISE_MEAN, eta=UNIT, d=DARK, p=UNIT)
def test_qber_nondecreasing_in_noise(statistics, kind, t, nu, extra, eta, d, p):
    quiet = link(statistics, kind, t, nu, eta, d, p)
    noisy = link(statistics, kind, t, nu + extra, eta, d, p)
    if quiet.coincidence_defined and noisy.coincidence_defined:
        assert noisy.q >= quiet.q - 1e-12


@pytest.mark.parametrize(*PAIRINGS)
@seeded(3204, t=UNIT, nu=NOISE_MEAN, eta=UNIT, d=DARK, p=UNIT)
def test_bb84_rate_bounds_di_rate(statistics, kind, t, nu, eta, d, p):
    rates = link(statistics, kind, t, nu, eta, d, p).rates
    if rates.di_defined:
        assert rates.bb84 >= rates.di


@pytest.mark.parametrize(*PAIRINGS)
@seeded(3205, t=UNIT, nu=NOISE_MEAN, eta=UNIT, d=DARK, p=UNIT)
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


@seeded(3206, t=UNIT, nu=HUGE_NOISE, extra=HUGE_NOISE, eta=UNIT, d=DARK, p=UNIT)
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
@seeded(3207,
        # the Poisson/SPAD band where P_s and P_e underflowed and the witness passed again
        dict(t=0.3, nu=100.0, extra=658.0, eta=0.7, d=0.001),
        dict(t=0.3, nu=100.0, extra=658.5, eta=0.7, d=0.0),
        t=UNIT, nu=HUGE_NOISE, extra=HUGE_NOISE, eta=UNIT, d=DARK)
def test_witness_never_returns_as_noise_grows(statistics, kind, t, nu, extra, eta, d):
    quiet = link(statistics, kind, t, nu, eta, d, 1.0)
    noisy = link(statistics, kind, t, nu + extra, eta, d, 1.0)
    if not quiet.witness.passed:
        assert not noisy.witness.passed
    assert noisy.witness.passed == (noisy.coincidence_defined and noisy.witness.margin > 0.0)
    det = DetectorModel(kind, eta=eta, dark=d)
    fields = link_fields(statistics, np.array([t, t]), np.array([nu, nu + extra]), 1.0, det)
    witness = _holds(Criterion.NONGAUSS, *fields).tolist()
    assert witness[1] <= witness[0]


@pytest.mark.parametrize(*PAIRINGS)
@pytest.mark.parametrize("criterion", PROTOCOLS)
# below p = 1 - 2 Q* or with much dark noise no link is secure at all; only cases
# with an open bracket are checked, at least DRAWS of them on each test id
@seeded(3208, draws=OPEN_DRAWS, least=DRAWS,
        t=UNIT, eta=Span(0.05, 1.0), d=Span(0.0, 0.01), p=Span(0.8, 1.0))
def test_noise_root_separates_secure_from_insecure(statistics, kind, criterion, t, eta, d, p):
    det = DetectorModel(kind, eta=eta, dark=d)
    config = ScanConfig(t_grid=(t,), statistics=statistics, detector=det, p=p, nu_cap=50.0)
    root = float(noise_root(statistics, np.array([t]), Q_STAR[criterion], p, det)[0])
    # an open bracket: the criterion holds at nu = 0 and the root lies below the cap
    if not (indicator(criterion, t, 0.0, config) and 0.0 < root < config.nu_cap):
        return False
    assert indicator(criterion, t, root * (1.0 - 1e-6), config)
    assert not indicator(criterion, t, root * (1.0 + 1e-6), config)
    return True


@pytest.mark.parametrize(*PAIRINGS)
# eta is not a wide span: a subnormal eta loses bits in t eta, far more than rounding
# elsewhere
@seeded(3209, eta_a=UNIT, eta_b=UNIT, d_a=DARK, d_b=DARK, p=Span(0.8, 1.0))
def test_noise_root_falls_with_dark_counts_and_rises_with_efficiency(statistics, kind, eta_a,
                                                                    eta_b, d_a, d_b, p):
    # where a bracket is open (root > 0) the worse detector's root is the smaller,
    # up to rounding: with no dark counts the root hardly depends on a tiny eta
    t = np.linspace(0.0, 1.0, 201)
    (eta, more_eta), (d, more_d) = sorted((eta_a, eta_b)), sorted((d_a, d_b))
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


@pytest.mark.parametrize(*PAIRINGS)
@seeded(3210, eta_a=UNIT, eta_b=UNIT, d_a=DARK, d_b=DARK)
def test_witness_boundary_falls_with_dark_counts_and_rises_with_efficiency(statistics, kind,
                                                                          eta_a, eta_b, d_a, d_b):
    # on rows the sweep neither capped, left undefined nor flagged, the worse
    # detector's witness boundary lies above the better one's by at most 2 tol
    (eta, more_eta), (d, more_d) = sorted((eta_a, eta_b)), sorted((d_a, d_b))
    tol = ScanConfig.tol

    def boundary(eta, d):
        config = ScanConfig(t_grid=np.linspace(0.0, 1.0, 51).tolist(), statistics=statistics,
                            detector=DetectorModel(kind, eta=eta, dark=d),
                            criteria=(Criterion.NONGAUSS,))
        return [None if capped or undefined or warning else nu_star for nu_star, capped,
                undefined, warning in zip(*sweep(config).column(Criterion.NONGAUSS))]

    base, darker, keener = boundary(eta, d), boundary(eta, more_d), boundary(more_eta, d)
    for b, dk, k in zip(base, darker, keener):
        if b is not None and dk is not None:
            assert dk <= b + 2.0 * tol
        if b is not None and k is not None:
            assert k >= b - 2.0 * tol


# nu = 0, every fourth decade from 1e-300, quarter decades where the witness boundaries
# lie, and the largest cap a scan takes
NU_LADDER = np.array(sorted({0.0, 1.7e308, *(10.0 ** k for k in range(-300, 309, 4)),
                             *(10.0 ** (k / 4) for k in range(-40, 9))}))
# a margin counts as clear of 0 above this share of the larger side of P_s > threshold(P_e),
# far above the round-off of either side, and above the subnormal floats
WITNESS_ROUNDING = 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(*CLOSED_FORM_PAIRINGS)
@seeded(3211,
        dict(t=1.0 - 4e-10, nu=1e-3, eta=1.0 - 5e-10, d=0.0),  # T eta within 1e-9 of 1
        dict(t=1.0 - 4e-10, nu=0.5, eta=1.0 - 5e-10, d=0.001),
        dict(t=1e-17, nu=0.0, eta=1.0, d=0.0),  # a positive margin, but no coincidences
        dict(t=5e-324, nu=0.5, eta=1e-12, d=700.0),  # e^-dark near the float limit
        dict(t=0.5, nu=1e-3, eta=0.5, d=1e308),
        least=30, t=UNIT, nu=NOISE_MEAN, eta=UNIT, d=DARK)
def test_closed_form_witness_equals_the_model(statistics, kind, t, nu, eta, d):
    # at T = 0, t and 1, and on the noise ladder with nu added, quietly
    det = DetectorModel(kind, eta=eta, dark=d)
    t_grid, nus = np.array([0.0, t, 1.0]), np.append(NU_LADDER, nu)[:, np.newaxis]
    model = link_fields(statistics, t_grid, nus, 1.0, det)
    p_s, p_e, *_, scale = _terms(kind, *_counts(*_detector_input(statistics, t_grid, nus, det)),
                                 1.0)
    sides = scale * np.maximum(scale * np.clip(p_s, 0.0, 1.0),
                               _bound(kind, np.clip(p_e, 0.0, 1.0), scale))
    clear = np.abs(model.margin) > np.maximum(WITNESS_ROUNDING * sides, sys.float_info.min)
    closed = witness_holds(statistics, t_grid, nus, det)
    assert closed.shape == clear.shape
    assert (closed == _holds(Criterion.NONGAUSS, *model))[clear].all()
    return bool((closed & clear).any())  # 38-40 of the 61 cases see the witness hold


def test_cases_do_not_depend_on_what_is_loaded():
    # a fresh interpreter loads this file, test_cli and their imports; the suite loads far more
    tests = Path(__file__).resolve().parent
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_properties; "
            "print(test_properties.case_digest())")
    fresh = subprocess.run([sys.executable, "-c", code, str(tests), str(tests.parent / "src")],
                           capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == case_digest() + "\n"
