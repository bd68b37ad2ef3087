import dataclasses
import itertools
import math
import random
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from qkdng import channels, photodetection, witness
from qkdng.channels import (
    _COINCIDENCE_FLOOR,
    ChannelConfig,
    LinkAssessment,
    NoiseModel,
    NoiseStatistics,
    _assessment,
    _counts,
    _detector_input,
    _terms,
    assess,
    link_fields,
    noise_root,
    poisson_observables,
    thermal_observables,
)
from qkdng.errors import ConfigurationError, DomainError, check_range
from qkdng.keyrates import (
    Q_STAR_BB84, Q_STAR_DI, KeyRates, bell_from_qber, binary_entropy, dw_rate_bb84, dw_rate_di,
    key_rates, security_threshold,
)
from qkdng.photodetection import (
    DetectorKind, DetectorModel, PhotocountDistribution, _dark_counts, detect_pmf, photocount_pmf,
)
from qkdng.scan import Criterion, ScanConfig, _holds, indicator, max_noise, sweep
from qkdng.witness import CoincidenceStats, evaluate, pnrd_threshold, spad_threshold

PERFECT_PNRD = DetectorModel(DetectorKind.PNRD)
PERFECT_SPAD = DetectorModel(DetectorKind.SPAD)
TINY_SCAN = ScanConfig(t_grid=(0.5,), statistics=NoiseStatistics.THERMAL, detector=PERFECT_PNRD,
                       tol=0.5)


def thermal(t, nbar, p=1.0, det=PERFECT_PNRD):
    return thermal_observables(
        ChannelConfig(t=t, p=p), NoiseModel(NoiseStatistics.THERMAL, nbar), det
    )


def poisson(t, nbar, p=1.0, det=PERFECT_SPAD):
    return poisson_observables(
        ChannelConfig(t=t, p=p), NoiseModel(NoiseStatistics.POISSON, nbar), det
    )


def thermal_spad_oracle(t, nbar, p, det):
    """(Q, P_s, P_e) from no-click probabilities summed over the photocount table.

    q_l = e^-dark sum_s p(s|l) (1 - eta)^s: each transmitted photon is missed
    with probability 1 - eta, and no dark count fires.
    """
    q0, q1 = (
        math.exp(-det.dark) * math.fsum(
            prob * (1.0 - det.eta) ** s
            for s, prob in enumerate(PhotocountDistribution(l, t, (1.0 - t) * nbar).probs)
        )
        for l in (0, 1)
    )
    c0, c1 = 1.0 - q0, 1.0 - q1
    norm = (q0 * c1 + q1 * c0) ** 2
    return 0.5 - p * (q0 - q1) ** 2 / (2.0 * norm), norm / 4.0, q0 * q1 * c0 * c1


def poisson_pnrd_oracle(t, nbar, p, det):
    """(Q, P_s, P_e) from detected counts summed as binomial signal plus Poisson noise."""
    eta, d = t * det.eta, det.dark + det.eta * (1.0 - t) * nbar

    def count(s, l):  # k of l photons detected, s - k noise counts
        return sum(
            math.comb(l, k) * eta**k * (1.0 - eta) ** (l - k)
            * math.exp(-d) * d ** (s - k) / math.factorial(s - k)
            for k in range(min(s, l) + 1)
        )

    rho = count(1, 0) * count(0, 1) / (count(1, 1) * count(0, 0))
    q = 0.5 * (1.0 - p) + 2.0 * p * rho / (1.0 + rho) ** 2
    return q, count(1, 1) ** 2, 1.0 - count(0, 1) - count(1, 1)


CROSS_POINTS = [  # (t, nbar, eta, dark, p)
    (0.5, 0.1, 1.0, 0.0, 1.0), (0.8, 0.02, 0.7, 0.001, 1.0), (0.3, 1.5, 0.6, 0.01, 0.9),
    (0.95, 0.004, 0.9, 1e-5, 0.97), (0.6, 6.0, 0.4, 0.05, 0.8),
]


def exact_poisson_p_e(t, nbar, eta):
    """Poisson-model P_e at zero dark counts, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        eta_eff = Decimal(t) * Decimal(eta)
        x = (-Decimal(eta) * (1 - Decimal(t)) * Decimal(nbar)).exp()
        return float(x * x * (x - 1) * (1 - eta_eff) * ((1 - eta_eff) * x - 1))


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
        assert not out.witness.passed

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

    def test_requires_thermal_statistics(self):
        with pytest.raises(ConfigurationError):
            thermal_observables(
                ChannelConfig(t=0.5), NoiseModel(NoiseStatistics.POISSON, 0.5), PERFECT_PNRD
            )


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
        fields = link_fields(NoiseStatistics.POISSON, np.array([0.34375]), np.array([8.0]), 1.0,
                             det)
        assert fields.q[0] == pytest.approx(exact, abs=1e-15)

    # d_eff = 3.5e-15 and 5e-16: x - 1 by subtraction is 1.5% and 11% off
    @pytest.mark.parametrize("eta, nbar", [(0.7, 1e-14), (1e-6, 1e-9)])
    def test_faint_noise_keeps_error_coincidence_digits(self, eta, nbar):
        det = DetectorModel(DetectorKind.SPAD, eta=eta, dark=0.0)
        exact = exact_poisson_p_e(0.5, nbar, eta)
        assert poisson(0.5, nbar, det=det).stats.p_e == pytest.approx(exact, rel=1e-14, abs=0.0)
        t = np.array([0.5])  # the terms link_fields computes
        counts = _counts(*_detector_input(NoiseStatistics.POISSON, t, nbar, det))
        _, p_e, _, _, scale = _terms(DetectorKind.SPAD, *counts, 1.0)
        assert (scale * scale * p_e)[0] == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_dead_detector_is_undefined(self):
        out = poisson(0.0, 0.0, det=DetectorModel(DetectorKind.SPAD, eta=0.5, dark=0.0))
        assert not out.coincidence_defined

    def test_requires_poisson_statistics(self):
        with pytest.raises(ConfigurationError):
            poisson_observables(
                ChannelConfig(t=0.5), NoiseModel(NoiseStatistics.THERMAL, 0.5), PERFECT_SPAD
            )


class TestEffectiveDetector:
    """Poisson noise reaches the detector as (t eta, no thermal mode, dark + eta (1-t) nu)."""

    def test_unit_transmittance_adds_nothing(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.7, dark=0.001)
        assert (_detector_input(NoiseStatistics.POISSON, 1.0, 5.0, det)
                == (0.7, 0.0, 0.001, _dark_counts(0.001)))

    def test_pure_loss(self):
        det = DetectorModel(DetectorKind.SPAD, eta=1.0, dark=0.0)
        assert (_detector_input(NoiseStatistics.POISSON, 0.5, 0.0, det)
                == (0.5, 0.0, 0.0, (1.0, 0.0, 0.0)))

    def test_noise_folds_into_dark_rate(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.5, dark=0.01)
        eta_eff, m, d_eff, dark_counts = _detector_input(NoiseStatistics.POISSON, 0.5, 0.2, det)
        assert eta_eff == pytest.approx(0.25, abs=1e-15)
        assert m == 0.0
        assert d_eff == pytest.approx(0.06, abs=1e-15)
        assert dark_counts == _dark_counts(d_eff)

    def test_overflowing_d_eff_capped_at_the_largest_float(self):
        # on arrays without a numpy overflow warning; past ~745 e^-d_eff is 0 anyway
        det = DetectorModel(DetectorKind.SPAD, eta=1.0, dark=1e308)
        t, nu = np.array([0.0, 0.5, 1.0]), np.full(3, 1e308)
        _, _, d_eff, dark_counts = _detector_input(NoiseStatistics.POISSON, t, nu, det)
        assert d_eff.tolist() == [sys.float_info.max, 1e308 + 0.5 * 1e308, 1e308]
        assert [column.tolist() for column in dark_counts] == [[0.0] * 3, [1.0] * 3, [1.0] * 3]


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
    def test_cross_pairings_match_oracle(self, stat, det):
        oracle, threshold = (
            (thermal_spad_oracle, spad_threshold) if stat is NoiseStatistics.THERMAL
            else (poisson_pnrd_oracle, pnrd_threshold)
        )
        for t, nbar, eta, dark, p in CROSS_POINTS:
            det = replace(det, eta=eta, dark=dark)
            out = assess(ChannelConfig(t=t, p=p), NoiseModel(stat, nbar), det)
            q, p_s, p_e = oracle(t, nbar, p, det)
            assert out.coincidence_defined
            assert out.q == pytest.approx(q, abs=1e-12)
            assert out.stats.p_s == pytest.approx(p_s, rel=1e-14, abs=0.0)
            assert out.stats.p_e == pytest.approx(p_e, rel=1e-9, abs=1e-15)
            assert out.witness.margin == pytest.approx(p_s - threshold(p_e), abs=1e-12)


class TestNoiseAndDetectorFactors:
    """One record per mode from the noise factor, read by either detector."""

    @pytest.mark.parametrize("det", [PERFECT_PNRD, DetectorModel(DetectorKind.PNRD, 0.7, 0.001)])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 1e-300, 0.05, 1e6])
    def test_thermal_counts_are_detect_pmf(self, det, t, nu):
        # the array model's thermal counts are the photocount route's, bit for bit
        empty, occupied, _ = _counts(*_detector_input(NoiseStatistics.THERMAL, t, nu, det))
        assert empty == detect_pmf(photocount_pmf(0, nu, t), det)
        assert occupied == detect_pmf(photocount_pmf(1, nu, t), det)

    @pytest.mark.parametrize("m", [1e-15, 1e-12, 0.3])
    def test_no_click_ratio_exact_near_unit_coupling(self, m):
        # (1 - t + m)/(1 + m) at t 3 ulps below 1: 1 - t is exact, so three roundings
        # bound the error; 1 - t/(1 + m) by subtraction is 4e11 and 6e14 ulps off at
        # the two small m
        t = 1.0 - 3 * 2.0**-53
        exact = (1 - Fraction(t) + Fraction(m)) / (1 + Fraction(m))
        got = channels._no_click_ratio(t, m)
        assert abs(Fraction(got) - exact) <= 3 * 2.0**-53 * exact

    @pytest.mark.parametrize("eta, dark", [(1.0, 0.0), (0.7, 1e-3), (0.2, 0.3)])
    @pytest.mark.parametrize("p", [1.0, 0.9])
    def test_thermal_spad_scalar_equals_arrays(self, eta, dark, p):
        # both read the click as p1 + w, so margin and Q agree bit for bit
        det = DetectorModel(DetectorKind.SPAD, eta=eta, dark=dark)
        rng = np.random.default_rng(13)
        t, nu = rng.uniform(0.0, 1.0, 200), 10.0 ** rng.uniform(-6.0, 2.0, 200)
        fields = link_fields(NoiseStatistics.THERMAL, t, nu, p, det)
        for k in range(t.size):
            out = thermal(float(t[k]), float(nu[k]), p=p, det=det)
            assert fields.margin[k] == out.witness.margin
            assert fields.q[k] == out.q


class TestPairingByValue:
    """Each pairing branch compares by value: a plain string takes its enum member's branch."""

    DETECTORS = {kind: DetectorModel(kind, eta=0.7, dark=0.001) for kind in DetectorKind}

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @pytest.mark.parametrize("statistics", list(NoiseStatistics))
    def test_noise_mapping_and_root(self, statistics, kind):
        det, t = self.DETECTORS[kind], np.linspace(0.05, 0.95, 7)
        name = statistics.value
        assert _detector_input(name, 0.3, 0.05, det) == _detector_input(statistics, 0.3, 0.05, det)
        np.testing.assert_array_equal(noise_root(name, t, Q_STAR_BB84, 0.9, det),
                                      noise_root(statistics, t, Q_STAR_BB84, 0.9, det))
        # the whole array model, with the value at the pairing that used to fall through
        got, want = (link_fields(s, 0.3, 0.05, 1.0, det) for s in (name, statistics))
        assert (got.q, got.margin) == (want.q, want.margin)

    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_detector_terms_and_bound(self, kind):
        det = self.DETECTORS[kind]
        counts = _counts(*_detector_input(NoiseStatistics.THERMAL, 0.3, 0.05, det))
        assert _terms(kind.value, *counts, 0.9) == _terms(kind, *counts, 0.9)
        assert witness._bound(kind.value, 0.01, 0.5) == witness._bound(kind, 0.01, 0.5)


def checked_assessment(statistics, t, nu, p, det):
    """``assess`` rebuilt from ``_terms`` and the public functions, each checking its inputs."""
    counts = _counts(*_detector_input(statistics, t, nu, det))
    p_s, p_e, norm, two_nq, scale = _terms(det.kind, *counts, p)
    scaled = CoincidenceStats(p_s=min(max(p_s, 0.0), 1.0), p_e=min(max(p_e, 0.0), 1.0))
    verdict = evaluate(det.kind, scaled, scale)
    k = scale * scale
    stats = CoincidenceStats(p_s=scaled.p_s * k, p_e=scaled.p_e * k)
    if norm < _COINCIDENCE_FLOOR * k:  # no coincidences: the witness fails whatever its margin
        return LinkAssessment(math.nan, math.nan, KeyRates(0.0, 0.0, False), stats,
                              verdict._replace(passed=False), False)
    q = min(max(two_nq / (2.0 * norm), 0.0), 0.5)
    s = bell_from_qber(q)
    return LinkAssessment(q, s, key_rates(q, s), stats, verdict, True)


def identical(got, want) -> bool:
    """Equal field for field and of the same types; floats bit for bit, NaN included."""
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return got.hex() == want.hex()
    if dataclasses.is_dataclass(got):
        return identical(dataclasses.astuple(got), dataclasses.astuple(want))
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(map(identical, got, want))
    return got == want


def seeded_points(seed):
    """(T, nu, eta, dark, p): every edge combination, then random points."""
    rng = random.Random(seed)
    edges = itertools.product((0.0, 1.0, None), (0.0, 1.0, None), (0.0, None), (0.0, 1.0, None),
                              (0.0, None))
    points = [
        (rng.random() if t is None else t, 10.0 ** rng.uniform(-4.0, 1.5) if nu is None else nu,
         rng.random() if eta is None else eta, 10.0 ** rng.uniform(-6.0, -1.0) if d is None else d,
         rng.random() if p is None else p)
        for t, eta, d, p, nu in edges
    ]
    points += [(rng.random(), 10.0 ** rng.uniform(-4.0, 1.5), rng.random(),
                10.0 ** rng.uniform(-6.0, -0.3), rng.random()) for _ in range(150)]
    return points


PAIRINGS = list(itertools.product(NoiseStatistics, DetectorKind))
# single points (T, nu, eta, dark, p) where two faces of the model once answered apart
ROWS = {
    # Q: N squared as ``** 2``, libm pow on a float, lies one ulp from the arrays' square
    (NoiseStatistics.THERMAL, DetectorKind.PNRD): {"n-squared": [(0.45, 3.0074, 0.16, 0.0, 1.0)]},
    # the witness: undefined, margin 6e-34 and 1.4e-78, passed in ``assess``, failed in eval
    (NoiseStatistics.POISSON, DetectorKind.SPAD): {
        "faint-detector": [(0.5, 0.0, 1e-16, 0.0, 1.0)]},
    (NoiseStatistics.POISSON, DetectorKind.PNRD): {"dead-coupler": [
        (0.0, 233.30005148627995, 0.40364369607195905, 9.869054838757685e-08, 1.0)]},
}


def point_sets(statistics, kind):
    """A pairing's points (T, nu, eta, dark, p) by set: edge grid, seeded draws, named rows."""
    edge = itertools.product(  # eta, dark, p, nu, T at 0, the smallest subnormal, 1 and 1e308
        (0.0, 1e-12, 0.5, 1.0), (0.0, 5e-324, 1e-3, 0.5, 700.0, 1e308), (0.0, 1.0),
        (0.0, 5e-324, 1.0, 1e6, 1e308), (0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0))
    sets = {"edge": [(t, nu, eta, dark, p) for eta, dark, p, nu, t in edge],  # 1,440 points
            "seeded": seeded_points(2207), **ROWS.get((statistics, kind), {})}
    if statistics == NoiseStatistics.POISSON:
        rng = random.Random(2903)  # 3,000 points, each with its own detector and p
        draws = ((rng.random(), 10.0 ** rng.uniform(-4.0, 1.5), rng.random(), rng.random())
                 for _ in range(3000))
        sets["draws"] = [(t, nu, eta, 10.0 ** rng.uniform(-6.0, -0.3), p)
                         for t, nu, eta, p in draws]
    return sets


class Row(NamedTuple):
    """One point of a pairing's table and the model's four answers there, as Python values."""

    label: str                # the point's set
    point: tuple              # (T, nu, eta, dark, p)
    assessed: LinkAssessment  # ``assess``
    checked: LinkAssessment   # ``checked_assessment``
    fields: tuple             # ``link_fields``' (defined, margin, q)
    terms: tuple              # ``_terms`` of the arrays: P_s, P_e, N, 2 N Q, scale
    decided: LinkAssessment   # ``_assessment`` of those terms


def tabulate(statistics, kind) -> list[Row]:
    """Every point of ``point_sets`` answered four ways."""
    labelled = [(name, point) for name, points in point_sets(statistics, kind).items()
                for point in points]
    dets = [DetectorModel(kind, eta=eta, dark=dark) for _, (_, _, eta, dark, _) in labelled]
    t, nu, eta, dark, p = map(np.array, zip(*(point for _, point in labelled)))
    # link_fields is arithmetic on its inputs and detector: one call answers every point
    det = SimpleNamespace(kind=kind, eta=eta, dark=dark,
                          _dark_probs=tuple(map(np.array, zip(*(d._dark_probs for d in dets)))))
    fields = zip(*(f.tolist() for f in link_fields(statistics, t, nu, p, det)))
    counts = _counts(*_detector_input(statistics, t, nu, det))
    terms = zip(*(x.tolist() for x in np.broadcast_arrays(*_terms(kind, *counts, p))))
    rows = []
    for (label, point), d, f, x in zip(labelled, dets, fields, terms, strict=True):
        t, nu, _, _, p = point
        a = assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), d)
        rows.append(Row(label, point, a, checked_assessment(statistics, t, nu, p, d), f, x,
                        _assessment(kind, *x)))
    return rows


@pytest.fixture(scope="module")
def tables():
    """Each pairing's rows, made once; a numpy warning while they are made errs them all."""
    # assess holds the one body of the scalar model: it must answer with the wrappers gone
    with pytest.MonkeyPatch.context() as patch:
        for name in ("thermal_observables", "poisson_observables"):
            patch.delattr(channels, name)
        return {pairing: tabulate(*pairing) for pairing in PAIRINGS}


def decision(a: LinkAssessment):
    return a.coincidence_defined, a.witness.margin, a.q


class TestModelTable:
    """The faces of the link model answer alike on one table of points per pairing."""

    @pytest.mark.parametrize("statistics,kind", PAIRINGS)
    def test_checked_route_matches_bit_for_bit(self, tables, statistics, kind):
        rows = tables[statistics, kind]
        assert [r.point for r in rows if not identical(r.assessed, r.checked)] == []

    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_thermal_scalar_equals_arrays(self, tables, kind):
        # the counts are _counts', the click is p1 + w and N is squared as n * n
        rows = tables[NoiseStatistics.THERMAL, kind]
        assert [r.point for r in rows if not identical(decision(r.assessed), r.fields)] == []
        if kind == DetectorKind.PNRD:  # the n-squared row keeps the arrays' bits
            (row,) = (r for r in rows if r.label == "n-squared")
            assert row.assessed.q == float.fromhex("0x1.faa2307e487aap-2")

    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_poisson_scalar_within_band_of_arrays(self, tables, kind):
        # math's exp and expm1 on a point's float d_eff and numpy's on the arrays may
        # round apart in the last bit (2.2e-16 at most here); decisions agree outside 1e-15
        band = 1e-15
        for r in tables[NoiseStatistics.POISSON, kind]:
            (defined, margin, q), a = r.fields, r.assessed
            assert a.coincidence_defined == defined, r.point
            assert abs(a.witness.margin - margin) <= band, r.point
            if abs(a.witness.margin) > band:
                assert a.witness.passed == (defined and margin > 0.0), r.point
            if defined:
                assert abs(a.q - q) <= band, r.point
                assert all((a.q <= q_star) == (q <= q_star) for q_star in (Q_STAR_BB84, Q_STAR_DI)
                           if abs(a.q - q_star) > band), r.point

    @pytest.mark.parametrize("statistics,kind", PAIRINGS)
    def test_edge_points_answer_and_decide_as_the_arrays(self, tables, statistics, kind):
        for r in (r for r in tables[statistics, kind] if r.label == "edge"):
            (defined, margin, q), a = r.fields, r.assessed
            numbers = (*a.rates[:2], a.stats.p_s, a.stats.p_e, a.witness.margin, margin)
            assert not any(map(math.isnan, numbers)), r.point
            assert a.coincidence_defined == defined, r.point
            assert math.isnan(a.q) == math.isnan(a.s) == math.isnan(q) == (not defined), r.point
            assert a.witness.passed == (defined and margin > 0.0), r.point
            assert all((a.q <= q_star) == (q <= q_star) for q_star in (Q_STAR_BB84, Q_STAR_DI))

    @pytest.mark.parametrize("statistics,kind", PAIRINGS)
    def test_points_decide_as_the_arrays(self, tables, statistics, kind):
        # _assessment of the arrays' own terms, so math's and numpy's exp do not enter
        rows = tables[statistics, kind]
        assert [r.point for r in rows if not identical(decision(r.decided), r.fields)] == []
        # rows where 1 stands in for N, and where the floor is 0 (a PNRD's scale is 1)
        assert any(r.terms[2] == 0.0 for r in rows)
        assert any(r.terms[4] == 0.0 for r in rows) == (kind == DetectorKind.SPAD)

    @pytest.mark.parametrize("statistics,kind", PAIRINGS)
    def test_point_verdict_is_the_sweeps_rule(self, tables, statistics, kind):
        for r in tables[statistics, kind]:
            assert r.decided.witness.passed is _holds(Criterion.NONGAUSS, *r.fields), r.point
            for a in (r.assessed, r.checked):
                assert a.witness.passed is _holds(Criterion.NONGAUSS, *decision(a)), r.point


class TestAssessmentChecksOnce:
    """``assess`` checks each value where it enters; ``TestModelTable`` compares the routes."""

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_overflowing_d_eff_takes_its_limit(self, kind, t):
        # d_eff = dark + eta (1 - T) nu would overflow; capped at the largest
        # float it gives e^-d_eff = 0, as every d_eff above ~745 does
        det, nu = DetectorModel(kind, eta=1.0, dark=1e308), sys.float_info.max
        got = assess(ChannelConfig(t=t), NoiseModel(NoiseStatistics.POISSON, nu), det)
        limit = assess(ChannelConfig(t=t), NoiseModel(NoiseStatistics.POISSON, 800.0),
                       replace(det, dark=800.0))
        assert identical(got, limit)
        assert _detector_input(NoiseStatistics.POISSON, t, nu, det)[2] == nu


class TestDetectorDarkCounts:
    """A thermal point reads the dark counts its detector worked out when it was built."""

    DETECTORS = (DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001),
                 DetectorModel(DetectorKind.SPAD, eta=0.6, dark=0.02))
    POINTS = ((0.3, 0.05, 1.0), (0.8, 2.0, 0.9), (1.0, 0.5, 1.0))

    def evaluations(self, statistics):
        return [assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)
                for det in self.DETECTORS for t, nu, p in self.POINTS]

    def roots(self):
        t = np.linspace(0.05, 0.95, 7)
        return [noise_root(NoiseStatistics.THERMAL, t, Q_STAR_BB84, 1.0, det).tolist()
                for det in self.DETECTORS]

    def fields(self):
        t, nu = np.linspace(0.0, 1.0, 7), np.array([[0.0], [0.05], [2.0]])
        fields = (link_fields(NoiseStatistics.THERMAL, t, nu, 0.9, det) for det in self.DETECTORS)
        return [[column.tobytes() for column in f] for f in fields]  # bit for bit, NaN included

    def sweeps(self):
        return [sweep(ScanConfig(t_grid=(0.1, 0.5, 0.9), statistics=NoiseStatistics.THERMAL,
                                 detector=det, nu_cap=2.0, tol=1e-3))
                for det in self.DETECTORS]

    def test_thermal_points_and_roots_compute_no_dark_counts(self, monkeypatch):
        want, want_roots = self.evaluations(NoiseStatistics.THERMAL), self.roots()
        want_fields, want_sweeps = self.fields(), self.sweeps()

        def refuse(dark):
            raise AssertionError("dark counts recomputed")

        for module in (photodetection, channels):
            monkeypatch.setattr(module, "_dark_counts", refuse)
        assert identical(self.evaluations(NoiseStatistics.THERMAL), want)
        assert self.roots() == want_roots
        assert self.fields() == want_fields
        assert self.sweeps() == want_sweeps
        # Poisson noise joins the dark counts: d_eff depends on nu, so each point computes them
        with pytest.raises(AssertionError, match="recomputed"):
            self.evaluations(NoiseStatistics.POISSON)



class TestOneDecision:
    """``_assessment`` and the arrays' ``_decide`` draw the coincidence floor at one place."""


    @pytest.mark.parametrize("scale", [1.0, 0.5, 1e-10])
    def test_norm_at_the_floor_is_defined(self, scale):
        # N equal to floor scale^2 counts as defined, one float below it does not
        floor = _COINCIDENCE_FLOOR * (scale * scale)
        for kind in DetectorKind:
            for norm, defined in ((floor, True), (math.nextafter(floor, 0.0), False)):
                point = (0.5, 0.25, norm, 0.25 * norm, scale)
                assert _assessment(kind, *point).coincidence_defined is defined
                fields = channels._decide(kind, *map(np.array, point))[0]
                assert fields.defined.tolist() is defined




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

    @pytest.mark.parametrize("statistics", list(NoiseStatistics))
    def test_numbers_stored_as_float(self, statistics):
        cfg = ChannelConfig(t="0.5", p=np.float64(0.9))
        noise = NoiseModel(statistics, np.float64(0.2))
        det = DetectorModel(DetectorKind.SPAD, eta=np.float32(0.7), dark=np.float64(1e-3))
        assert all(type(x) is float for x in (cfg.t, cfg.p, noise.nbar, det.eta, det.dark))
        out = assess(cfg, noise, det)
        assert all(type(x) is float for x in (out.q, out.stats.p_s, out.witness.margin))

    @pytest.mark.parametrize("value", ["abc", None, [0.5, 0.6], pytest.param(10**400, id="1e400")])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(DomainError, match="coupling transmittance"):
            ChannelConfig(t=value)
        with pytest.raises(DomainError, match="must be a number"):
            check_range("x", value, 0.0)

    # each public entry point with one argument left open, and a number it accepts there
    ENTRY_POINTS = {
        "CoincidenceStats": (lambda x: CoincidenceStats(x, 0.0), 0.1),
        "binary_entropy": (binary_entropy, 0.1),
        "bell_from_qber": (bell_from_qber, 0.1),
        "dw_rate_bb84": (lambda x: dw_rate_bb84(x, 2.0), 0.1),
        "dw_rate_di": (lambda x: dw_rate_di(0.05, x), 2.5),
        "key_rates": (lambda x: key_rates(0.05, x), 2.5),
        "pnrd_threshold": (pnrd_threshold, 0.1),
        "spad_threshold": (spad_threshold, 0.1),
    }

    @pytest.mark.parametrize("value", ["abc", None, [0.5, 0.6]])
    @pytest.mark.parametrize("call,number", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_entry_points_reject_non_numbers(self, call, number, value):
        # these compared the raw argument and raised TypeError on a non-number
        with pytest.raises(DomainError, match="must be a number"):
            call(value)
        assert call(str(number)) == call(number)  # a numeric string reads as check_range reads it

    def test_string_statistics_coerced(self):
        model = NoiseModel("thermal", 0.5)
        assert model.statistics is NoiseStatistics.THERMAL
        out = assess(ChannelConfig(t=0.5), model, DetectorModel("pnrd"))
        assert out.coincidence_defined

    # each entry point that takes an enum, given a name it rejects, and the
    # part of the message naming what it allows
    BAD_CHOICES = {
        "NoiseModel": (lambda: NoiseModel("foo", 1.0), "one of thermal, poisson, got 'foo'"),
        "DetectorModel": (lambda: DetectorModel("foo"), "one of spad, pnrd, got 'foo'"),
        # the array entry points check nothing else: an unknown name must not reach a branch
        "link_fields": (lambda: link_fields("thermall", 0.3, 0.05, 1.0, DetectorModel("pnrd")),
                        "one of thermal, poisson, got 'thermall'"),
        "noise_root": (lambda: noise_root("Thermal", 0.3, 0.11, 1.0, DetectorModel("pnrd")),
                       "one of thermal, poisson, got 'Thermal'"),
        "ScanConfig.statistics": (lambda: replace(TINY_SCAN, statistics="foo"),
                                  "one of thermal, poisson"),
        "ScanConfig.criteria": (lambda: replace(TINY_SCAN, criteria=("x",)),
                                "one of nongauss, bb84, di, got 'x'"),
        "max_noise": (lambda: max_noise("x", 0.5, TINY_SCAN), "one of nongauss, bb84, di"),
        "indicator": (lambda: indicator("x", 0.5, 0.1, TINY_SCAN), "one of nongauss, bb84, di"),
        "column": (lambda: sweep(TINY_SCAN).column("x"), "one of nongauss, bb84, di"),
        "column not scanned": (
            lambda: sweep(replace(TINY_SCAN, criteria=("bb84",))).column(Criterion.DI),
            "di was not scanned, only bb84"),
        "security_threshold": (lambda: security_threshold("x"), "one of bb84, di, got 'x'"),
        "evaluate": (lambda: evaluate("x", CoincidenceStats(0.1, 0.1)), "one of spad, pnrd"),
    }

    @pytest.mark.parametrize("call,message", BAD_CHOICES.values(), ids=BAD_CHOICES)
    def test_bad_choices_raise_domain_error(self, call, message):
        # a DomainError is a ValueError, so ``except ValueError`` callers still catch it
        with pytest.raises(DomainError, match=message):
            call()
