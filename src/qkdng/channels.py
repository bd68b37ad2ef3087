"""Werner-state source, noise coupling and detection folded into observables.

The link model has two factors, and any noise pairs with any detector.  The
noise factor (``_counts``) gives one ``DetectionPmf`` record (p0, p1, w) of
detected counts {0, 1, >=2} for the empty (l = 0) and one for the occupied
(l = 1) polarisation mode, from ``photodetection._detected``.
``_detector_input`` is the one place that says how a noise statistics
reaches the detector: a single thermal mode coupled in at a beam splitter is
thinned with the signal, (t eta, (1-t) nu eta, dark); multimode (Poissonian)
noise only adds clicks, so it folds into the dark counts, (t eta, 0, d_eff).
The detector factor (``_terms``) turns the two records into the criterion
terms: a PNRD reads the 0- and 1-counts and w1, a SPAD coarse-grains them to
no click p0 and click c = p1 + w.

Both factors are arithmetic only, so they work on floats and numpy arrays
alike; ``photodetection._elementary`` picks their exp and sqrt.
``_detector_input`` also hands ``_counts`` the dark counts: a thermal point
reads the detector's own, worked out once; Poisson noise joins them, so a
Poisson point works them out there, at its d_eff.
``assess`` (one point, mapping the noise once) and ``link_fields`` (the
sweep's arrays) are the two faces of the one model; ``thermal_observables``
and ``poisson_observables`` only check the statistics and return ``assess``.
Both faces take their decision from one elementwise body, ``_decide``: it
clamps the terms, tests the coincidence floor and forms Q.
``_assessment`` makes a point's ``LinkAssessment`` of it, whose witness
passes by the sweep's rule (defined and margin > 0), and checks nothing
again: the cores it calls (``witness_margin``, ``_bb84``, ``_di``) are
unchecked, and their public wrappers check their inputs.  For the sweep,
``noise_root`` solves the security criteria for the noise mean, and
``witness_holds`` gives ``link_fields``' witness verdict by a closed-form
sign, on all four pairings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_choice, check_range
from .keyrates import S_MAX, KeyRates, _bb84, _di
from .photodetection import (
    DetectorKind, DetectorModel, _dark_counts, _detected, _elementary, detect_pmf, photocount_pmf,
)
from .witness import CoincidenceStats, WitnessVerdict, witness_margin

_COINCIDENCE_FLOOR = 1e-30  # below this the normalisation N counts as zero
_NO_RATES = KeyRates(0.0, 0.0, False)  # the insecure sentinel where N counts as zero


class NoiseStatistics(str, Enum):
    THERMAL = "thermal"   # single-mode thermal occupation of the noise port
    POISSON = "poisson"   # multimode-thermal limit with Poissonian counts


# ``_detector_input`` in words, so each run's manifest names its own mapping
DETECTOR_INPUT = {
    NoiseStatistics.THERMAL: "eta_eff = T*eta; thermal mean m_eff = eta*(1-T)*nbar; d_eff = dark",
    NoiseStatistics.POISSON: "eta_eff = T*eta; d_eff = dark + eta*(1-T)*nbar",
}


def _detector_input(statistics: NoiseStatistics, t, nu, det: DetectorModel):
    """(t eta, m, dark, dark counts) that ``_counts`` reads: how the noise reaches the detector.

    Thermal noise is thinned with the signal, once by the coupler and once by
    the detector, which holds its own dark counts; Poisson noise only adds
    clicks, so it joins the dark counts, d_eff = dark + eta (1-t) nu, capped
    at the largest float: past ~745 every d_eff gives e^-d_eff = 0.
    Unchecked and elementwise.
    """
    if statistics == NoiseStatistics.THERMAL:
        return t * det.eta, (1.0 - t) * nu * det.eta, det.dark, det._dark_probs
    d_eff = _d_eff(t, nu, det)
    return t * det.eta, 0.0, d_eff, _dark_counts(d_eff)


def _d_eff(t, nu, det: DetectorModel):
    """Poisson noise joined to the dark counts: dark + eta (1-t) nu, at most the largest float."""
    added = det.eta * (1.0 - t) * nu  # at most nu, so finite; only the sum can overflow
    return det.dark + _elementary(added).minimum(added, sys.float_info.max - det.dark)


@dataclass(frozen=True)
class NoiseModel:
    statistics: NoiseStatistics
    nbar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics",
                           check_choice("noise statistics", NoiseStatistics, self.statistics))
        object.__setattr__(self, "nbar", check_range("noise mean", self.nbar, 0.0))


@dataclass(frozen=True)
class ChannelConfig:
    """Beam-splitter coupling ``t`` and Werner weight ``p`` of the source."""

    t: float
    p: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", check_range("coupling transmittance", self.t, 0.0, 1.0))
        object.__setattr__(self, "p", check_range("Werner weight", self.p, 0.0, 1.0))


class LinkAssessment(NamedTuple):
    """Everything the security and witness decisions consume at one point.

    ``witness.passed`` is the sweep's rule (``scan._holds``): coincidences
    occur and the margin is positive.  When none can occur
    (``coincidence_defined`` False) the QBER and CHSH score are NaN, the
    rates carry the insecure sentinel and the witness fails, whatever the
    sign of its margin.
    """

    q: float
    s: float
    rates: KeyRates
    stats: CoincidenceStats
    witness: WitnessVerdict
    coincidence_defined: bool


class LinkFields(NamedTuple):
    """Array twin of ``LinkAssessment``: the fields the scan decisions read.

    ``_decide`` gives both their fields, here elementwise over broadcast (t, nu)
    arrays.  Where ``defined`` is False, ``q`` is NaN.  A protocol is secure
    where ``q <= Q_STAR_BB84/DI``.
    """

    defined: np.ndarray
    margin: np.ndarray
    q: np.ndarray


def _no_click_ratio(t, m):
    """q1/q0 = p01/p00 = (1 - t + m)/(1 + m): free of the dark damping e^-dark.

    So it is exact where p00 and p01 underflow (Poisson noise at d_eff > 708).
    """
    return ((1.0 - t) + m) / (1.0 + m)


def _counts(t, m, dark, dark_counts):
    """Noise factor: the ``DetectionPmf`` of the empty and the occupied mode, and q1/q0."""
    return (_detected(0, t, m, dark, dark_counts), _detected(1, t, m, dark, dark_counts),
            _no_click_ratio(t, m))


def _terms(kind: DetectorKind, empty, occupied, rho, p: float):
    """Detector factor: (P_s, P_e, N, 2 N Q) divided by scale^2, and the scale.

    From the counts (p0l, p1l, wl) of the empty (l=0) and the occupied (l=1)
    mode, wl the probability of two or more, and rho = q1/q0.  A PNRD reads
    them at scale 1:

        N = (p11 p00 + p10 p01)^2,    2 N Q = 4 p * p11 p00 p01 p10 + (1-p) N,
        P_s = p11^2,                  P_e = w1.

    A SPAD reads no click q_l = p0l and click c_l = p1l + wl:

        P_s = (q0 c1 + q1 c0)^2 / 4,    P_e = q0 q1 c0 c1,    N = (q0 c1 + q1 c0)^2,
        2 N Q = 4 p P_e + (1 - p) N,   i.e.  Q = 1/2 - p (q0 - q1)^2 / (2 N),

    since N - 4 P_e = (q0 - q1)^2, each divided by q0^2 (q1 = rho q0), so
    none underflows before q0.  Every term is a sum of non-negative ones.
    """
    p00, p10, w0 = empty
    p01, p11, w1 = occupied
    if kind == DetectorKind.PNRD:
        n = p11 * p00 + p10 * p01
        norm = n * n  # not ** 2: on a float that is libm pow, on an array an exact square
        return p11 * p11, w1, norm, 4.0 * p * p11 * p00 * p01 * p10 + (1.0 - p) * norm, 1.0
    c0, c1 = p10 + w0, p11 + w1
    f = c1 + rho * c0
    p_e = rho * c0 * c1
    return 0.25 * f * f, p_e, f * f, 4.0 * p * p_e + (1.0 - p) * f * f, p00


def _decide(kind: DetectorKind, p_s, p_e, norm, two_nq, scale):
    """The decision on ``_terms``' output: its ``LinkFields``, and p_s and p_e clamped to [0, 1].

    Unchecked and elementwise.  Undefined where N < floor scale^2: there Q is NaN
    and 1 stands in for N, so nothing divides by zero.  The clip strips Q's round-off dust.
    """
    f = _elementary(norm)
    p_s, p_e = f.clip(p_s, 0.0, 1.0), f.clip(p_e, 0.0, 1.0)
    defined = norm >= _COINCIDENCE_FLOOR * (scale * scale)
    q = f.clip(two_nq / (2.0 * f.where(defined, norm, 1.0)), 0.0, 0.5)
    margin = witness_margin(kind, p_s, p_e, scale)
    return LinkFields(defined, margin, f.where(defined, q, math.nan)), p_s, p_e


def _assessment(kind: DetectorKind, p_s, p_e, norm, two_nq, scale) -> LinkAssessment:
    """``_decide``'s decision on ``_terms``' output, as a point's record.

    It checks nothing again: ``scale`` is 1 or q0, in [0, 1], and ``_decide``
    puts p_s, p_e and Q in range.  ``CoincidenceStats`` still checks the stats.
    """
    (defined, margin, q), p_s, p_e = _decide(kind, p_s, p_e, norm, two_nq, scale)
    k = scale * scale
    stats = CoincidenceStats(p_s * k, p_e * k)
    verdict = WitnessVerdict(defined and margin > 0.0, margin)
    if not defined:
        return LinkAssessment(math.nan, math.nan, _NO_RATES, stats, verdict, False)
    s = S_MAX * (1.0 - 2.0 * q)
    return LinkAssessment(q, s, KeyRates(_bb84(q, s), *_di(q, s)), stats, verdict, True)


def assess(cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel) -> LinkAssessment:
    """Q, S, key rates and witness statistics at one point: the scalar link model."""
    t_eta, m, dark, dark_counts = _detector_input(noise.statistics, cfg.t, noise.nbar, det)
    if noise.statistics == NoiseStatistics.THERMAL:
        # stays only while bench/test_smoke.py pins two photocount_pmf calls per thermal point
        counts = (*(detect_pmf(photocount_pmf(l, noise.nbar, cfg.t), det) for l in (0, 1)),
                  _no_click_ratio(t_eta, m))
    else:
        counts = _counts(t_eta, m, dark, dark_counts)
    return _assessment(det.kind, *_terms(det.kind, *counts, cfg.p))


def thermal_observables(
    cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel
) -> LinkAssessment:
    """``assess`` for single-mode thermal noise only."""
    if noise.statistics != NoiseStatistics.THERMAL:
        raise ConfigurationError("thermal_observables requires thermal noise statistics")
    return assess(cfg, noise, det)


def poisson_observables(
    cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel
) -> LinkAssessment:
    """``assess`` for Poissonian noise only."""
    if noise.statistics != NoiseStatistics.POISSON:
        raise ConfigurationError("poisson_observables requires poisson noise statistics")
    return assess(cfg, noise, det)


def link_fields(statistics: NoiseStatistics, t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``assess``'s decision fields elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked but for ``statistics``: the caller guarantees t in [0, 1], nu >= 0
    and p in [0, 1].
    """
    statistics = check_choice("noise statistics", NoiseStatistics, statistics)
    counts = _counts(*_detector_input(statistics, t, nu, det))
    return _decide(det.kind, *_terms(det.kind, *counts, p))[0]


def noise_root(statistics: NoiseStatistics, t, q_star: float, p: float, det: DetectorModel):
    """Noise mean at which the array model's Q equals ``q_star``, elementwise in ``t``.

    Q rises with the noise in every pairing, and Q <= q_star has a closed
    form (t_e = t eta).  PNRD: Q = (1-p)/2 + 2p rho/(1+rho)^2 rises with
    rho = p10 p01/(p11 p00) <= 1, and rho/(1-rho) is ((1+d) m + d)(1 + m - t_e)/t_e
    for thermal noise m = (1-t) nu eta, and d (1 - t_e)/t_e, linear in d, for
    Poisson noise d = d_eff.  SPAD:
    Q = 1/2 - p (1 - q1/q0)^2/(2 f^2), with f = c1 + c0 q1/q0, is at most
    q_star where f <= (1 - q1/q0) K, K = sqrt(p/(1 - 2 q_star)): for Poisson
    noise that bounds x = e^(-d_eff) below, for thermal noise it is a
    quadratic in 1 + m.  Unchecked but for ``statistics``; quietly NaN,
    infinite or negative where no bracket is open.
    """
    statistics = check_choice("noise statistics", NoiseStatistics, statistics)
    t_e, d = t * det.eta, det.dark
    per_nu = det.eta * (1.0 - t)  # noise reaching the detector per unit nu
    thermal = statistics == NoiseStatistics.THERMAL
    with np.errstate(all="ignore"):
        if det.kind == DetectorKind.SPAD:
            k = math.sqrt(p / (1.0 - 2.0 * q_star))
            # thermal: 2 y^2 - (t_e (1 + K) + 2 e^-d) y + 2 e^-d t_e <= 0, y = 1 + m,
            # that is 2 m^2 + b m + c <= 0
            if thermal:
                damp, lost, _ = det._dark_probs
                b = 2.0 * lost + 2.0 - t_e * (1.0 + k)
                c = (2.0 - t_e) * lost + t_e * (damp - k)
                return -2.0 * c / (b + np.sqrt(b * b - 8.0 * c)) / per_nu
            # x* = 1 + (t_e - t_e K)/(2 - 2 t_e)
            return (-np.log1p((t_e - t_e * k) / (2.0 - 2.0 * t_e)) - d) / per_nu
        k = np.divide(q_star - 0.5 * (1.0 - p), 2.0 * p)  # rho*/(1+rho*)^2
        s = np.sqrt(1.0 - 4.0 * k)
        if not thermal:  # rho*/(1-rho*) = 2k/(s(1+s))
            return (2.0 * k / (s * (1.0 + s)) * t_e / (1.0 - t_e) - d) / per_nu
        # (1+d) m^2 + b m + c = 0
        b = (1.0 + d) * (1.0 - t_e) + d
        c = d * (1.0 - t_e) - t_e * 2.0 * k / (s * (1.0 + s))
        m = -2.0 * c / (b + np.sqrt(b * b - 4.0 * (1.0 + d) * c))
        return m / per_nu


def _spad_holds(q0, rho, c0, c1):
    """A SPAD witness from no clicks q0, q1 = rho q0 and clicks c_l = 1 - q_l, in closed form.

    In units of q0^2, P_s = f^2/4 and P_e = e = rho c0 c1 with f = c1 + rho c0,
    so 2 P_s - P_e = q0^2 h/2 with h = c1^2 + (rho c0)^2 >= 0.  P_s exceeds the
    threshold exactly where h > 0 and (8 + P_e)(2 P_s - P_e)^2 > P_e (2 + P_e)^2,
    that is q0^2 h^2 (8 + u) > 4 e (2 + u)^2 with u = q0^2 e = P_e.
    """
    rc = rho * c0
    f = c1 + rc
    e = rc * c1
    h = c1 * c1 + rc * rc
    k = q0 * q0
    u = k * e
    w = 2.0 + u
    return (f * f >= _COINCIDENCE_FLOOR * k) & (h * h * (8.0 + u) * k > 4.0 * e * w * w)


def witness_holds(statistics: NoiseStatistics, t, nu, det: DetectorModel):
    """Where the witness holds (defined and margin > 0), elementwise in closed form.

    ``link_fields``' verdict up to rounding, without a square root or a
    division by the terms: a PNRD's P_s > sqrt(P_e) - P_e holds exactly where
    (P_s + P_e)^2 > P_e, and a SPAD's test is ``_spad_holds``.  Every
    variable lies in [0, 1], so nothing overflows at any noise mean: thermal
    noise is written in g = 1/(1 + m), Poisson noise on a SPAD in
    x = e^(-d_eff), which needs no dark-count series.  Poisson noise on a
    PNRD takes the PNRD terms at m = 0 with d_eff's dark counts, as
    ``_detected`` does.  Unchecked but for ``statistics``, like ``link_fields``.
    """
    statistics = check_choice("noise statistics", NoiseStatistics, statistics)
    if statistics == NoiseStatistics.POISSON and det.kind == DetectorKind.SPAD:
        minus_d = -_d_eff(t, nu, det)
        x, c0, t_e = np.exp(minus_d), -np.expm1(minus_d), t * det.eta
        return _spad_holds(x, 1.0 - t_e, c0, c0 + t_e * x)
    t_e, m, dark, (damp, lost, doubles) = _detector_input(statistics, t, nu, det)
    g = 1.0 / (1.0 + m)
    a = ((1.0 - t_e) + m) * g  # q1/q0 = 1 - t_e g without cancellation
    tg = t_e * g
    q0 = damp * g
    if det.kind == DetectorKind.SPAD:
        c0 = (m + lost) * g  # 1 - e^-dark g without cancellation
        return _spad_holds(q0, a, c0, c0 + tg * q0)
    # p11, P_e = w1 and n (N = n^2) by _detected's and _terms' own operations, to the bit
    r = m * g
    miss = g * a
    single = g * (r * a + tg * g)
    p11 = damp * (single + dark * miss)
    w1 = a * r * r + tg * r * (1.0 + g) + single * lost + miss * doubles
    n = p11 * q0 + damp * (g * r + dark * g) * (damp * miss)
    s = p11 * p11 + w1
    return (n * n >= _COINCIDENCE_FLOOR) & (s * s > w1)

