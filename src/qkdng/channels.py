"""Werner-state source, noise coupling and detection folded into observables.

The link model has two factors, and any noise pairs with any detector.  The
noise factor gives the detected counts of the empty (l = 0) and the occupied
(l = 1) polarisation mode: p(0|l), p(1|l) and the click probability
c_l = 1 - p(0|l), from ``photodetection._detected``.  A single thermal mode
coupled in at a beam splitter is thinned with the signal,
``_detected(l, t eta, (1-t) eta nu, dark)``; multimode (Poissonian) noise
only adds clicks, so it folds into the dark counts,
``_detected(l, t eta, 0, d_eff)``.  The detector factor (``_terms``) turns
the counts into the criterion terms: a PNRD reads the 0- and 1-counts
(``_thermal_terms``), a SPAD only whether it clicked.

Both factors are arithmetic only, so they work on floats and numpy arrays
alike.  The scalar twins (``thermal_observables``, ``poisson_observables``)
check their inputs and build a ``LinkAssessment``; the array twins
(``thermal_fields``, ``poisson_fields``) serve the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_range
from .keyrates import KeyRates, bell_from_qber, key_rates
from .photodetection import DetectorKind, DetectorModel, _detected, detect_pmf, photocount_pmf
from .witness import CoincidenceStats, WitnessVerdict, evaluate, witness_margin

_COINCIDENCE_FLOOR = 1e-30  # below this the normalisation N counts as zero

# documented so run manifests can name the noise-folding convention
EFFECTIVE_DETECTOR_MAPPING = "eta_eff = T*eta; d_eff = dark + eta*(1-T)*nbar"


class NoiseStatistics(str, Enum):
    THERMAL = "thermal"   # single-mode thermal occupation of the noise port
    POISSON = "poisson"   # multimode-thermal limit with Poissonian counts


@dataclass(frozen=True)
class NoiseModel:
    statistics: NoiseStatistics
    nbar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics", NoiseStatistics(self.statistics))
        check_range("noise mean", self.nbar, 0.0)


@dataclass(frozen=True)
class ChannelConfig:
    """Beam-splitter coupling ``t`` and Werner weight ``p`` of the source."""

    t: float
    p: float = 1.0

    def __post_init__(self) -> None:
        check_range("coupling transmittance", self.t, 0.0, 1.0)
        check_range("Werner weight", self.p, 0.0, 1.0)


@dataclass(frozen=True)
class LinkAssessment:
    """Everything the security and witness decisions consume at one point.

    When no coincidences can occur (``coincidence_defined`` False) the QBER
    and CHSH score are NaN, the rates carry the insecure sentinel and the
    witness is not granted.
    """

    q: float
    s: float
    rates: KeyRates
    stats: CoincidenceStats
    witness: WitnessVerdict
    coincidence_defined: bool

    @property
    def nongauss(self) -> bool:
        return self.coincidence_defined and self.witness.passed


class LinkFields(NamedTuple):  # not a dataclass: ten times cheaper to create at import
    """Array twin of ``LinkAssessment``: the fields the scan decisions read.

    Elementwise over broadcast (t, nu) arrays.  Where ``defined`` is False,
    ``q`` is NaN.  A protocol is secure where ``q <= Q_STAR_BB84/DI``.
    """

    defined: np.ndarray
    margin: np.ndarray
    q: np.ndarray


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _thermal_terms(p00, p10, p01, p11, p: float):
    """Unclamped (P_s, P_e, N, 2 N Q) behind PNRDs, arithmetic only.

    From the detected-count probabilities p~(s|l), s, l in {0, 1}, of the
    occupied (l=1) and empty (l=0) polarisation mode:

        N = (p11 p00 + p10 p01)^2,    2 N Q = 4 p * p11 p00 p01 p10 + (1-p) N,
        P_s = p11^2,                  P_e = 1 - p01 - p11.

    Elementwise when the probabilities are numpy arrays.
    """
    norm = (p11 * p00 + p10 * p01) ** 2
    return p11 * p11, 1.0 - p01 - p11, norm, 4.0 * p * p11 * p00 * p01 * p10 + (1.0 - p) * norm


def _no_click_ratio(t, m):
    """q1/q0 = p01/p00 = (1 - t + m)/(1 + m): free of the dark damping e^-dark.

    So it is exact where p00 and p01 underflow (Poisson noise at d_eff > 708).
    """
    return ((1.0 - t) + m) / (1.0 + m)


def _counts(t, m, dark):
    """Noise factor: (p00, p10, c0, p01, p11, c1, q1/q0) of the empty and the occupied mode."""
    return (*_detected(0, t, m, dark), *_detected(1, t, m, dark), _no_click_ratio(t, m))


def _terms(kind: DetectorKind, p00, p10, c0, p01, p11, c1, rho, p: float):
    """Detector factor: (P_s, P_e, N, 2 N Q) divided by scale^2, and the scale.

    A PNRD reads ``_thermal_terms`` at scale 1.  A SPAD reads the no-click
    probabilities q0 = p00, q1 = p01 and their complements c0, c1:

        P_s = (q0 c1 + q1 c0)^2 / 4,    P_e = q0 q1 c0 c1,    N = (q0 c1 + q1 c0)^2,
        2 N Q = 4 p P_e + (1 - p) N,   i.e.  Q = 1/2 - p (q0 - q1)^2 / (2 N),

    since N - 4 P_e = (q0 - q1)^2.  Every term is a sum of non-negative ones,
    and each is divided by q0^2 (q1 = rho q0), so none underflows before q0.
    """
    if kind is DetectorKind.PNRD:
        return (*_thermal_terms(p00, p10, p01, p11, p), 1.0)
    f = c1 + rho * c0
    p_e = rho * c0 * c1
    return 0.25 * f * f, p_e, f * f, 4.0 * p * p_e + (1.0 - p) * f * f, p00


def _assessment(kind: DetectorKind, p_s, p_e, norm, two_nq, scale) -> LinkAssessment:
    """Decide and clamp ``_terms``' output; undefined where N < floor scale^2."""
    scaled = CoincidenceStats(p_s=_clamp01(p_s), p_e=_clamp01(p_e))
    verdict = evaluate(kind, scaled, scale)
    k = scale * scale
    stats = scaled if k == 1.0 else CoincidenceStats(p_s=scaled.p_s * k, p_e=scaled.p_e * k)
    if norm < _COINCIDENCE_FLOOR * k:
        return LinkAssessment(
            q=math.nan, s=math.nan, rates=KeyRates(bb84=0.0, di=0.0, di_defined=False),
            stats=stats, witness=verdict, coincidence_defined=False,
        )
    q = min(max(two_nq / (2.0 * norm), 0.0), 0.5)  # Q <= 1/2 exactly; strip round-off dust
    s = bell_from_qber(q)
    return LinkAssessment(
        q=q, s=s, rates=key_rates(q, s), stats=stats, witness=verdict,
        coincidence_defined=True,
    )


def _link_fields(kind: DetectorKind, p_s, p_e, norm, two_nq, scale) -> LinkFields:
    """``_assessment``'s decision fields, elementwise."""
    k = scale * scale
    defined = norm >= _COINCIDENCE_FLOOR * k
    with np.errstate(divide="ignore", invalid="ignore"):  # N = 0 where undefined
        q = two_nq / (2.0 * norm)
    return LinkFields(
        defined=defined,
        margin=witness_margin(kind, np.clip(p_s, 0.0, 1.0), np.clip(p_e, 0.0, 1.0), scale),
        q=np.where(defined, np.clip(q, 0.0, 0.5), np.nan),
    )


def thermal_observables(
    cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel
) -> LinkAssessment:
    """Q, S, key rates and witness statistics for single-mode thermal noise.

    The counts are those of ``detect_pmf`` (a SPAD's no-click event is a
    PNRD's zero count; its click probability p1 + p_two_plus sums without
    cancellation), the terms those of ``_terms``.
    """
    if noise.statistics is not NoiseStatistics.THERMAL:
        raise ConfigurationError("thermal_observables requires thermal noise statistics")
    pnrd = det if det.kind is DetectorKind.PNRD else replace(det, kind=DetectorKind.PNRD)
    counts = []
    for l in (0, 1):
        out = detect_pmf(photocount_pmf(l, noise.nbar, cfg.t), pnrd)
        counts += out.p0, out.p1, out.p1 + out.p_two_plus
    # thinned as detect_pmf thins: t eta and (1 - t) nbar eta
    rho = _no_click_ratio(cfg.t * det.eta, (1.0 - cfg.t) * noise.nbar * det.eta)
    return _assessment(det.kind, *_terms(det.kind, *counts, rho, cfg.p))


def effective_detector(t: float, nbar: float, det: DetectorModel) -> tuple[float, float]:
    """Fold coupling loss and multimode noise into (eta_eff, d_eff).

    The coupler transmits the signal with probability ``t``, scaling the
    efficiency, while the (1-t) fraction of the mean noise photon number
    reaches the detector as an extra Poissonian click rate on top of the
    intrinsic dark counts.
    """
    check_range("coupling transmittance", t, 0.0, 1.0)
    check_range("noise mean", nbar, 0.0)
    return t * det.eta, det.dark + det.eta * (1.0 - t) * nbar


def poisson_observables(
    cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel
) -> LinkAssessment:
    """Q, S, key rates and witness statistics for Poissonian noise.

    The counts are those of ``_counts`` at ``effective_detector``, with no
    thermal mode; the terms those of ``_terms``.
    """
    if noise.statistics is not NoiseStatistics.POISSON:
        raise ConfigurationError("poisson_observables requires poisson noise statistics")
    eta, dark = effective_detector(cfg.t, noise.nbar, det)
    return _assessment(det.kind, *_terms(det.kind, *_counts(eta, 0.0, dark), cfg.p))


def thermal_fields(t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``thermal_observables`` elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked: the caller guarantees t in [0, 1], nu >= 0 and p in [0, 1].
    """
    counts = _counts(t * det.eta, (1.0 - t) * nu * det.eta, det.dark)  # as detect_pmf thins
    return _link_fields(det.kind, *_terms(det.kind, *counts, p))


def poisson_fields(t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``poisson_observables`` elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked: the caller guarantees t in [0, 1], nu >= 0 and p in [0, 1].
    """
    counts = _counts(t * det.eta, 0.0, det.dark + det.eta * (1.0 - t) * nu)
    return _link_fields(det.kind, *_terms(det.kind, *counts, p))


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
    quadratic in 1 + m.  Unchecked; quietly NaN, infinite or negative where
    no bracket is open.
    """
    t_e, d = t * det.eta, det.dark
    per_nu = det.eta * (1.0 - t)  # noise reaching the detector per unit nu
    thermal = statistics is NoiseStatistics.THERMAL
    with np.errstate(all="ignore"):
        if det.kind is DetectorKind.SPAD:
            k = math.sqrt(p / (1.0 - 2.0 * q_star))
            # thermal: 2 y^2 - (t_e (1 + K) + 2 e^-d) y + 2 e^-d t_e <= 0, y = 1 + m,
            # that is 2 m^2 + b m + c <= 0
            if thermal:
                damp, lost = math.exp(-d), -math.expm1(-d)
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


def assess(cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel) -> LinkAssessment:
    """Dispatch to the noise factor matching the noise statistics."""
    if noise.statistics is NoiseStatistics.THERMAL:
        return thermal_observables(cfg, noise, det)
    return poisson_observables(cfg, noise, det)
