"""Werner-state source, noise coupling and detection folded into observables.

Two physical configurations are supported: a single thermal mode coupled in
at a beam splitter and read out with photon-number-resolving detectors, and
multimode (Poissonian) noise read out with click detectors, where the noise
is absorbed into effective detector parameters and closed forms apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


# the detector each noise model is analysed with
DETECTOR_FOR = {NoiseStatistics.THERMAL: DetectorKind.PNRD,
                NoiseStatistics.POISSON: DetectorKind.SPAD}


def check_pairing(statistics: NoiseStatistics, kind: DetectorKind) -> None:
    """Raise ConfigurationError unless the noise model has an analysis with ``kind``."""
    if DETECTOR_FOR[statistics] is not kind:
        raise ConfigurationError(
            f"unsupported pairing {statistics.value}+{kind.value}; "
            "supported pairings: thermal+pnrd, poisson+spad"
        )


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


def _undefined_assessment(stats: CoincidenceStats, verdict: WitnessVerdict) -> LinkAssessment:
    return LinkAssessment(
        q=math.nan,
        s=math.nan,
        rates=KeyRates(bb84=0.0, di=0.0, di_defined=False),
        stats=stats,
        witness=verdict,
        coincidence_defined=False,
    )


def thermal_observables(
    cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel
) -> LinkAssessment:
    """Q, S, key rates and witness statistics for thermal noise with PNRDs.

    The four detected-count probabilities p~(s|l) for s, l in {0, 1} come
    from the transmitted-port photocount statistics of the occupied (l=1)
    and empty (l=0) polarisation mode, coarse-grained through the detector.
    They combine into

        Q = (4 p * p11 p00 p01 p10 + (1-p) N) / (2 N),
        N = (p11 p00 + p10 p01)^2,
        P_s = p11^2,  P_e = 1 - p01 - p11,

    with perfect detection leaving the raw photocount probabilities intact.
    """
    if noise.statistics is not NoiseStatistics.THERMAL:
        raise ConfigurationError("thermal_observables requires thermal noise statistics")
    if det.kind is not DetectorKind.PNRD:
        raise ConfigurationError("thermal noise analysis requires PNRD detection")
    counts0 = detect_pmf(photocount_pmf(0, noise.nbar, cfg.t), det)
    counts1 = detect_pmf(photocount_pmf(1, noise.nbar, cfg.t), det)
    p00, p10 = counts0.p0, counts0.p1
    p01, p11 = counts1.p0, counts1.p1
    stats = CoincidenceStats(
        p_s=_clamp01(p11 * p11), p_e=_clamp01(counts1.p_two_plus)
    )
    verdict = evaluate(det.kind, stats)
    norm = (p11 * p00 + p10 * p01) ** 2
    if norm < _COINCIDENCE_FLOOR:
        return _undefined_assessment(stats, verdict)
    q = (4.0 * cfg.p * p11 * p00 * p01 * p10 + (1.0 - cfg.p) * norm) / (2.0 * norm)
    q = min(max(q, 0.0), 0.5)  # AM-GM bounds q by 1/2; strip round-off dust
    s = bell_from_qber(q)
    return LinkAssessment(
        q=q, s=s, rates=key_rates(q, s), stats=stats, witness=verdict,
        coincidence_defined=True,
    )


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
    """Q, S, key rates and witness statistics for Poissonian noise with SPADs.

    Closed forms in the effective parameters (eta, d), written in x = e^(-d)
    so that no exponential overflows however large the noise mean:

        F   = (2 - 2 eta) x + eta - 2,
        Q   = 1/2 - p eta^2 / (2 F^2),
        P_s = (1/4) x^2 F^2,
        P_e = x^2 (x - 1) (1 - eta) ((1 - eta) x - 1),

    where P_s already averages the four equivalent success outcomes.  The
    link is undefined where F^2 < floor * x^2.
    """
    if noise.statistics is not NoiseStatistics.POISSON:
        raise ConfigurationError("poisson_observables requires poisson noise statistics")
    if det.kind is not DetectorKind.SPAD:
        raise ConfigurationError("Poissonian noise analysis requires SPAD detection")
    eta, dark = effective_detector(cfg.t, noise.nbar, det)
    x = math.exp(-dark)
    f = (2.0 - 2.0 * eta) * math.expm1(-dark) - eta  # = F, two terms <= 0: no cancellation
    p_s = 0.25 * x * x * f * f
    p_e = x * x * (x - 1.0) * (1.0 - eta) * ((1.0 - eta) * x - 1.0)
    stats = CoincidenceStats(p_s=_clamp01(p_s), p_e=_clamp01(p_e))
    verdict = evaluate(det.kind, stats)
    if f * f < _COINCIDENCE_FLOOR * x * x:
        # eta_eff and d_eff both zero: the detectors never fire
        return _undefined_assessment(stats, verdict)
    q = 0.5 - cfg.p * eta * eta / (2.0 * f * f)
    q = min(max(q, 0.0), 0.5)
    s = bell_from_qber(q)
    return LinkAssessment(
        q=q, s=s, rates=key_rates(q, s), stats=stats, witness=verdict,
        coincidence_defined=True,
    )


def thermal_fields(t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``thermal_observables`` elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked: the caller guarantees t in [0, 1], nu >= 0, p in [0, 1] and
    a PNRD detector.
    """
    t_eff, m_eff = t * det.eta, (1.0 - t) * nu * det.eta  # efficiency thins both
    p00, p10 = _detected(0, t_eff, m_eff, det.dark)
    p01, p11 = _detected(1, t_eff, m_eff, det.dark)
    norm = (p11 * p00 + p10 * p01) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):  # N = 0 where undefined
        q = (4.0 * p * p11 * p00 * p01 * p10 + (1.0 - p) * norm) / (2.0 * norm)
    return _link_fields(det.kind, p11 * p11, 1.0 - p01 - p11, norm >= _COINCIDENCE_FLOOR, q)


def poisson_fields(t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``poisson_observables`` elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked: the caller guarantees t in [0, 1], nu >= 0, p in [0, 1] and
    a SPAD detector.
    """
    eta, dark = t * det.eta, det.dark + det.eta * (1.0 - t) * nu
    x = np.exp(-dark)
    f = (2.0 - 2.0 * eta) * np.expm1(-dark) - eta  # = F, two terms <= 0: no cancellation
    p_s = 0.25 * x * x * f * f
    p_e = x * x * (x - 1.0) * (1.0 - eta) * ((1.0 - eta) * x - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # F = 0 where undefined
        q = 0.5 - p * eta * eta / (2.0 * f * f)
    return _link_fields(det.kind, p_s, p_e, f * f >= _COINCIDENCE_FLOOR * x * x, q)


def _link_fields(kind: DetectorKind, p_s, p_e, defined, q) -> LinkFields:
    """Clamp as the scalar models do, then add the witness margin."""
    return LinkFields(
        defined=defined,
        margin=witness_margin(kind, np.clip(p_s, 0.0, 1.0), np.clip(p_e, 0.0, 1.0)),
        q=np.where(defined, np.clip(q, 0.0, 0.5), np.nan),
    )


def noise_root(statistics: NoiseStatistics, t, q_star: float, p: float, det: DetectorModel):
    """Noise mean at which the array model's Q equals ``q_star``, elementwise in ``t``.

    Thermal: Q = (1-p)/2 + 2p rho/(1+rho)^2 rises with rho = p10 p01/(p11 p00)
    <= 1, and rho/(1-rho) = ((1+d) m + d)(1 + m - t eta)/(t eta), m = (1-t) nu eta.
    Poisson: Q rises as x = e^(-d_eff) falls and is at most q_star where
    -F <= K = eta sqrt(p/(1 - 2 q_star)).  Unchecked; quietly NaN, infinite
    or negative where no bracket is open.
    """
    t_e, d = t * det.eta, det.dark
    with np.errstate(all="ignore"):
        if statistics is NoiseStatistics.POISSON:  # x* = 1 + (eta - K)/(2 - 2 eta)
            k = t_e * math.sqrt(p / (1.0 - 2.0 * q_star))
            return (-np.log1p((t_e - k) / (2.0 - 2.0 * t_e)) - d) / (det.eta * (1.0 - t))
        k = np.divide(q_star - 0.5 * (1.0 - p), 2.0 * p)  # rho*/(1+rho*)^2
        s = np.sqrt(1.0 - 4.0 * k)
        # (1+d) m^2 + b m + c = 0, from rho*/(1-rho*) = 2k/(s(1+s))
        b = (1.0 + d) * (1.0 - t_e) + d
        c = d * (1.0 - t_e) - t_e * 2.0 * k / (s * (1.0 + s))
        m = -2.0 * c / (b + np.sqrt(b * b - 4.0 * (1.0 + d) * c))
        return m / ((1.0 - t) * det.eta)


def assess(cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel) -> LinkAssessment:
    """Dispatch to the observable model matching the noise statistics."""
    check_pairing(noise.statistics, det.kind)
    if noise.statistics is NoiseStatistics.THERMAL:
        return thermal_observables(cfg, noise, det)
    return poisson_observables(cfg, noise, det)
