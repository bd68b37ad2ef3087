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

from .errors import ConfigurationError, check_range
from .keyrates import KeyRates, bell_from_qber, key_rates
from .photodetection import DetectorKind, DetectorModel, detect_pmf, photocount_pmf
from .witness import CoincidenceStats, WitnessVerdict, evaluate

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

    Closed forms in the effective parameters (eta, d):

        Q   = 1/2 - e^(2d) p eta^2 / (2 (2 + e^d (eta-2) - 2 eta)^2),
        P_s = (1/4) e^(-4d) (2 + e^d (eta-2) - 2 eta)^2,
        P_e = e^(-4d) (1 - e^d) (1 - eta) (1 - eta - e^d),

    where P_s already averages the four equivalent success outcomes.
    """
    if noise.statistics is not NoiseStatistics.POISSON:
        raise ConfigurationError("poisson_observables requires poisson noise statistics")
    if det.kind is not DetectorKind.SPAD:
        raise ConfigurationError("Poissonian noise analysis requires SPAD detection")
    eta, dark = effective_detector(cfg.t, noise.nbar, det)
    edark = math.exp(dark)
    f = 2.0 + edark * (eta - 2.0) - 2.0 * eta
    p_s = 0.25 * math.exp(-4.0 * dark) * f * f
    p_e = math.exp(-4.0 * dark) * (1.0 - edark) * (1.0 - eta) * (1.0 - eta - edark)
    stats = CoincidenceStats(p_s=_clamp01(p_s), p_e=_clamp01(p_e))
    verdict = evaluate(det.kind, stats)
    if f * f < _COINCIDENCE_FLOOR:
        # eta_eff and d_eff both zero: the detectors never fire
        return _undefined_assessment(stats, verdict)
    q = 0.5 - math.exp(2.0 * dark) * cfg.p * eta * eta / (2.0 * f * f)
    q = min(max(q, 0.0), 0.5)
    s = bell_from_qber(q)
    return LinkAssessment(
        q=q, s=s, rates=key_rates(q, s), stats=stats, witness=verdict,
        coincidence_defined=True,
    )


def assess(cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel) -> LinkAssessment:
    """Dispatch to the observable model matching the noise statistics."""
    if noise.statistics is NoiseStatistics.THERMAL and det.kind is DetectorKind.PNRD:
        return thermal_observables(cfg, noise, det)
    if noise.statistics is NoiseStatistics.POISSON and det.kind is DetectorKind.SPAD:
        return poisson_observables(cfg, noise, det)
    raise ConfigurationError(
        f"unsupported pairing {noise.statistics.value}+{det.kind.value}; "
        "supported pairings: thermal+pnrd, poisson+spad"
    )
