"""Werner-state source, noise coupling and detection folded into observables.

Two physical configurations are supported: a single thermal mode coupled in
at a beam splitter and read out with photon-number-resolving detectors, and
multimode (Poissonian) noise read out with click detectors, where the noise
is absorbed into effective detector parameters and closed forms apply.

Each model is written once, in an arithmetic-only helper (``_thermal_terms``,
``_poisson_terms``) that works on floats and numpy arrays alike.  The scalar
twins (``thermal_observables``, ``poisson_observables``) check their inputs
and build a ``LinkAssessment``; the array twins (``thermal_fields``,
``poisson_fields``) serve the sweep.
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


def _assessment(kind: DetectorKind, p_s: float, p_e: float, q: float | None) -> LinkAssessment:
    """Clamp a scalar model's terms and decide it; ``q`` is None where undefined."""
    stats = CoincidenceStats(p_s=_clamp01(p_s), p_e=_clamp01(p_e))
    verdict = evaluate(kind, stats)
    if q is None:
        return LinkAssessment(
            q=math.nan, s=math.nan, rates=KeyRates(bb84=0.0, di=0.0, di_defined=False),
            stats=stats, witness=verdict, coincidence_defined=False,
        )
    q = min(max(q, 0.0), 0.5)  # Q <= 1/2 in exact arithmetic; strip round-off dust
    s = bell_from_qber(q)
    return LinkAssessment(
        q=q, s=s, rates=key_rates(q, s), stats=stats, witness=verdict,
        coincidence_defined=True,
    )


def _thermal_terms(p00, p10, p01, p11, p: float):
    """Unclamped (P_s, P_e, N, 2 N Q) of the thermal model, arithmetic only.

    From the detected-count probabilities p~(s|l), s, l in {0, 1}, of the
    occupied (l=1) and empty (l=0) polarisation mode:

        N = (p11 p00 + p10 p01)^2,    2 N Q = 4 p * p11 p00 p01 p10 + (1-p) N,
        P_s = p11^2,                  P_e = 1 - p01 - p11.

    Elementwise when the probabilities are numpy arrays.
    """
    norm = (p11 * p00 + p10 * p01) ** 2
    return p11 * p11, 1.0 - p01 - p11, norm, 4.0 * p * p11 * p00 * p01 * p10 + (1.0 - p) * norm


def _poisson_terms(eta, x, em1, p: float):
    """(P_s, P_e, F^2, p eta^2 / 2) of the Poisson model, arithmetic only.

    Closed forms in the effective parameters (eta, d), given x = e^(-d) and
    em1 = e^(-d) - 1, so no exponential overflows at any noise mean and no
    small term cancels (F and each factor of P_e sum terms of one sign):

        F   = (2 - 2 eta) em1 - eta,        Q = 1/2 - (p eta^2 / 2) / F^2,
        P_s = (1/4) x^2 F^2,                P_e = x^2 em1 (1 - eta) ((1 - eta) em1 - eta),

    where P_s already averages the four equivalent success outcomes.
    Elementwise on numpy arrays.
    """
    f = (2.0 - 2.0 * eta) * em1 - eta
    p_e = x * x * em1 * (1.0 - eta) * ((1.0 - eta) * em1 - eta)
    return 0.25 * x * x * f * f, p_e, f * f, 0.5 * p * eta * eta


def thermal_observables(
    cfg: ChannelConfig, noise: NoiseModel, det: DetectorModel
) -> LinkAssessment:
    """Q, S, key rates and witness statistics for thermal noise with PNRDs.

    The terms are those of ``_thermal_terms``, fed the 0- and 1-count
    probabilities of ``detect_pmf``; undefined where N < floor.
    """
    if noise.statistics is not NoiseStatistics.THERMAL:
        raise ConfigurationError("thermal_observables requires thermal noise statistics")
    if det.kind is not DetectorKind.PNRD:
        raise ConfigurationError("thermal noise analysis requires PNRD detection")
    counts0 = detect_pmf(photocount_pmf(0, noise.nbar, cfg.t), det)
    counts1 = detect_pmf(photocount_pmf(1, noise.nbar, cfg.t), det)
    p_s, p_e, norm, two_nq = _thermal_terms(counts0.p0, counts0.p1, counts1.p0, counts1.p1, cfg.p)
    q = two_nq / (2.0 * norm) if norm >= _COINCIDENCE_FLOOR else None
    return _assessment(det.kind, p_s, p_e, q)


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

    The terms are those of ``_poisson_terms`` at ``effective_detector``;
    undefined where F^2 < floor * x^2 (eta_eff = d_eff = 0: no clicks).
    """
    if noise.statistics is not NoiseStatistics.POISSON:
        raise ConfigurationError("poisson_observables requires poisson noise statistics")
    if det.kind is not DetectorKind.SPAD:
        raise ConfigurationError("Poissonian noise analysis requires SPAD detection")
    eta, dark = effective_detector(cfg.t, noise.nbar, det)
    x = math.exp(-dark)
    p_s, p_e, f2, k = _poisson_terms(eta, x, math.expm1(-dark), cfg.p)
    q = 0.5 - k / f2 if f2 >= _COINCIDENCE_FLOOR * x * x else None
    return _assessment(det.kind, p_s, p_e, q)


def thermal_fields(t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``thermal_observables`` elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked: the caller guarantees t in [0, 1], nu >= 0, p in [0, 1] and
    a PNRD detector.
    """
    t_eff, m_eff = t * det.eta, (1.0 - t) * nu * det.eta  # as detect_pmf thins
    p_s, p_e, norm, two_nq = _thermal_terms(
        *_detected(0, t_eff, m_eff, det.dark), *_detected(1, t_eff, m_eff, det.dark), p
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # N = 0 where undefined
        q = two_nq / (2.0 * norm)
    return _link_fields(det.kind, p_s, p_e, norm >= _COINCIDENCE_FLOOR, q)


def poisson_fields(t, nu, p: float, det: DetectorModel) -> LinkFields:
    """``poisson_observables`` elementwise over broadcast arrays ``t`` and ``nu``.

    Unchecked: the caller guarantees t in [0, 1], nu >= 0, p in [0, 1] and
    a SPAD detector.
    """
    eta, dark = t * det.eta, det.dark + det.eta * (1.0 - t) * nu
    x = np.exp(-dark)
    p_s, p_e, f2, k = _poisson_terms(eta, x, np.expm1(-dark), p)
    with np.errstate(divide="ignore", invalid="ignore"):  # F = 0 where undefined
        q = 0.5 - k / f2
    return _link_fields(det.kind, p_s, p_e, f2 >= _COINCIDENCE_FLOOR * x * x, q)


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
