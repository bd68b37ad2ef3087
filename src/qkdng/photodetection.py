"""Beam-splitter photocount statistics and their coarse-graining by a PNRD.

Everything here is diagonal in the Fock basis: the signal/noise mixing enters
only through the photon number distribution it leaves in the transmitted
port.  That distribution is all the downstream error and coincidence
formulas consume, and it has a closed form.  Each signal photon reaches the
transmitted port with probability ``t`` and each noise photon with
probability ``1 - t``; the thermal port has no phase reference, so the port
holds the ``t``-thinned Fock state plus thermal noise of mean
``m = (1 - t) * nbar``:

    p(s|l) = sum_{j<=l} C(l,j) t^j (1-t)^(l-j) q(s|j,m),
    q(s|j,m) = sum_{k<=min(s,j)} C(s,k) C(j,k) m^(s+j-2k) / (1+m)^(s+j+1),

where q is the count distribution of ``|j>`` after additive thermal noise.
Detector efficiency is one more thinning of the same kind, so no infinite
sum is ever truncated on the way to the detected counts.  The detector
models read only the probabilities of 0 and 1 counts, which sum to short
closed forms: with g = 1/(1+m), r = m g and a = 1 - t g,

    p(0|l) = g a^l,    p(1|l) = g a^(l-1) (r a + l t g^2),    p(1|0) = g r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, check_range

_EXACT_LIMIT = 20   # largest index evaluated with exact integer factorials
_TAIL_FLOOR = 1e-17  # tabulated tail mass left out, below double round-off on 1
_MAX_ROWS = 10**6    # longest photocount table worth building for output


class DetectorKind(str, Enum):
    SPAD = "spad"
    PNRD = "pnrd"


@dataclass(frozen=True)
class DetectorModel:
    """Detector type with efficiency ``eta`` and dark-count rate ``dark``.

    ``dark`` is the mean number of spurious counts per detection gate.  It is
    the POVM parameter often written nu; renamed here so it cannot collide
    with the noise mean carried on the same axis in sweeps.
    """

    kind: DetectorKind
    eta: float = 1.0
    dark: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DetectorKind(self.kind))
        check_range("detector efficiency", self.eta, 0.0, 1.0)
        check_range("dark-count rate", self.dark, 0.0)


def _count_prob(s: int, l: int, t, m):
    """p(s|l): ``s`` photons from ``|l>`` thinned by ``t`` plus thermal mean ``m``.

    Elementwise when ``t`` and ``m`` are numpy arrays.
    """
    g = 1.0 / (1.0 + m)
    r = m * g
    total = 0.0
    for j in range(l + 1):
        fock = 0.0  # q(s|j,m), with m^a / (1+m)^b written as r^a g^(b-a)
        for k in range(min(s, j) + 1):
            fock += math.comb(s, k) * math.comb(j, k) * r ** (s + j - 2 * k) * g ** (2 * k + 1)
        total += math.comb(l, j) * t**j * (1.0 - t) ** (l - j) * fock
    return total


def _detected(l: int, t, m, dark: float):
    """(p0, p1) of ``|l>`` thinned by ``t`` plus thermal mean ``m``, then dark counts.

    The closed forms p(0|l) and p(1|l) of the module docstring, folded with
    Poissonian dark counts of mean ``dark``: p0 = e^-dark p(0|l) and
    p1 = e^-dark (p(1|l) + dark p(0|l)).  Arithmetic only, so elementwise
    when ``t`` and ``m`` are numpy arrays.
    """
    g = 1.0 / (1.0 + m)
    r = m * g
    if l == 0:
        miss, single = g, g * r
    else:
        a = 1.0 - t * g
        miss = g * a**l
        single = g * a ** (l - 1) * (r * a + l * t * g * g)
    damp = math.exp(-dark)
    return damp * miss, damp * (single + dark * miss)


@dataclass(frozen=True)
class PhotocountDistribution:
    """Transmitted-port photon number distribution for one Fock input.

    The distribution is that of ``|incident_l>`` thinned by ``t`` plus
    thermal noise of mean ``m``.  ``probs`` tabulates it from ``s = 0`` up to
    where the remaining tail, reported as ``truncation_tail``, drops below
    double round-off, so ``sum(probs) + truncation_tail`` is 1.  Only output
    and tests read the table; ``detect_pmf`` uses the closed form.
    """

    incident_l: int
    t: float
    m: float

    @cached_property
    def _table(self) -> tuple[np.ndarray, float]:
        l, t, m = self.incident_l, self.t, self.m
        # rows the geometric factor r^s needs to fall below the floor
        rows = math.log(_TAIL_FLOOR) / math.log1p(-1.0 / (1.0 + m)) if m > 0.0 else 0.0
        if l + rows > _MAX_ROWS:
            raise DomainError(
                f"tabulating the photocount distribution at noise mean {m:g} takes "
                f"about {l + rows:.3g} rows, more than {_MAX_ROWS}"
            )
        r = m / (1.0 + m)
        probs = []
        s = 0
        while True:
            p = _count_prob(s, l, t, m)
            probs.append(p)
            if s >= l:
                # every term of p(s'|l) is C(s',k) r^s' times a constant with k <= l,
                # so for s' >= s the ratio p(s'+1)/p(s') is at most this
                ratio = r * (s + 1) / (s + 1 - l)
                tail = p * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
                if tail <= _TAIL_FLOOR:
                    break
            s += 1
        table = np.array(probs)
        table.setflags(write=False)
        return table, tail

    @property
    def probs(self) -> np.ndarray:
        """``probs[s]`` is the probability of ``s`` transmitted photons."""
        return self._table[0]

    @property
    def truncation_tail(self) -> float:
        """Upper bound on the probability of counts beyond ``probs``."""
        return self._table[1]


@dataclass(frozen=True)
class DetectionPmf:
    """Coarse-grained detected counts {0, 1, >=2} behind an imperfect PNRD."""

    p0: float
    p1: float
    p_two_plus: float


def _lgf(m: int) -> float:
    return math.lgamma(m + 1.0)


def _log_comb(m: int, j: int) -> float:
    return _lgf(m) - _lgf(j) - _lgf(m - j)


def bs_coefficient(l: int, n: int, k: int, s: int, t: float) -> float:
    """One interference term of the beam-splitter transition amplitude.

    Contribution, for Fock inputs ``|l>`` (signal port) and ``|n>`` (noise
    port), to the amplitude of finding ``s`` photons in the transmitted port
    via the path where ``k`` signal photons are transmitted.  Zero whenever
    a binomial constraint fails; indices above 20 switch to log-space
    factorials to avoid overflow.
    """
    for name, value in (("l", l), ("n", n), ("k", k), ("s", s)):
        if value < 0:
            raise DomainError(f"index {name} must be nonnegative, got {value}")
    check_range("transmittance", t, 0.0, 1.0)
    if k > l or k > s or s - k > n:
        return 0.0
    # k <= min(l, s) and s - k <= n imply s <= l + n, so l + n - s >= 0 here.
    if max(l, n, s) <= _EXACT_LIMIT:
        mag = math.sqrt(
            math.factorial(s) * math.factorial(l + n - s)
            / (math.factorial(l) * math.factorial(n))
        ) * math.comb(l, k) * math.comb(n, s - k)
    else:
        log_mag = (
            0.5 * (_lgf(s) + _lgf(l + n - s) - _lgf(l) - _lgf(n))
            + _log_comb(l, k)
            + _log_comb(n, s - k)
        )
        mag = math.exp(log_mag)
    sign = -1.0 if (s - k) % 2 else 1.0
    return sign * mag * (1.0 - t) ** (0.5 * (l + s - 2 * k)) * t ** (0.5 * (n + 2 * k - s))


def photocount_pmf(l: int, nbar: float, t: float) -> PhotocountDistribution:
    """Photocount distribution of Fock state ``|l>`` mixed with thermal noise.

    The signal enters a beam splitter of transmittance ``t`` whose other port
    carries a single-mode thermal state of mean ``nbar``; returned is the
    photon number distribution in the transmitted port.

    Raises:
        DomainError: arguments out of range or not finite.
    """
    if l < 0:
        raise DomainError(f"incident Fock number must be nonnegative, got {l}")
    nbar = check_range("thermal mean", nbar, 0.0)
    t = check_range("transmittance", t, 0.0, 1.0)
    return PhotocountDistribution(incident_l=int(l), t=t, m=(1.0 - t) * nbar)


def detect_pmf(pmf: PhotocountDistribution, det: DetectorModel) -> DetectionPmf:
    """Coarse-grain a photocount distribution through an imperfect PNRD.

    Efficiency ``eta`` thins the port once more, mapping (t, m) to
    (t eta, eta m); Poissonian dark counts of mean d then give
    p0 = e^-d p~0 and p1 = e^-d (p~1 + d p~0).  With a perfect detector this
    is the identity coarse-graining (0 -> 0, 1 -> 1, rest -> two-or-more).
    """
    if det.kind is not DetectorKind.PNRD:
        raise ConfigurationError("detect_pmf coarse-grains onto PNRD outcomes")
    p0, p1 = _detected(pmf.incident_l, pmf.t * det.eta, pmf.m * det.eta, det.dark)
    return DetectionPmf(p0=p0, p1=p1, p_two_plus=1.0 - p0 - p1)
