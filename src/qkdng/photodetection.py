"""Beam-splitter photocount statistics and their coarse-graining by a detector.

Everything here is diagonal in the Fock basis: the signal/noise mixing enters
only through the photon number distribution it leaves in the transmitted
port.  That distribution is all the downstream error and coincidence
formulas consume, and it has a closed form.  Each signal photon reaches the
transmitted port with probability ``t`` and each noise photon with
probability ``1 - t``; the thermal port has no phase reference, so the port
holds the ``t``-thinned Fock state plus thermal noise of mean
``m = (1 - t) * nbar``.  With g = 1/(1+m), r = m g and a = 1 - t g, its
generating function is g (a - (r - t g) z)^l / (1 - r z)^(l+1): the thermal
count g r^s convolved with l copies of the kernel h_0 = a, h_s = t g^2 r^(s-1),

    p(s|l) = g sum_{n<=min(s,l)} C(l,n) C(s,n) (t g^2)^n a^(l-n) r^(s-n),

a single sum of non-negative terms.  Detector efficiency is one more thinning
of the same kind, so no infinite sum is ever truncated on the way to the
detected counts.  Both detectors read the same three outcomes {0, 1, >=2}:
a PNRD tells all three apart, a SPAD only 0 from the rest.  So only the
first two terms and the probability of two or more are needed, each a sum of
non-negative terms:

    p(0|l) = g a^l,    p(1|l) = g a^(l-1) (r a + l t g^2),    p(1|0) = g r,
    P(s >= 2) = a^l r^2 + l a^(l-1) t g r (1 + g) + (t g)^2 sum_{j<l} j a^(j-1).

The last reads the kernel as a choice per signal photon: it adds nothing
with probability a, else one photon plus a thermal-like count g r^k.  With
no such photon the thermal count must reach 2 (r^2); with one, the two
thermal-like counts must not both be 0 (1 - g^2 = r (1 + g)); two always do.

Each formula has one body for floats and numpy arrays: ``_elementary`` gives
it math's functions or numpy's.  A ``DetectorModel`` works out its dark
counts once, where ``dark`` is validated, and ``detect_pmf`` reads them from
the detector; only noise that joins the dark counts (Poisson noise, whose
d_eff depends on the noise mean) computes them per point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_choice, check_range

_TAIL_FLOOR = 1e-17  # tabulated tail mass left out, below double round-off on 1
_MAX_ROWS = 10**6    # longest photocount table worth building for output
_MAX_WORK = 2 * 10**7  # row updates of one table, l per row: about 3 s
# 1/(j+2)! for j = 13 down to 0: P(D >= 2) = e^-d d^2 sum_j d^j/(j+2)!, to 6e-18 at d = 1/2
_DARK_SERIES = tuple(1.0 / math.prod(range(2, j + 3)) for j in reversed(range(14)))
_MATH = SimpleNamespace(exp=math.exp, expm1=math.expm1, sqrt=math.sqrt, minimum=min,
                        where=lambda cond, yes, no: yes if cond else no,
                        clip=lambda x, lo, hi: min(max(x, lo), hi))


def _elementary(x):
    """numpy for an ndarray ``x``, else math's exp, expm1 and sqrt, and scalar minimum, where, clip."""
    return np if isinstance(x, np.ndarray) else _MATH


class DetectorKind(str, Enum):
    SPAD = "spad"
    PNRD = "pnrd"


@dataclass(frozen=True)
class DetectorModel:
    """Detector type with efficiency ``eta`` and dark-count rate ``dark``.

    ``dark`` is the mean number of spurious counts per detection gate.  It is
    the POVM parameter often written nu; renamed here so it cannot collide
    with the noise mean carried on the same axis in sweeps.  ``_dark_probs``
    holds ``_dark_counts(dark)``, worked out once here; it is an attribute,
    not a field, so eq, hash and repr see only kind, eta and dark.
    """

    kind: DetectorKind
    eta: float = 1.0
    dark: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", check_choice("detector kind", DetectorKind, self.kind))
        object.__setattr__(self, "eta", check_range("detector efficiency", self.eta, 0.0, 1.0))
        object.__setattr__(self, "dark", check_range("dark-count rate", self.dark, 0.0))
        object.__setattr__(self, "_dark_probs", _dark_counts(self.dark))


def _dark_series(x):
    """sum_j x^j/(j+2)!, by Horner: e^-x x^2 times it is P(D >= 2) below x = 1/2."""
    series = 0.0
    for coeff in _DARK_SERIES:
        series = coeff + x * series
    return series


def _dark_counts(dark):
    """(P(D = 0), P(D >= 1), P(D >= 2)) of Poissonian dark counts D of mean ``dark``.

    Never by subtraction: below d = 1/2, where 1 - e^-d - d e^-d cancels,
    P(D >= 2) is the series e^-d d^2 sum_j d^j/(j+2)!; above, the
    subtraction loses at most three bits.  Floats and arrays alike.
    """
    f = _elementary(dark)
    damp, lost = f.exp(-dark), -f.expm1(-dark)
    x = f.minimum(dark, 0.5)  # the series stays finite where it is not read
    return damp, lost, f.where(dark < 0.5, x * x * damp * _dark_series(x), lost - dark * damp)


class DetectionPmf(NamedTuple):  # unpacks, and holds arrays in the sweep's model
    """Detected counts {0, 1, >=2} of one mode; a SPAD's click is p1 + p_two_plus."""

    p0: float
    p1: float
    p_two_plus: float


def _detected(l: int, t, m, dark, dark_counts) -> DetectionPmf:
    """Detected counts of ``|l>`` thinned by ``t`` plus thermal mean ``m``, then dark counts.

    The closed forms p(0|l), p(1|l) and P(s >= 2) of the module docstring,
    folded with Poissonian dark counts D of mean ``dark``: p0 = e^-dark p(0|l),
    p1 = e^-dark (p(1|l) + dark p(0|l)) and the probability of two or more
    counts p_two_plus = P(s >= 2) + p(1|l) P(D >= 1) + p(0|l) P(D >= 2),
    never by subtraction.  ``dark_counts`` is ``_dark_counts(dark)``, which
    the caller holds: a detector's own, or Poisson noise's d_eff's.
    Elementwise when ``t``, ``m`` or ``dark`` are numpy arrays.
    """
    g = 1.0 / (1.0 + m)
    r = m * g
    if l == 0:
        miss, single, two = g, g * r, r * r
    else:
        a = ((1.0 - t) + m) * g  # 1 - t g without cancellation
        lead, two = g, a * r * r + l * t * g * r * (1.0 + g)
        if l > 1:  # for l = 1, a^(l-1) is 1: no power and no multiply by it
            power = a ** (l - 1)
            # sum_{j<l} j a^(j-1), the derivative of 1 + a + ... + a^(l-1), by Horner
            geo, slope = 1.0, 0.0
            for _ in range(l - 1):
                geo, slope = 1.0 + a * geo, geo + a * slope
            lead, two = g * power, power * two + (t * g) ** 2 * slope
        miss, single = lead * a, lead * (r * a + l * (t * g * g))
    damp, lost, doubles = dark_counts
    return DetectionPmf(damp * miss, damp * (single + dark * miss),
                        two + single * lost + miss * doubles)


@dataclass(frozen=True)
class PhotocountDistribution:
    """Transmitted-port photon number distribution for one Fock input.

    The distribution is that of ``|incident_l>`` thinned by ``t`` plus
    thermal noise of mean ``m``.  ``probs`` tabulates it from ``s = 0`` up to
    where the remaining tail, reported as ``truncation_tail``, drops below
    double round-off, so ``sum(probs) + truncation_tail`` is 1.  Only output
    and tests read the table; ``detect_pmf`` uses the closed form.  The
    fields are checked where the record is built, so neither the table nor
    ``detect_pmf`` sees a negative, fractional or non-finite one.
    """

    incident_l: int
    t: float
    m: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "incident_l",
                           _fock_index("incident Fock number", self.incident_l))
        object.__setattr__(self, "t", check_range("transmittance", self.t, 0.0, 1.0))
        object.__setattr__(self, "m", check_range("thermal mean m", self.m, 0.0))

    @cached_property
    def _table(self) -> tuple[np.ndarray, float]:
        l, t, m = self.incident_l, self.t, self.m
        # rows the geometric factor r^s needs to fall below the floor, from
        # log r = -log(1 + 1/m): log1p(-1/(1 + m)) is log1p(-1.0) below m = 2^-53
        rows = math.log(_TAIL_FLOOR) / -math.log1p(1.0 / m) if m > 0.0 else 0.0
        # each row updates l running sums: the work grows as l (l + rows)
        if l + rows > _MAX_ROWS or l * (l + rows) > _MAX_WORK:
            raise DomainError(
                f"tabulating the photocount distribution of |{l}> at noise mean {m:g} "
                f"takes about {l + rows:.3g} rows of {l} updates; the limits are "
                f"{_MAX_ROWS} rows and {_MAX_WORK:.0e} updates"
            )
        g = 1.0 / (1.0 + m)
        r, a, c = m * g, (1.0 - t + m) * g, t * g * g  # a = 1 - t g without cancellation
        # chain_k = g h^k / (1 - r z) obeys chain_k = a chain_(k-1) + c z run_(k-1), with
        # run_k = chain_k / (1 - r z) the running sum run_k[s] = r run_k[s-1] + chain_k[s];
        # row s thus needs only row s-1 of the l running sums, and p(s|l) = chain_l[s]
        run = [0.0] * l
        lead = g  # g r^s, the thermal count alone
        probs = []
        s = 0
        while True:
            chain = lead
            for k in range(l):
                below, run[k] = run[k], r * run[k] + chain
                chain = a * chain + c * below
            p = chain
            probs.append(p)
            if s >= l:
                # every term of p(s'|l) is C(s',n) r^s' times a constant with n <= l,
                # so for s' >= s the ratio p(s'+1)/p(s') is at most this
                ratio = r * (s + 1) / (s + 1 - l)
                tail = p * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
                if tail <= _TAIL_FLOOR:
                    break
            lead *= r
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


def _fock_index(what: str, value) -> int:
    """``value`` as a photon number: an integer >= 0, never a float or a bool."""
    try:
        index = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise DomainError(f"{what} must be a nonnegative integer, got {value!r}")
    return index


def _lgf(m: int) -> float:
    return math.lgamma(m + 1.0)


def _log_comb(m: int, j: int) -> float:
    return _lgf(m) - _lgf(j) - _lgf(m - j)


def bs_coefficient(l: int, n: int, k: int, s: int, t: float) -> float:
    """One interference term of the beam-splitter transition amplitude.

    Contribution, for Fock inputs ``|l>`` (signal port) and ``|n>`` (noise
    port), to the amplitude of finding ``s`` photons in the transmitted port
    via the path where ``k`` signal photons are transmitted.  Zero whenever
    a binomial constraint fails.  Every term is formed in log space, so
    neither its factorials nor its binomials overflow at any photon number.
    """
    l, n, k, s = (_fock_index(f"index {name}", value)
                  for name, value in (("l", l), ("n", n), ("k", k), ("s", s)))
    t = check_range("transmittance", t, 0.0, 1.0)
    if k > l or k > s or s - k > n:
        return 0.0
    # k <= min(l, s) and s - k <= n: l + n - s and a, b (twice the powers of 1 - t, t) are >= 0
    a, b = l + s - 2 * k, n + 2 * k - s
    if (a and t == 1.0) or (b and t == 0.0):
        return 0.0
    log_amp = (
        0.5 * (_lgf(s) + _lgf(l + n - s) - _lgf(l) - _lgf(n))
        + _log_comb(l, k)
        + _log_comb(n, s - k)
        + (0.5 * a * math.log1p(-t) if a else 0.0)
        + (0.5 * b * math.log(t) if b else 0.0)
    )
    sign = -1.0 if (s - k) % 2 else 1.0
    return sign * math.exp(log_amp)


def photocount_pmf(l: int, nbar: float, t: float) -> PhotocountDistribution:
    """Photocount distribution of Fock state ``|l>`` mixed with thermal noise.

    The signal enters a beam splitter of transmittance ``t`` whose other port
    carries a single-mode thermal state of mean ``nbar``; returned is the
    photon number distribution in the transmitted port.

    Raises:
        DomainError: arguments out of range or not finite.
    """
    nbar = check_range("thermal mean", nbar, 0.0)  # both checked before they form m
    t = check_range("transmittance", t, 0.0, 1.0)
    return PhotocountDistribution(incident_l=l, t=t, m=(1.0 - t) * nbar)


def detect_pmf(pmf: PhotocountDistribution, det: DetectorModel) -> DetectionPmf:
    """Coarse-grain a photocount distribution onto the detected counts {0, 1, >=2}.

    Efficiency ``eta`` thins the port once more, mapping (t, m) to
    (t eta, eta m); Poissonian dark counts of mean d then give
    p0 = e^-d p~0 and p1 = e^-d (p~1 + d p~0).  With a perfect detector this
    is the identity coarse-graining (0 -> 0, 1 -> 1, rest -> two-or-more).
    The record is the same for either detector kind: a PNRD reads all three
    outcomes, a SPAD no click p0 and click p1 + p_two_plus.
    """
    return _detected(pmf.incident_l, pmf.t * det.eta, pmf.m * det.eta, det.dark, det._dark_probs)
