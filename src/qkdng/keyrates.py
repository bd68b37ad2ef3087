"""Binary entropy, the CHSH correlation family and Devetak-Winter key rates.

Rates are secret bits per sifted pair against collective attacks and may be
negative; a negative rate means no key can be distilled at that error rate.
All functions assume the fixed CHSH-optimal measurement settings for a
depolarized Bell pair, for which the score and the error rate are tied by
S = 2*sqrt(2)*(1 - 2*Q).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, check_choice, check_range

S_MAX = 2.0 * math.sqrt(2.0)  # Tsirelson bound on the CHSH score
_BELL_SLACK = 1e-9            # round-off allowance when validating a score
_PHASE_SLACK = _BELL_SLACK / S_MAX + 1e-12  # the phase's slack: the score's, plus round-off

# Q*: the last float before the computed rate first turns non-positive as Q
# grows (round-off makes the BB84 rate positive again 7 and 8 ulps above it),
# so every security decision reads q <= Q*
Q_STAR_BB84 = 0.1100278644383595
Q_STAR_DI = 0.07149175884448569


class Protocol(str, Enum):
    BB84 = "bb84"
    DI = "di"


class KeyRates(NamedTuple):
    """Rate lower bounds for both protocols at one channel point.

    ``di`` is the sentinel 0.0 with ``di_defined`` False when the CHSH score
    does not beat the classical bound, i.e. no device-independent statement
    can be made at all.
    """

    bb84: float
    di: float
    di_defined: bool


def _entropy(q: float) -> float:
    """``binary_entropy`` of a ``q`` already known to lie in [0, 1], unchecked."""
    if q == 0.0 or q == 1.0:
        return 0.0  # continuous limit, 0*log(0) := 0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def binary_entropy(q: float) -> float:
    """Shannon entropy of a bit with bias ``q``, in bits."""
    return _entropy(check_range("entropy argument", q, 0.0, 1.0))


def bell_from_qber(qber: float) -> float:
    """CHSH score of the depolarized Bell pair at error rate ``qber``."""
    qber = check_range("qber (correlated regime)", qber, 0.0, 0.5)
    return S_MAX * (1.0 - 2.0 * qber)


def _rate_inputs(qber: float, s: float) -> tuple[float, float]:
    """The rate functions' (qber, CHSH score) as floats, each checked once."""
    return (check_range("qber", qber, 0.0, 1.0),
            check_range("CHSH score", s, 0.0, S_MAX + _BELL_SLACK))


def _bb84(qber: float, s: float) -> float:
    """``dw_rate_bb84`` on inputs already checked."""
    phase = qber + s / S_MAX
    if not -_PHASE_SLACK <= phase <= 1.0 + _PHASE_SLACK:
        raise DomainError(f"phase-error entropy argument {phase} outside [0, 1]")
    phase = min(max(phase, 0.0), 1.0)
    return 1.0 - _entropy(qber) - _entropy(phase)


def _di(qber: float, s: float) -> tuple[float, bool]:
    """``dw_rate_di`` on inputs already checked."""
    if s <= 2.0:
        return 0.0, False
    # min() strips round-off above the Tsirelson bound before the entropy call
    excess = min((s / 2.0) ** 2 - 1.0, 1.0)
    eve_arg = (1.0 + math.sqrt(excess)) / 2.0
    return 1.0 - _entropy(qber) - _entropy(eve_arg), True


def dw_rate_bb84(qber: float, s: float) -> float:
    """Rate lower bound for entanglement-based BB84.

    Along the correlation family this reduces to 1 - 2*h(Q), since the
    phase-error argument Q + S/(2*sqrt(2)) collapses to 1 - Q.
    """
    return _bb84(*_rate_inputs(qber, s))


def dw_rate_di(qber: float, s: float) -> tuple[float, bool]:
    """Rate lower bound for DI-QKD, undefined without a CHSH violation.

    Returns ``(rate, defined)``.  For S <= 2 the adversary's penalty entropy
    saturates and no security claim exists, so ``defined`` is False and the
    rate slot carries the sentinel 0.0.
    """
    return _di(*_rate_inputs(qber, s))


def key_rates(qber: float, s: float) -> KeyRates:
    """Both rate bounds bundled, with the DI-undefined sentinel applied."""
    qber, s = _rate_inputs(qber, s)
    di, defined = _di(qber, s)
    return KeyRates(bb84=_bb84(qber, s), di=di, di_defined=defined)


def security_threshold(protocol: Protocol | str, tol: float = 1e-6) -> float:
    """Largest QBER with a positive rate along S = 2*sqrt(2)*(1 - 2*Q).

    Bisection on [0, 1/2]; the result is within ``tol`` of the true root,
    or within one float of it when ``tol`` is finer than the float spacing,
    and the rate is positive for every smaller error rate.
    """
    protocol = check_choice("protocol", Protocol, protocol)
    check_range("tolerance", tol, 0.0, open_lo=True)

    def secure(q: float) -> bool:
        s = bell_from_qber(q)
        if protocol is Protocol.BB84:
            return dw_rate_bb84(q, s) > 0.0
        rate, defined = dw_rate_di(q, s)
        return defined and rate > 0.0

    lo, hi = 0.0, 0.5  # secure at q=0, insecure at q=1/2
    mid = 0.5 * (lo + hi)
    # a bracket one float wide has no midpoint inside it, however wide tol allows
    while hi - lo > tol and lo < mid < hi:
        if secure(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
