"""Binary entropy, the CHSH correlation family and Devetak-Winter key rates.

Rates are secret bits per sifted pair against collective attacks and may be
negative; a negative rate means no key can be distilled at that error rate.
All functions assume the fixed CHSH-optimal measurement settings for a
depolarized Bell pair, for which the score and the error rate are tied by
S = 2*sqrt(2)*(1 - 2*Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, check_range

S_MAX = 2.0 * math.sqrt(2.0)  # Tsirelson bound on the CHSH score
_BELL_SLACK = 1e-9            # round-off allowance when validating a score

# Q*: the last float before the computed rate first turns non-positive as Q
# grows (round-off makes the BB84 rate positive again 7 and 8 ulps above it),
# so every security decision reads q <= Q*
Q_STAR_BB84 = 0.1100278644383595
Q_STAR_DI = 0.07149175884448569


class Protocol(str, Enum):
    BB84 = "bb84"
    DI = "di"


@dataclass(frozen=True)
class KeyRates:
    """Rate lower bounds for both protocols at one channel point.

    ``di`` is the sentinel 0.0 with ``di_defined`` False when the CHSH score
    does not beat the classical bound, i.e. no device-independent statement
    can be made at all.
    """

    bb84: float
    di: float
    di_defined: bool


def binary_entropy(q: float) -> float:
    """Shannon entropy of a bit with bias ``q``, in bits."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0  # continuous limit, 0*log(0) := 0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def bell_from_qber(qber: float) -> float:
    """CHSH score of the depolarized Bell pair at error rate ``qber``."""
    if not 0.0 <= qber <= 0.5:
        raise DomainError(
            f"qber must lie in [0, 1/2] in the correlated regime, got {qber}"
        )
    return S_MAX * (1.0 - 2.0 * qber)


def _check_qber(qber: float) -> None:
    if not 0.0 <= qber <= 1.0:
        raise DomainError(f"qber must lie in [0, 1], got {qber}")


def _check_bell(s: float) -> None:
    if not 0.0 <= s <= S_MAX + _BELL_SLACK:
        raise DomainError(f"CHSH score must lie in [0, 2*sqrt(2)], got {s}")


def dw_rate_bb84(qber: float, s: float) -> float:
    """Rate lower bound for entanglement-based BB84.

    Along the correlation family this reduces to 1 - 2*h(Q), since the
    phase-error argument Q + S/(2*sqrt(2)) collapses to 1 - Q.
    """
    _check_qber(qber)
    _check_bell(s)
    phase = qber + s / S_MAX
    if not -1e-12 <= phase <= 1.0 + 1e-12:
        raise DomainError(f"phase-error entropy argument {phase} outside [0, 1]")
    phase = min(max(phase, 0.0), 1.0)
    return 1.0 - binary_entropy(qber) - binary_entropy(phase)


def dw_rate_di(qber: float, s: float) -> tuple[float, bool]:
    """Rate lower bound for DI-QKD, undefined without a CHSH violation.

    Returns ``(rate, defined)``.  For S <= 2 the adversary's penalty entropy
    saturates and no security claim exists, so ``defined`` is False and the
    rate slot carries the sentinel 0.0.
    """
    _check_qber(qber)
    _check_bell(s)
    if s <= 2.0:
        return 0.0, False
    # min() strips round-off above the Tsirelson bound before the entropy call
    excess = min((s / 2.0) ** 2 - 1.0, 1.0)
    eve_arg = (1.0 + math.sqrt(excess)) / 2.0
    return 1.0 - binary_entropy(qber) - binary_entropy(eve_arg), True


def key_rates(qber: float, s: float) -> KeyRates:
    """Both rate bounds bundled, with the DI-undefined sentinel applied."""
    di, defined = dw_rate_di(qber, s)
    return KeyRates(
        bb84=dw_rate_bb84(qber, s),
        di=di if defined else 0.0,
        di_defined=defined,
    )


def security_threshold(protocol: Protocol | str, tol: float = 1e-6) -> float:
    """Largest QBER with a positive rate along S = 2*sqrt(2)*(1 - 2*Q).

    Bisection on [0, 1/2]; the result is within ``tol`` of the true root,
    or within one float of it when ``tol`` is finer than the float spacing,
    and the rate is positive for every smaller error rate.
    """
    protocol = Protocol(protocol)
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
