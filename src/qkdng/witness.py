"""Non-Gaussianity coincidence criteria for SPAD and PNRD setups.

Both criteria compare the success-coincidence probability P_s against a
threshold curve in the error-coincidence probability P_e; detected light
exceeding the threshold cannot be any mixture of Gaussian states.  The
inequalities are strict, so a point exactly on the curve is not certified.
Each threshold has one body for floats and numpy arrays;
``photodetection._elementary`` gives it math's square root or numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import check_choice, check_range
from .photodetection import DetectorKind, _elementary


@dataclass(frozen=True)
class CoincidenceStats:
    """Success/error coincidence probabilities feeding a witness test."""

    p_s: float
    p_e: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_s", check_range("p_s", self.p_s, 0.0, 1.0))
        object.__setattr__(self, "p_e", check_range("p_e", self.p_e, 0.0, 1.0))


class WitnessVerdict(NamedTuple):
    """Outcome of a witness test; ``margin`` is P_s minus the threshold."""

    passed: bool
    margin: float


def _bound(kind: DetectorKind, p_e, scale):
    """The threshold on P_s at error rate ``scale``^2 ``p_e``, divided by ``scale``.

    SPAD: (1/2) sqrt(P_e / (8 + P_e)) (2 + P_e + sqrt(P_e (8 + P_e))); PNRD:
    sqrt(P_e) - P_e.  Each square root pulls out one factor of ``scale``, so
    ``p_e`` may be O(1) where P_e itself is subnormal.
    """
    sqrt = _elementary(p_e).sqrt
    if kind is DetectorKind.SPAD:
        u = scale * scale * p_e  # P_e
        return 0.5 * sqrt(p_e / (8.0 + u)) * (2.0 + u + scale * sqrt(p_e * (8.0 + u)))
    return sqrt(p_e) - scale * p_e


def spad_threshold(p_e: float) -> float:
    """Largest Gaussian-compatible success probability at SPAD error rate ``p_e``."""
    return _bound(DetectorKind.SPAD, check_range("p_e", p_e, 0.0, 1.0), 1.0)


def pnrd_threshold(p_e: float) -> float:
    """Largest Gaussian-compatible success probability at PNRD error rate ``p_e``."""
    return _bound(DetectorKind.PNRD, check_range("p_e", p_e, 0.0, 1.0), 1.0)


def evaluate(kind: DetectorKind, stats: CoincidenceStats, scale: float = 1.0) -> WitnessVerdict:
    """Apply the witness matching the detector type; passes only for margin > 0.

    ``stats`` may hold P_s and P_e divided by ``scale``^2, ``scale`` in [0, 1]
    (else ``DomainError``).  The margin P_s - threshold(P_e) is then computed as
    scale (scale p_s - threshold/scale), with threshold/scale taken from p_e,
    so its sign survives where P_s and P_e underflow.
    """
    scale = check_range("witness scale", scale, 0.0, 1.0)
    kind = check_choice("detector kind", DetectorKind, kind)
    margin = witness_margin(kind, stats.p_s, stats.p_e, scale)
    return WitnessVerdict(passed=margin > 0.0, margin=margin)


def witness_margin(kind: DetectorKind, p_s, p_e, scale=1.0):
    """P_s - threshold(P_e) from ``p_s`` and ``p_e`` divided by ``scale``^2, unchecked.

    ``evaluate``'s margin; elementwise when ``p_e`` is a numpy array.
    """
    return scale * (scale * p_s - _bound(kind, p_e, scale))
