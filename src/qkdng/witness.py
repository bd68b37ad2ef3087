"""Non-Gaussianity coincidence criteria for SPAD and PNRD setups.

Both criteria compare the success-coincidence probability P_s against a
threshold curve in the error-coincidence probability P_e; detected light
exceeding the threshold cannot be any mixture of Gaussian states.  The
inequalities are strict, so a point exactly on the curve is not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_range
from .photodetection import DetectorKind


@dataclass(frozen=True)
class CoincidenceStats:
    """Success/error coincidence probabilities feeding a witness test."""

    p_s: float
    p_e: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_s <= 1.0:
            raise DomainError(f"p_s must lie in [0, 1], got {self.p_s}")
        if not 0.0 <= self.p_e <= 1.0:
            raise DomainError(f"p_e must lie in [0, 1], got {self.p_e}")


class WitnessVerdict(NamedTuple):
    """Outcome of a witness test; ``margin`` is P_s minus the threshold."""

    passed: bool
    margin: float


def _bound(kind: DetectorKind, p_e, scale):
    """The threshold on P_s at error rate ``scale``^2 ``p_e``, divided by ``scale``.

    SPAD: (1/2) sqrt(P_e / (8 + P_e)) (2 + P_e + sqrt(P_e (8 + P_e))); PNRD:
    sqrt(P_e) - P_e.  Each square root pulls out one factor of ``scale``, so
    ``p_e`` may be O(1) where P_e itself is subnormal.  Elementwise when
    ``p_e`` is a numpy array.
    """
    sqrt = np.sqrt if isinstance(p_e, np.ndarray) else math.sqrt
    if kind is DetectorKind.SPAD:
        u = scale * scale * p_e  # P_e
        return 0.5 * sqrt(p_e / (8.0 + u)) * (2.0 + u + scale * sqrt(p_e * (8.0 + u)))
    return sqrt(p_e) - scale * p_e


def _check_p_e(p_e: float) -> float:
    if not 0.0 <= p_e <= 1.0:
        raise DomainError(f"p_e must lie in [0, 1], got {p_e}")
    return p_e


def spad_threshold(p_e: float) -> float:
    """Largest Gaussian-compatible success probability at SPAD error rate ``p_e``."""
    return _bound(DetectorKind.SPAD, _check_p_e(p_e), 1.0)


def pnrd_threshold(p_e: float) -> float:
    """Largest Gaussian-compatible success probability at PNRD error rate ``p_e``."""
    return _bound(DetectorKind.PNRD, _check_p_e(p_e), 1.0)


def evaluate(kind: DetectorKind, stats: CoincidenceStats, scale: float = 1.0) -> WitnessVerdict:
    """Apply the witness matching the detector type; passes only for margin > 0.

    ``stats`` may hold P_s and P_e divided by ``scale``^2, ``scale`` in [0, 1]
    (else ``DomainError``).  The margin P_s - threshold(P_e) is then computed as
    scale (scale p_s - threshold/scale), with threshold/scale taken from p_e,
    so its sign survives where P_s and P_e underflow.
    """
    scale = check_range("witness scale", scale, 0.0, 1.0)
    margin = witness_margin(DetectorKind(kind), stats.p_s, stats.p_e, scale)
    return WitnessVerdict(passed=margin > 0.0, margin=margin)


def witness_margin(kind: DetectorKind, p_s, p_e, scale=1.0):
    """P_s - threshold(P_e) from ``p_s`` and ``p_e`` divided by ``scale``^2, unchecked.

    ``evaluate``'s margin; elementwise when ``p_e`` is a numpy array.
    """
    return scale * (scale * p_s - _bound(kind, p_e, scale))
