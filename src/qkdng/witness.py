"""Non-Gaussianity coincidence criteria for SPAD and PNRD setups.

Both criteria compare the success-coincidence probability P_s against a
threshold curve in the error-coincidence probability P_e; detected light
exceeding the threshold cannot be any mixture of Gaussian states.  The
inequalities are strict, so a point exactly on the curve is not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of a witness test; ``margin`` is P_s minus the threshold."""

    passed: bool
    margin: float


def spad_threshold(p_e: float) -> float:
    """Largest Gaussian-compatible success probability at SPAD error rate ``p_e``."""
    if not 0.0 <= p_e <= 1.0:
        raise DomainError(f"p_e must lie in [0, 1], got {p_e}")
    root = math.sqrt(p_e * (8.0 + p_e))
    return 0.5 * math.sqrt(p_e / (8.0 + p_e)) * (2.0 + p_e + root)


def pnrd_threshold(p_e: float) -> float:
    """Largest Gaussian-compatible success probability at PNRD error rate ``p_e``."""
    if not 0.0 <= p_e <= 1.0:
        raise DomainError(f"p_e must lie in [0, 1], got {p_e}")
    return math.sqrt(p_e) - p_e


def evaluate(kind: DetectorKind, stats: CoincidenceStats) -> WitnessVerdict:
    """Apply the witness matching the detector type; passes only for margin > 0."""
    kind = DetectorKind(kind)
    if kind is DetectorKind.SPAD:
        threshold = spad_threshold(stats.p_e)
    else:
        threshold = pnrd_threshold(stats.p_e)
    margin = stats.p_s - threshold
    return WitnessVerdict(passed=margin > 0.0, margin=margin)


def witness_margin(kind: DetectorKind, p_s: np.ndarray, p_e: np.ndarray) -> np.ndarray:
    """Elementwise ``evaluate(kind, CoincidenceStats(p_s, p_e)).margin``, unchecked."""
    if kind is DetectorKind.SPAD:
        root = np.sqrt(p_e * (8.0 + p_e))
        return p_s - 0.5 * np.sqrt(p_e / (8.0 + p_e)) * (2.0 + p_e + root)
    return p_s - (np.sqrt(p_e) - p_e)
