"""Boundary curves of the witness and security regions over the (T, noise) plane.

For each coupling transmittance the scan finds the largest noise mean at
which a criterion (non-Gaussianity witness, BB84 security, DI security)
still holds, by bisection under a single-crossing assumption: more noise
photons only ever degrade the link.  An optional coarse pre-probe flags
indicator patterns that violate that assumption instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import (
    ChannelConfig,
    LinkAssessment,
    NoiseModel,
    NoiseStatistics,
    assess,
)
from .errors import DomainError, check_range
from .photodetection import DetectorModel


class Criterion(str, Enum):
    NONGAUSS = "nongauss"
    BB84 = "bb84"
    DI = "di"


class RegionLabel(str, Enum):
    SECURE_AND_NONGAUSS = "SecureAndNonGauss"
    SECURE_ONLY = "SecureOnly"
    NONGAUSS_ONLY = "NonGaussOnly"
    NEITHER = "Neither"


ALL_CRITERIA = (Criterion.NONGAUSS, Criterion.BB84, Criterion.DI)
PROTOCOLS = (Criterion.BB84, Criterion.DI)


@dataclass(frozen=True)
class ScanConfig:
    """Sweep definition: channel settings plus the searched noise range."""

    t_grid: tuple[float, ...]
    statistics: NoiseStatistics
    detector: DetectorModel
    p: float = 1.0
    nu_cap: float = 10.0
    tol: float = 1e-4
    criteria: tuple[Criterion, ...] = ALL_CRITERIA
    probe_points: int = 0  # >= 3 enables the single-crossing pre-probe

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics", NoiseStatistics(self.statistics))
        grid = tuple(float(t) for t in self.t_grid)
        object.__setattr__(self, "t_grid", grid)
        if not grid:
            raise DomainError("t_grid must not be empty")
        for t in grid:
            check_range("t_grid value", t, 0.0, 1.0)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("t_grid must be strictly increasing")
        check_range("nu_cap", self.nu_cap, 0.0, open_lo=True)
        check_range("tol", self.tol, 0.0, open_lo=True)
        criteria = tuple(Criterion(c) for c in self.criteria)
        object.__setattr__(self, "criteria", criteria)
        if not criteria or len(set(criteria)) != len(criteria):
            raise DomainError("criteria must be a nonempty set without duplicates")


@dataclass(frozen=True)
class CriterionBoundary:
    """Largest tolerable noise mean for one criterion at one transmittance.

    ``capped`` means the criterion still held at ``nu_cap`` so the true
    boundary lies above it; ``undefined`` marks transmittances where the
    link produces no coincidences even without noise, leaving the boundary
    meaningless.
    """

    nu_star: float
    capped: bool
    undefined: bool
    monotone_warning: bool = False


@dataclass(frozen=True)
class BoundaryPoint:
    t: float
    bounds: dict[Criterion, CriterionBoundary]


@dataclass(frozen=True)
class BoundaryCurve:
    criteria: tuple[Criterion, ...]
    points: tuple[BoundaryPoint, ...]

    def t_values(self) -> np.ndarray:
        return np.array([point.t for point in self.points])

    def nu_star(self, criterion: Criterion | str) -> np.ndarray:
        """Boundary values in grid order, NaN at undefined points."""
        criterion = Criterion(criterion)
        return np.array([
            math.nan if point.bounds[criterion].undefined
            else point.bounds[criterion].nu_star
            for point in self.points
        ])

    def capped(self, criterion: Criterion | str) -> np.ndarray:
        criterion = Criterion(criterion)
        return np.array([point.bounds[criterion].capped for point in self.points])


def assess_point(config: ScanConfig, t: float, nu: float) -> LinkAssessment:
    """Evaluate the configured link at one (transmittance, noise-mean) point."""
    return assess(
        ChannelConfig(t=t, p=config.p),
        NoiseModel(statistics=config.statistics, nbar=nu),
        config.detector,
    )


def _holds(criterion: Criterion, assessment: LinkAssessment) -> bool:
    if not assessment.coincidence_defined:
        return False
    if criterion is Criterion.NONGAUSS:
        return assessment.witness.passed
    if criterion is Criterion.BB84:
        return assessment.rates.bb84 > 0.0
    return assessment.rates.di_defined and assessment.rates.di > 0.0


def indicator(criterion: Criterion | str, t: float, nu: float, config: ScanConfig) -> bool:
    """True when the criterion holds at (t, nu); undefined links count as False."""
    return _holds(Criterion(criterion), assess_point(config, t, nu))


def max_noise(criterion: Criterion | str, t: float, config: ScanConfig) -> CriterionBoundary:
    """Largest noise mean at or below ``nu_cap`` where the criterion holds.

    Bisection to interval width ``tol``, returning the last point known to
    satisfy the criterion.  Assumes a single true-to-false crossing in the
    noise mean; with ``probe_points`` >= 3 a coarse pre-probe checks the
    pattern and a violation is reported on the record, not raised.
    """
    criterion = Criterion(criterion)
    base = assess_point(config, t, 0.0)
    if not base.coincidence_defined:
        return CriterionBoundary(0.0, capped=False, undefined=True)
    if not _holds(criterion, base):
        return CriterionBoundary(0.0, capped=False, undefined=False)
    warning = False
    if config.probe_points >= 3:
        flags = [
            indicator(criterion, t, nu, config)
            for nu in np.linspace(0.0, config.nu_cap, config.probe_points)
        ]
        pattern = "".join("1" if flag else "0" for flag in flags)
        warning = "01" in pattern  # any off-to-on flip means multiple crossings
    if indicator(criterion, t, config.nu_cap, config):
        return CriterionBoundary(
            config.nu_cap, capped=True, undefined=False, monotone_warning=warning
        )
    lo, hi = 0.0, config.nu_cap  # holds at lo, fails at hi
    while hi - lo > config.tol:
        mid = 0.5 * (lo + hi)
        if indicator(criterion, t, mid, config):
            lo = mid
        else:
            hi = mid
    return CriterionBoundary(lo, capped=False, undefined=False, monotone_warning=warning)


def sweep(config: ScanConfig) -> BoundaryCurve:
    """One boundary record per grid transmittance, ordered by the grid.

    Every (t, criterion) search is independent of the others; evaluation is
    sequential, so output order and content are deterministic.
    """
    points = []
    for t in config.t_grid:
        bounds = {criterion: max_noise(criterion, t, config) for criterion in config.criteria}
        points.append(BoundaryPoint(t=t, bounds=bounds))
    return BoundaryCurve(criteria=config.criteria, points=tuple(points))


def classify_assessment(assessment: LinkAssessment) -> dict[Criterion, RegionLabel]:
    """Region label per protocol from the witness and security indicators."""
    nongauss = _holds(Criterion.NONGAUSS, assessment)
    labels: dict[Criterion, RegionLabel] = {}
    for protocol in PROTOCOLS:
        secure = _holds(protocol, assessment)
        if secure and nongauss:
            label = RegionLabel.SECURE_AND_NONGAUSS
        elif secure:
            label = RegionLabel.SECURE_ONLY
        elif nongauss:
            label = RegionLabel.NONGAUSS_ONLY
        else:
            label = RegionLabel.NEITHER
        labels[protocol] = label
    return labels


def classify(t: float, nu: float, config: ScanConfig) -> dict[Criterion, RegionLabel]:
    """Classify one (transmittance, noise-mean) point for both protocols."""
    return classify_assessment(assess_point(config, t, nu))
