"""Boundary curves of the witness and security regions over the (T, noise) plane.

For each coupling transmittance the scan finds the largest noise mean at
which a criterion (non-Gaussianity witness, BB84 security, DI security)
still holds, by bisection under a single-crossing assumption: more noise
photons only ever degrade the link.  An optional coarse pre-probe flags
indicator patterns that violate that assumption instead of failing.

Every bracket starts as [0, nu_cap] and halves until it is no wider than
``tol``, so all (T, criterion) brackets need the same ceil(log2(nu_cap/tol))
steps and advance in lock step: each step is one call of the model's array
function (``thermal_fields`` or ``poisson_fields``) on a (criteria, T) array
of midpoints.  Rounding can leave a bracket a hair wider or narrower than
its neighbours; each stops at its own width, as a scalar loop would.
Single points (``indicator``, ``max_noise``) go through the same code with
one element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channels import (
    ChannelConfig,
    LinkAssessment,
    LinkFields,
    NoiseModel,
    NoiseStatistics,
    assess,
    check_pairing,
    poisson_fields,
    thermal_fields,
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

# a pre-probe is a coarse check; its arrays grow with probe_points times the grid
MAX_PROBE_POINTS = 1000


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
    probe_points: int = 0  # 3 to MAX_PROBE_POINTS enables the single-crossing pre-probe

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics", NoiseStatistics(self.statistics))
        check_pairing(self.statistics, self.detector.kind)
        check_range("Werner weight", self.p, 0.0, 1.0)
        probe = self.probe_points
        if isinstance(probe, bool) or not isinstance(probe, int) or not (
            probe == 0 or 3 <= probe <= MAX_PROBE_POINTS
        ):
            raise DomainError(
                f"probe_points must be 0 (off) or an integer in [3, {MAX_PROBE_POINTS}], "
                f"got {probe!r}"
            )
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
    """Boundary records in grid order, with what the search cost.

    ``bisection_steps`` counts the lock-step halvings and ``evaluations`` the
    calls of the model's array function, bisection steps included.
    """

    criteria: tuple[Criterion, ...]
    points: tuple[BoundaryPoint, ...]
    bisection_steps: int
    evaluations: int

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


def _evaluate(config: ScanConfig, t, nu) -> LinkFields:
    model = thermal_fields if config.statistics is NoiseStatistics.THERMAL else poisson_fields
    return model(t, nu, config.p, config.detector)


def _holds_array(criterion: Criterion, fields: LinkFields) -> np.ndarray:
    """Elementwise ``_holds`` on the fields of the array models."""
    if criterion is Criterion.NONGAUSS:
        passed = fields.margin > 0.0
    elif criterion is Criterion.BB84:
        passed = fields.bb84 > 0.0
    else:
        passed = fields.di_defined & (fields.di > 0.0)
    return fields.defined & passed


def indicator(criterion: Criterion | str, t: float, nu: float, config: ScanConfig) -> bool:
    """True when the criterion holds at (t, nu); undefined links count as False.

    Decided on the array model the sweep uses, so it agrees with every
    boundary the sweep reports.
    """
    t = check_range("coupling transmittance", t, 0.0, 1.0)
    nu = check_range("noise mean", nu, 0.0)
    fields = _evaluate(config, np.float64(t), np.float64(nu))
    return bool(_holds_array(Criterion(criterion), fields))


def max_noise(criterion: Criterion | str, t: float, config: ScanConfig) -> CriterionBoundary:
    """Largest noise mean at or below ``nu_cap`` where the criterion holds.

    A one-point ``sweep``: bisection to interval width ``tol``, returning the
    last point known to satisfy the criterion.  Assumes a single
    true-to-false crossing in the noise mean; with ``probe_points`` >= 3 a
    coarse pre-probe checks the pattern and a violation is reported on the
    record, not raised.
    """
    criterion = Criterion(criterion)
    curve = sweep(replace(config, t_grid=(t,), criteria=(criterion,)))
    return curve.points[0].bounds[criterion]


def sweep(config: ScanConfig) -> BoundaryCurve:
    """One boundary record per grid transmittance, ordered by the grid.

    All (t, criterion) brackets advance together: the noise means 0 and
    ``nu_cap`` are evaluated once per t and shared by the criteria, the
    optional pre-probe is one more evaluation, and each bisection step is one
    evaluation of a (criteria, t) array of midpoints.  A record is, in order
    of precedence: undefined (no coincidences at nu = 0), failing at nu = 0,
    capped (still holding at ``nu_cap``) or bisected.
    """
    criteria = config.criteria
    t = np.array(config.t_grid)

    def holds(fields: LinkFields) -> np.ndarray:
        return np.stack([_holds_array(criterion, fields) for criterion in criteria])

    base = _evaluate(config, t, np.zeros_like(t))
    at_zero = holds(base)
    capped = at_zero & holds(_evaluate(config, t, np.full_like(t, config.nu_cap)))
    evaluations = 2
    warning = np.zeros_like(at_zero)
    if config.probe_points:
        grid = np.linspace(0.0, config.nu_cap, config.probe_points)[:, np.newaxis]
        flags = holds(_evaluate(config, t, grid))  # (criteria, probe, t)
        # any off-to-on flip means multiple crossings
        warning = at_zero & (~flags[:, :-1] & flags[:, 1:]).any(axis=1)
        evaluations += 1
    # holds at lo, fails at hi; brackets decided without bisection start closed
    lo = np.zeros(at_zero.shape)
    hi = np.where(at_zero & ~capped, config.nu_cap, 0.0)
    steps = 0
    while (active := hi - lo > config.tol).any():
        mid = 0.5 * (lo + hi)
        fields = _evaluate(config, t, mid)
        ok = np.stack([_holds_array(c, fields)[k] for k, c in enumerate(criteria)])
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
        steps += 1
    nu_star = np.where(capped, config.nu_cap, lo)
    undefined = np.broadcast_to(~base.defined, at_zero.shape)
    rows = [
        [
            CriterionBoundary(nu, capped=cap, undefined=undef, monotone_warning=warn)
            for nu, cap, undef, warn in zip(*columns)
        ]
        for columns in zip(nu_star.tolist(), capped.tolist(), undefined.tolist(),
                           warning.tolist())
    ]
    points = tuple(
        BoundaryPoint(t=t_value, bounds=dict(zip(criteria, bounds)))
        for t_value, bounds in zip(config.t_grid, zip(*rows))
    )
    return BoundaryCurve(
        criteria=criteria, points=points, bisection_steps=steps,
        evaluations=evaluations + steps,
    )


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
