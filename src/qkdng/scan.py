"""Boundary curves of the witness and security regions over the (T, noise) plane.

For each coupling transmittance the scan finds the largest noise mean at
which a criterion (non-Gaussianity witness, BB84 security, DI security)
still holds, by bisection under a single-crossing assumption: more noise
photons only ever degrade the link.  A protocol holds while Q <= Q*, and
``channels.noise_root`` solves Q = Q* for the noise mean in closed form.

Every bracket starts as [0, nu_cap] and halves until it is no wider than
``tol``, so all (T, criterion) brackets need the same ceil(log2(nu_cap/tol))
steps and advance in lock step; under a ``tol`` finer than the float
spacing a bracket ends once it is one float wide instead.  A security row
decides a midpoint by ``mid <= root``, replaying the bisection without a
model call.  ``channels.link_fields``, the model's array function for
either noise statistics, opens every bracket in one call: its (nu, T) array
holds nu = 0 and nu = nu_cap and, when the witness is scanned, the
witness bisection's first two levels of midpoints between them.  Those five
rows take the witness's first two decisions and check it for a second
crossing on every sweep.  From the third step on the witness row calls the
model once per step on a (1, T) array of midpoints, so a sweep costs
1 + steps - 2 calls.
Rounding can leave a bracket a hair wider or narrower than its neighbours;
each stops at its own width, as a scalar loop would.  ``max_noise`` is the
same code with one element; single-point verdicts (``indicator``,
``classify``) apply the same ``_holds`` rule to the scalar ``assess``.

The outcome stays in the shape it is computed in: a ``BoundaryCurve`` holds
one ``BoundaryColumn`` per criterion, tuples over the grid made with one
``.tolist()`` per array.  Per-point records (``curve.points``) are built
from those columns only when something asks for them.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channels import (
    ChannelConfig,
    LinkAssessment,
    NoiseModel,
    NoiseStatistics,
    assess,
    link_fields,
    noise_root,
)
from .errors import DomainError, check_choice, check_range
from .keyrates import Q_STAR_BB84, Q_STAR_DI
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
Q_STAR = {Criterion.BB84: Q_STAR_BB84, Criterion.DI: Q_STAR_DI}
_REGIONS = {(True, True): RegionLabel.SECURE_AND_NONGAUSS, (True, False): RegionLabel.SECURE_ONLY,
            (False, True): RegionLabel.NONGAUSS_ONLY, (False, False): RegionLabel.NEITHER}


def _items(name: str, what: str, value) -> tuple:
    """``value``'s items; a string, bytes or a non-iterable raise one ``DomainError``."""
    if not isinstance(value, (str, bytes, bytearray)):
        with suppress(TypeError):
            return tuple(value)
    raise DomainError(f"{name} must be a sequence of {what}, got {value!r}")


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics",
                           check_choice("noise statistics", NoiseStatistics, self.statistics))
        if not isinstance(self.detector, DetectorModel):
            raise DomainError(f"detector must be a DetectorModel, got {self.detector!r}")
        object.__setattr__(self, "p", check_range("Werner weight", self.p, 0.0, 1.0))
        grid = tuple(check_range("t_grid value", t, 0.0, 1.0)
                     for t in _items("t_grid", "transmittances", self.t_grid))
        object.__setattr__(self, "t_grid", grid)
        if not grid:
            raise DomainError("t_grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("t_grid must be strictly increasing")
        object.__setattr__(self, "nu_cap", check_range("nu_cap", self.nu_cap, 0.0, open_lo=True))
        object.__setattr__(self, "tol", check_range("tol", self.tol, 0.0, open_lo=True))
        criteria = tuple(check_choice("criterion", Criterion, c)
                         for c in _items("criteria", "criteria", self.criteria))
        object.__setattr__(self, "criteria", criteria)
        if not criteria or len(set(criteria)) != len(criteria):
            raise DomainError("criteria must be a nonempty set without duplicates")


class CriterionBoundary(NamedTuple):
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


class BoundaryPoint(NamedTuple):
    t: float
    bounds: dict[Criterion, CriterionBoundary]


class BoundaryColumn(NamedTuple):
    """One criterion's ``CriterionBoundary`` fields over the grid, one tuple each."""

    nu_star: tuple[float, ...]
    capped: tuple[bool, ...]
    undefined: tuple[bool, ...]
    monotone_warning: tuple[bool, ...]


@dataclass(frozen=True)
class BoundaryCurve:
    """Boundaries in grid order, one column per criterion, with what the search cost.

    ``columns[i]`` belongs to ``criteria[i]``.  Columns hold Python floats and
    bools, so curves compare with ``==``.  ``bisection_steps`` counts the
    lock-step halvings and ``evaluations`` the calls of the model's array
    function: one opening call plus one per witness step.
    """

    criteria: tuple[Criterion, ...]
    t_grid: tuple[float, ...]
    columns: tuple[BoundaryColumn, ...]
    bisection_steps: int
    evaluations: int

    def column(self, criterion: Criterion | str) -> BoundaryColumn:
        criterion = check_choice("criterion", Criterion, criterion)
        if criterion not in self.criteria:
            scanned = ", ".join(c.value for c in self.criteria)
            raise DomainError(f"criterion {criterion.value} was not scanned, only {scanned}")
        return self.columns[self.criteria.index(criterion)]

    @cached_property
    def points(self) -> tuple[BoundaryPoint, ...]:
        """The same boundaries as one record per grid transmittance, built once."""
        rows = zip(*(map(CriterionBoundary, *column) for column in self.columns))
        return tuple(
            BoundaryPoint(t=t, bounds=dict(zip(self.criteria, bounds)))
            for t, bounds in zip(self.t_grid, rows)
        )

    def t_values(self) -> np.ndarray:
        return np.array(self.t_grid)

    def nu_star(self, criterion: Criterion | str) -> np.ndarray:
        """Boundary values in grid order, NaN at undefined points."""
        column = self.column(criterion)
        return np.where(column.undefined, np.nan, column.nu_star)

    def capped(self, criterion: Criterion | str) -> np.ndarray:
        return np.array(self.column(criterion).capped)


def assess_point(config: ScanConfig, t: float, nu: float) -> LinkAssessment:
    """Evaluate the configured link at one (transmittance, noise-mean) point."""
    return assess(
        ChannelConfig(t=t, p=config.p),
        NoiseModel(statistics=config.statistics, nbar=nu),
        config.detector,
    )


def _holds(criterion: Criterion, defined, margin, q):
    """Whether the criterion holds, on floats or elementwise on arrays.

    The one rule for points and sweeps: the witness needs a positive margin,
    a protocol ``q <= Q*``; an undefined link satisfies neither.
    """
    if criterion == Criterion.NONGAUSS:
        return defined & (margin > 0.0)
    return defined & (q <= Q_STAR[criterion])


def indicator(criterion: Criterion | str, t: float, nu: float, config: ScanConfig) -> bool:
    """True when the criterion holds at (t, nu); undefined links count as False.

    Decided by the sweep's rule on the scalar ``assess``, as ``classify`` is;
    the sweep's security boundaries are roots of the same Q = Q*, so the two
    agree up to rounding.
    """
    criterion = check_choice("criterion", Criterion, criterion)
    a = assess_point(config, t, nu)
    return bool(_holds(criterion, a.coincidence_defined, a.witness.margin, a.q))


def max_noise(criterion: Criterion | str, t: float, config: ScanConfig) -> CriterionBoundary:
    """Largest noise mean at or below ``nu_cap`` where the criterion holds.

    A one-point ``sweep``: bisection to interval width ``tol``, returning the
    last point known to satisfy the criterion.  For the witness, the record's
    ``monotone_warning`` reports a second crossing seen in the opening rows.
    """
    curve = sweep(replace(config, t_grid=(t,), criteria=(criterion,)))
    return CriterionBoundary(*(values[0] for values in curve.columns[0]))


def sweep(config: ScanConfig) -> BoundaryCurve:
    """One boundary per (criterion, grid transmittance), as columns over the grid.

    All (t, criterion) brackets advance together.  One opening evaluation
    on a (nu, t) array decides every bracket's ends for all criteria: the
    noise means 0 and ``nu_cap``.  When the witness is scanned, its rows
    also hold the witness bisection's first two levels of midpoints, which
    decide its first two steps and, by any off-to-on flip across the five
    rows, set ``monotone_warning``.  After that only the witness costs
    evaluations, one per step while one of its brackets is open, so a sweep
    costs ``1 + steps - 2``.  A boundary is, in order of precedence:
    undefined (no coincidences at nu = 0), failing at nu = 0, capped (still
    holding at ``nu_cap``) or bisected.
    """
    criteria = config.criteria
    statistics, p, det = config.statistics, config.p, config.detector
    cap = config.nu_cap
    t = np.array(config.t_grid)
    w = criteria.index(Criterion.NONGAUSS) if Criterion.NONGAUSS in criteria else None
    # the floats the loop's midpoints take in its first two steps
    half = 0.5 * cap
    nus = np.array([0.0, cap] if w is None
                   else [0.0, 0.5 * half, half, 0.5 * half + 0.5 * cap, cap])
    opening = link_fields(statistics, t, nus[:, np.newaxis], p, det)
    flags = np.stack([_holds(criterion, *opening) for criterion in criteria])  # (c, nu, t)
    at_zero = flags[:, 0]
    capped = at_zero & flags[:, -1]
    evaluations = 1
    warning = np.zeros_like(at_zero)
    if w is not None:  # any off-to-on flip of the witness means multiple crossings
        warning[w] = at_zero[w] & (~flags[w, :-1] & flags[w, 1:]).any(axis=0)
        # its decisions at the first midpoint (row 2) and then at row 3 or row 1
        opened = (flags[w, 2], np.where(flags[w, 2], flags[w, 3], flags[w, 1]))
    # NaN in the witness row, whose midpoints are decided on the model
    root = np.stack([noise_root(statistics, t, Q_STAR[c], p, det)
                     if c in Q_STAR else np.full_like(t, np.nan) for c in criteria])
    # holds at lo, fails at hi; brackets decided without bisection start closed
    lo = np.zeros(at_zero.shape)
    hi = np.where(at_zero & ~capped, cap, 0.0)
    steps = 0
    mid = 0.5 * lo + 0.5 * hi  # not 0.5 * (lo + hi): that sum overflows near the float limit
    # a bracket one float wide has no midpoint inside it, however wide tol allows
    while (active := (hi - lo > config.tol) & (lo < mid) & (mid < hi)).any():
        ok = mid <= root
        if w is not None and steps < 2:
            ok[w] = opened[steps]
        elif w is not None and active[w].any():
            fields = link_fields(statistics, t, mid[w:w + 1], p, det)
            ok[w] = _holds(Criterion.NONGAUSS, *fields)[0]
            evaluations += 1
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
        mid = 0.5 * lo + 0.5 * hi
        steps += 1
    nu_star = np.where(capped, cap, lo)
    undefined = np.broadcast_to(~opening.defined[0], at_zero.shape)
    columns = tuple(
        BoundaryColumn(*map(tuple, fields))
        for fields in zip(nu_star.tolist(), capped.tolist(), undefined.tolist(),
                          warning.tolist())
    )
    return BoundaryCurve(
        criteria=criteria, t_grid=config.t_grid, columns=columns, bisection_steps=steps,
        evaluations=evaluations,
    )


def classify_assessment(assessment: LinkAssessment) -> dict[Criterion, RegionLabel]:
    """Region label per protocol: ``_REGIONS[secure, nongauss]``, each by the sweep's rule."""
    fields = (assessment.coincidence_defined, assessment.witness.margin, assessment.q)
    nongauss = _holds(Criterion.NONGAUSS, *fields)
    return {protocol: _REGIONS[_holds(protocol, *fields), nongauss] for protocol in PROTOCOLS}


def classify(t: float, nu: float, config: ScanConfig) -> dict[Criterion, RegionLabel]:
    """Classify one (transmittance, noise-mean) point for both protocols."""
    return classify_assessment(assess_point(config, t, nu))
