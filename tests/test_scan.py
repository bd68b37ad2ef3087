import math

import numpy as np
import pytest

import qkdng.scan
from qkdng.channels import LinkFields, NoiseStatistics
from qkdng.errors import DomainError
from qkdng.keyrates import Q_STAR_BB84, Q_STAR_DI, bell_from_qber, key_rates
from qkdng.photodetection import DetectorKind, DetectorModel
from qkdng.scan import (
    ALL_CRITERIA,
    BoundaryPoint,
    Criterion,
    CriterionBoundary,
    RegionLabel,
    ScanConfig,
    _holds,
    assess_point,
    classify,
    classify_assessment,
    indicator,
    max_noise,
    sweep,
)

PERFECT_PNRD = DetectorModel(DetectorKind.PNRD)
LOSSY_PNRD = DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001)


def thermal_config(det=PERFECT_PNRD, p=1.0, nu_cap=2.0, tol=1e-3, t_grid=(0.5,), **kw):
    return ScanConfig(
        t_grid=t_grid,
        statistics=NoiseStatistics.THERMAL,
        detector=det,
        p=p,
        nu_cap=nu_cap,
        tol=tol,
        **kw,
    )


class TestIndicator:
    def test_decoupled_noise_secure(self):
        config = thermal_config(nu_cap=10.0)
        assert indicator(Criterion.BB84, 1.0, 10.0, config)

    def test_high_qber_kills_di(self):
        # Q(T=0.5, nu=1) = 4/9 leaves no CHSH violation at all
        config = thermal_config()
        assert not indicator(Criterion.DI, 0.5, 1.0, config)

    def test_reference_point_fails_witness(self):
        config = thermal_config()
        assert not indicator(Criterion.NONGAUSS, 0.5, 1.0, config)

    def test_undefined_counts_as_false(self):
        config = thermal_config()
        assert not indicator(Criterion.BB84, 0.0, 0.0, config)


class TestMaxNoise:
    def test_capped_branch(self):
        config = thermal_config()
        bound = max_noise(Criterion.BB84, 1.0, config)
        assert bound.capped
        assert bound.nu_star == config.nu_cap
        assert not bound.undefined

    def test_dead_channel(self):
        # p=0.5 pins the QBER at 0.25, above the BB84 threshold already at nu=0
        config = thermal_config(p=0.5)
        bound = max_noise(Criterion.BB84, 0.8, config)
        assert bound.nu_star == 0.0
        assert not bound.capped
        assert not bound.undefined

    def test_undefined_channel(self):
        config = thermal_config()
        bound = max_noise(Criterion.BB84, 0.0, config)
        assert bound.undefined
        assert bound.nu_star == 0.0

    def test_bisection_matches_dense_grid(self):
        config = thermal_config(tol=1e-4, nu_cap=2.0)
        bound = max_noise(Criterion.BB84, 0.6, config)
        assert not bound.capped
        # independent localisation: coarse bracket, then an exhaustive
        # 1e-4-step grid walk inside it
        coarse = np.arange(0.0, 2.0 + 0.05, 0.05)
        flags = [indicator(Criterion.BB84, 0.6, nu, config) for nu in coarse]
        last_true = max(i for i, f in enumerate(flags) if f)
        assert not flags[last_true + 1]
        fine = coarse[last_true] + 1e-4 * np.arange(0, 502)
        fine_last = coarse[last_true]
        for nu in fine:
            if nu > 2.0:
                break
            if indicator(Criterion.BB84, 0.6, nu, config):
                fine_last = nu
            else:
                break
        assert bound.nu_star == pytest.approx(fine_last, abs=2e-4)

    def test_probe_does_not_disturb_result(self):
        # the witness's first two decisions come from the opening rows: the
        # boundary is still the one a plain scalar bisection finds
        config = thermal_config()
        bound = max_noise(Criterion.NONGAUSS, 0.6, config)
        assert 0.0 < bound.nu_star < config.nu_cap
        assert bound == scalar_max_noise(Criterion.NONGAUSS, 0.6, config)
        assert not bound.monotone_warning

    def test_boundary_sits_at_security_threshold(self):
        # at the BB84 boundary the QBER must equal the protocol threshold
        from qkdng.channels import ChannelConfig, NoiseModel, assess
        from qkdng.keyrates import security_threshold

        config = thermal_config(tol=1e-4, nu_cap=2.0)
        bound = max_noise(Criterion.BB84, 0.8, config)
        at_boundary = assess(
            ChannelConfig(t=0.8, p=1.0),
            NoiseModel(NoiseStatistics.THERMAL, bound.nu_star),
            PERFECT_PNRD,
        )
        assert at_boundary.q == pytest.approx(security_threshold("bb84"), abs=5e-4)

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_indicator_consistent_with_boundary(self, criterion):
        config = thermal_config(tol=1e-4, nu_cap=2.0)
        bound = max_noise(criterion, 0.7, config)
        assert not bound.capped
        assert indicator(criterion, 0.7, bound.nu_star - config.tol, config)
        assert not indicator(criterion, 0.7, bound.nu_star + 2 * config.tol, config)


class TestSweep:
    def test_single_point_grid(self):
        curve = sweep(thermal_config(t_grid=(0.7,)))
        assert len(curve.points) == 1
        assert curve.points[0].t == 0.7

    def test_criteria_order_does_not_matter(self):
        forward = sweep(thermal_config(t_grid=(0.4, 0.7), criteria=ALL_CRITERIA))
        backward = sweep(thermal_config(t_grid=(0.4, 0.7), criteria=ALL_CRITERIA[::-1]))
        for criterion in ALL_CRITERIA:
            assert np.array_equal(forward.nu_star(criterion), backward.nu_star(criterion))

    def test_repeat_runs_identical(self):
        config = thermal_config(t_grid=(0.45, 0.75))
        assert sweep(config) == sweep(config)

    def test_security_nesting(self):
        curve = sweep(thermal_config(t_grid=(0.4, 0.6, 0.8), tol=1e-4))
        bb84 = curve.nu_star(Criterion.BB84)
        di = curve.nu_star(Criterion.DI)
        assert np.all(bb84 >= di - 2e-4)

    def test_undefined_point_surfaces_as_nan(self):
        curve = sweep(thermal_config(t_grid=(0.0, 0.5)))
        values = curve.nu_star(Criterion.BB84)
        assert math.isnan(values[0])
        assert values[1] > 0.0


# records the per-record sweep built before results became columns, as
# (nu_star, capped, undefined, monotone_warning) per criterion in DI, NONGAUSS,
# BB84 order, on t_grid (0, 0.3, 0.8, 1) with eta 0.7, nu_cap 3, tol 1e-4
RECORDED = {
    (NoiseStatistics.THERMAL, 0.0): (
        [(0.0, False, True, False)] * 3,
        [(0.02142333984375, False, False, False), (0.010528564453125, False, False, False),
         (0.035064697265625, False, False, False)],
        [(0.329864501953125, False, False, False), (0.721527099609375, False, False, False),
         (0.51654052734375, False, False, False)],
        [(3.0, True, False, False)] * 3,
    ),
    (NoiseStatistics.POISSON, 0.001): (
        [(0.0, False, False, False)] * 3,
        [(0.019775390625, False, False, False), (0.0106201171875, False, False, False),
         (0.034149169921875, False, False, False)],
        [(0.367034912109375, False, False, False), (1.57708740234375, False, False, False),
         (0.62109375, False, False, False)],
        [(3.0, True, False, False)] * 3,
    ),
}


class TestColumns:
    """The sweep's columns, and the per-point records built from them on request."""

    @staticmethod
    def recorded_config(statistics, dark):
        kind = DetectorKind.PNRD if statistics is NoiseStatistics.THERMAL else DetectorKind.SPAD
        return ScanConfig(
            t_grid=(0.0, 0.3, 0.8, 1.0), statistics=statistics,
            detector=DetectorModel(kind, eta=0.7, dark=dark), nu_cap=3.0, tol=1e-4,
            criteria=(Criterion.DI, Criterion.NONGAUSS, Criterion.BB84),
        )

    @pytest.mark.parametrize("statistics,dark", list(RECORDED))
    def test_points_equal_recorded_records(self, statistics, dark):
        config = self.recorded_config(statistics, dark)
        expected = tuple(
            BoundaryPoint(t=t, bounds={c: CriterionBoundary(*record)
                                       for c, record in zip(config.criteria, records)})
            for t, records in zip(config.t_grid, RECORDED[statistics, dark])
        )
        curve = sweep(config)
        assert curve.points == expected
        assert [list(point.bounds) for point in curve.points] == [list(config.criteria)] * 4

    def test_columns_hold_python_values(self):
        curve = sweep(self.recorded_config(NoiseStatistics.THERMAL, 0.0))
        assert curve.t_grid == (0.0, 0.3, 0.8, 1.0)
        assert len(curve.columns) == 3
        for column in curve.columns:
            assert all(type(values) is tuple and len(values) == 4 for values in column)
            assert all(type(x) is float for x in column.nu_star)
            for flags in column[1:]:
                assert all(type(flag) is bool for flag in flags)
        assert curve.column("bb84") is curve.columns[2]

    def test_points_cached_outside_equality(self):
        config = self.recorded_config(NoiseStatistics.POISSON, 0.001)
        first, second = sweep(config), sweep(config)
        assert first.points is first.points
        assert first == second  # one built its records, the other did not

    def test_array_views_read_the_columns(self):
        curve = sweep(self.recorded_config(NoiseStatistics.THERMAL, 0.0))
        assert curve.t_values().tolist() == [0.0, 0.3, 0.8, 1.0]
        nu = curve.nu_star(Criterion.BB84)
        assert math.isnan(nu[0]) and nu[1:].tolist() == [0.035064697265625, 0.51654052734375, 3.0]
        assert curve.capped("bb84").tolist() == [False, False, False, True]


def holds_at(criterion, a):
    """The sweep's decision rule applied to a scalar ``assess`` outcome."""
    return _holds(criterion, a.coincidence_defined, a.witness.margin, a.q)


def opening_rows(nu_cap):
    """0, the scalar bisection's first two levels of midpoints, and ``nu_cap``."""
    half = 0.5 * 0.0 + 0.5 * nu_cap
    return 0.0, 0.5 * 0.0 + 0.5 * half, half, 0.5 * half + 0.5 * nu_cap, nu_cap


def bisect(holds, nu_cap, tol):
    """Last point known to hold of a scalar bisection on [0, nu_cap], the sweep's midpoints."""
    lo, hi = 0.0, nu_cap
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def scalar_max_noise(criterion, t, config):
    """The per-(t, criterion) scalar bisection on ``assess``: the sweep's oracle."""

    def holds(nu):
        return holds_at(criterion, assess_point(config, t, nu))

    base = assess_point(config, t, 0.0)
    if not base.coincidence_defined:
        return CriterionBoundary(0.0, capped=False, undefined=True)
    if not holds_at(criterion, base):
        return CriterionBoundary(0.0, capped=False, undefined=False)
    warning = False
    if criterion is Criterion.NONGAUSS:  # an off-to-on flip across the opening rows
        pattern = "".join("1" if holds(nu) else "0" for nu in opening_rows(config.nu_cap))
        warning = "01" in pattern
    if holds(config.nu_cap):
        return CriterionBoundary(
            config.nu_cap, capped=True, undefined=False, monotone_warning=warning
        )
    lo = bisect(holds, config.nu_cap, config.tol)
    return CriterionBoundary(lo, capped=False, undefined=False, monotone_warning=warning)


ORACLE_GRID = (0.0, 0.05, 0.3, 0.55, 0.8, 0.97, 1.0)  # 0 undefined, 1 capped


def oracle_config(statistics, dark=0.0, **kw):
    kind = DetectorKind.PNRD if statistics is NoiseStatistics.THERMAL else DetectorKind.SPAD
    settings = dict(t_grid=ORACLE_GRID, statistics=statistics,
                    detector=DetectorModel(kind, eta=0.7, dark=dark), nu_cap=3.0, tol=1e-4)
    settings.update(kw)
    return ScanConfig(**settings)


class TestSweepOracle:
    @pytest.mark.parametrize("statistics", list(NoiseStatistics))
    @pytest.mark.parametrize("settings", [
        {},
        {"dark": 0.001},
        {"p": 0.5},  # dead channel: no key at nu = 0
        {"p": 0.97},
        {"criteria": (Criterion.DI, Criterion.NONGAUSS)},
        {"criteria": (Criterion.NONGAUSS, Criterion.DI)},
        {"criteria": (Criterion.BB84,), "nu_cap": 0.7, "tol": 3e-5},
    ])
    def test_sweep_equals_scalar_bisection(self, statistics, settings):
        config = oracle_config(statistics, **settings)
        curve = sweep(config)
        assert [point.t for point in curve.points] == list(config.t_grid)
        for point in curve.points:
            assert list(point.bounds) == list(config.criteria)
            for criterion, bound in point.bounds.items():
                assert bound == scalar_max_noise(criterion, point.t, config)
                assert type(bound.nu_star) is float and type(bound.capped) is bool
                assert type(bound.undefined) is bool
                assert type(bound.monotone_warning) is bool

    def test_oracle_grid_covers_every_outcome(self):
        bounds = [b for statistics in NoiseStatistics
                  for point in sweep(oracle_config(statistics)).points
                  for b in point.bounds.values()]
        assert any(b.undefined for b in bounds)
        assert any(b.capped for b in bounds)
        assert any(0.0 < b.nu_star < 3.0 for b in bounds)
        dead = sweep(oracle_config(NoiseStatistics.THERMAL, p=0.5)).points
        assert all(point.bounds[c].nu_star == 0.0 and not point.bounds[c].undefined
                   for point in dead[1:] for c in (Criterion.BB84, Criterion.DI))

    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.parametrize("t", [0.0, 0.6, 1.0])
    def test_max_noise_equals_scalar_bisection(self, criterion, t):
        config = oracle_config(NoiseStatistics.THERMAL)
        assert max_noise(criterion, t, config) == scalar_max_noise(criterion, t, config)


    @pytest.mark.filterwarnings("error")
    def test_poisson_sweep_past_exp_overflow(self):
        # e^(d_eff) would overflow from nu ~ 1000; the model is written in
        # e^(-d_eff) and decides without a warning: at T = 0.5 nothing holds
        config = oracle_config(NoiseStatistics.POISSON, t_grid=(0.5, 1.0), nu_cap=1000.0,
                               tol=1e-3)
        assert not indicator(Criterion.BB84, 0.5, 900.0, config)
        low, decoupled = sweep(config).points
        assert all(0.0 < b.nu_star < 10.0 and not b.monotone_warning
                   for b in low.bounds.values())
        assert decoupled.bounds[Criterion.BB84].capped


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@pytest.mark.parametrize("eta,dark,p", [(0.7, 0.0, 0.0), (0.0, 0.01, 1.0), (1.0, 1.0, 1.0),
                                        (1.0, 0.0, 1.0)])
def test_unread_security_roots_stay_quiet(statistics, eta, dark, p):
    # T = 0 and 1, p = 0, eta = 0 or a dark rate that kills the key make the
    # closed-form roots NaN, infinite or negative: the sweep decides those
    # boundaries at nu = 0 or nu_cap, warns about nothing, and matches the oracle
    kind = DetectorKind.PNRD if statistics is NoiseStatistics.THERMAL else DetectorKind.SPAD
    config = ScanConfig(t_grid=(0.0, 0.5, 1.0), statistics=statistics,
                        detector=DetectorModel(kind, eta=eta, dark=dark), p=p, nu_cap=3.0,
                        criteria=(Criterion.BB84, Criterion.DI))
    for point in sweep(config).points:
        for criterion, bound in point.bounds.items():
            assert bound == scalar_max_noise(criterion, point.t, config)


class TestSweepCost:
    """One opening evaluation, then one per witness step from the third, whatever the grid size.

    The opening call decides nu = 0, nu = nu_cap and, when the witness is
    scanned, its first two bisection levels; security boundaries come from
    the closed-form roots and cost nothing more.
    """

    @staticmethod
    def count_calls(monkeypatch, statistics):
        real = qkdng.scan.link_fields
        calls = []

        def counted(*args):
            assert args[0] is statistics
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qkdng.scan, "link_fields", counted)
        return calls

    @pytest.mark.parametrize("statistics", list(NoiseStatistics))
    @pytest.mark.parametrize("points", [1, 7, 40])
    # nu_cap 2 * 10**decades: at 2e9 the witness already fails at both first-level rows
    @pytest.mark.parametrize("decades", [0, 9])
    def test_evaluations_per_sweep(self, monkeypatch, statistics, points, decades):
        calls = self.count_calls(monkeypatch, statistics)
        config = oracle_config(statistics, t_grid=tuple(np.linspace(0.3, 0.9, points)),
                               nu_cap=2.0 * 10**decades, tol=1e-3)
        curve = sweep(config)
        steps = math.ceil(math.log2(config.nu_cap / config.tol))  # 11 or 41
        assert curve.bisection_steps == steps
        # the opening call decides the first two steps
        assert len(calls) == curve.evaluations == 1 + steps - 2
        assert np.shape(calls[0][2]) == (5, 1)
        assert calls[0][2][:, 0].tolist() == list(opening_rows(config.nu_cap))
        # each later step hands the model the witness row alone
        assert [np.shape(nu) for _, _, nu, _, _ in calls[1:]] == [(1, points)] * (steps - 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu_cap", [0.3, 1e6, 1.7e308])
    def test_opening_rows_are_the_loop_midpoints(self, monkeypatch, nu_cap):
        # the loop's own arithmetic, 0.5 * lo + 0.5 * hi on float64 arrays; it
        # stays finite at 1.7e308, where 0.5 * (lo + hi) would overflow
        half = 0.5 * np.zeros(1) + 0.5 * nu_cap
        lower, upper = 0.5 * 0.0 + 0.5 * half, 0.5 * half + 0.5 * nu_cap
        calls = self.count_calls(monkeypatch, NoiseStatistics.THERMAL)
        sweep(thermal_config(t_grid=(0.5, 0.9), nu_cap=nu_cap, criteria=(Criterion.NONGAUSS,)))
        rows = calls[0][2][:, 0].tolist()
        assert [x.hex() for x in rows] == [x.hex() for x in (
            0.0, lower[0], half[0], upper[0], nu_cap)]

    @pytest.mark.parametrize("nu_cap", [0.3, 1e6, 1.7e308])
    def test_rows_decide_the_first_two_steps(self, monkeypatch, nu_cap):
        # a witness that fails from c on, with c in each gap between the rows:
        # the sweep takes its first two decisions from the rows and still ends
        # where a scalar bisection on the predicate ends
        tol = nu_cap / 2**6
        for c in (0.1 * nu_cap, 0.3 * nu_cap, 0.6 * nu_cap, 0.9 * nu_cap):
            monkeypatch.setattr(qkdng.scan, "link_fields",
                                fake_fields(lambda t, nu, c=c: nu <= c))
            bound = max_noise(Criterion.NONGAUSS, 0.5,
                              thermal_config(nu_cap=nu_cap, tol=tol))
            lo = bisect(lambda nu, c=c: nu <= c, nu_cap, tol)
            assert bound == CriterionBoundary(lo, capped=False, undefined=False)

    @pytest.mark.filterwarnings("error")
    def test_midpoints_near_the_float_limit(self, monkeypatch):
        # a witness holding up to 1e308 under nu_cap 1.7e308: once lo passes
        # nu_cap / 2, the sum lo + hi overflows, its halves do not
        nu_cap, tol = 1.7e308, 1.7e308 / 2**40
        monkeypatch.setattr(qkdng.scan, "link_fields", fake_fields(lambda t, nu: nu <= 1e308))
        config = thermal_config(t_grid=(0.3, 0.6), nu_cap=nu_cap, tol=tol,
                                criteria=(Criterion.NONGAUSS,))
        lo = bisect(lambda nu: nu <= 1e308, nu_cap, tol)
        assert 1e308 - tol <= lo <= 1e308
        for point in sweep(config).points:
            assert point.bounds[Criterion.NONGAUSS] == CriterionBoundary(
                lo, capped=False, undefined=False)

    @pytest.mark.parametrize("statistics", list(NoiseStatistics))
    def test_security_sweep_evaluates_only_the_ends(self, monkeypatch, statistics):
        calls = self.count_calls(monkeypatch, statistics)
        config = oracle_config(statistics, criteria=(Criterion.BB84, Criterion.DI))
        curve = sweep(config)
        assert curve.bisection_steps == math.ceil(math.log2(config.nu_cap / config.tol))
        assert any(0.0 < nu < config.nu_cap for column in curve.columns
                   for nu in column.nu_star)  # open brackets were bisected
        assert len(calls) == curve.evaluations == 1
        assert calls[0][2][:, 0].tolist() == [0.0, config.nu_cap]  # no witness rows

    def test_no_bisection_without_an_open_bracket(self, monkeypatch):
        # every boundary is undefined, dead or capped: nothing left to halve
        calls = self.count_calls(monkeypatch, NoiseStatistics.THERMAL)
        curve = sweep(oracle_config(NoiseStatistics.THERMAL, t_grid=(0.0, 1.0),
                                    criteria=(Criterion.BB84,)))
        assert curve.bisection_steps == 0
        assert len(calls) == curve.evaluations == 1


@pytest.mark.parametrize("statistics", list(NoiseStatistics))
@pytest.mark.parametrize("kind", list(DetectorKind))
def test_probe_leaves_boundaries_alone(statistics, kind):
    # the opening rows decide the witness's first two steps and check it for
    # a second crossing: every pairing's boundaries, caps, undefined points
    # and warnings are those of the scalar bisection
    config = ScanConfig(t_grid=tuple(np.linspace(0.0, 1.0, 41)), statistics=statistics,
                        detector=DetectorModel(kind, eta=0.7), nu_cap=3.0, tol=1e-4)
    curve = sweep(config)
    for point in curve.points:
        for criterion, bound in point.bounds.items():
            assert bound == scalar_max_noise(criterion, point.t, config)
    witness = curve.column(Criterion.NONGAUSS)
    assert witness.undefined[0]  # T = 0 without dark counts has no coincidences
    assert any(0.0 < nu < config.nu_cap for nu in witness.nu_star)  # and some are bisected


def fake_fields(witness, bb84=lambda t, nu: False, di=lambda t, nu: False):
    """Model whose criteria hold exactly where the given predicates of (t, nu) do.

    Security is faked through ``q``: 0 where DI holds, ``Q_STAR_BB84`` where
    only BB84 does and 1/2 elsewhere, so ``di`` must imply ``bb84``.
    """

    def fields(statistics, t, nu, p, det):
        t, nu = np.broadcast_arrays(t, nu)
        q = np.where(di(t, nu), 0.0, np.where(bb84(t, nu), Q_STAR_BB84, 0.5))
        return LinkFields(defined=np.ones(nu.shape, dtype=bool),
                          margin=np.where(witness(t, nu), 1.0, -1.0), q=q)

    return fields


# several crossings: the witness holds on [0, 0.3] and [0.9, 1.5], BB84 on
# [0, 0.5] and from 1 on, DI from 1.9 on; with nu_cap 2 the opening rows
# 0, 0.5, 1, 1.5, 2 see the witness off at 0.5 and on again at 1
def banded_bb84(t, nu):
    return (nu <= 0.5) | (nu >= 1.0)


banded_fields = fake_fields(
    lambda t, nu: (nu <= 0.3) | ((nu >= 0.9) & (nu <= 1.5)),
    banded_bb84,
    lambda t, nu: nu >= 1.9,
)

# with nu_cap 2, the witness fails only around nu_cap / 2
notched_fields = fake_fields(lambda t, nu: np.abs(nu - 1.0) > 0.25)


class TestMonotoneProbe:
    """Every witness sweep checks its opening rows for an off-to-on flip."""

    def test_probe_flags_multiple_crossings(self, monkeypatch):
        monkeypatch.setattr(qkdng.scan, "link_fields", banded_fields)
        config = thermal_config(t_grid=(0.3, 0.6), tol=1e-4)
        for point in sweep(config).points:
            witness, bb84, di = (point.bounds[c] for c in ALL_CRITERIA)
            assert witness.monotone_warning and not witness.capped
            assert witness.nu_star == pytest.approx(1.5, abs=1e-4)
            # the check reads the witness only: Q rises with nu, so a security
            # boundary crosses once
            assert not bb84.monotone_warning and bb84.capped
            # failing at nu = 0 outranks both the check and the cap
            assert di == CriterionBoundary(0.0, capped=False, undefined=False)

    def test_probe_off_flags_nothing(self, monkeypatch):
        # a witness that crosses once is not flagged, and a sweep without the
        # witness checks nothing, though the faked BB84 flips on at nu = 1
        monkeypatch.setattr(qkdng.scan, "link_fields",
                            fake_fields(lambda t, nu: nu <= 0.7, banded_bb84))
        for criteria in (ALL_CRITERIA, (Criterion.BB84,)):
            curve = sweep(thermal_config(t_grid=(0.3,), criteria=criteria))
            assert not any(b.monotone_warning for b in curve.points[0].bounds.values())

    def test_check_runs_by_default(self, monkeypatch):
        # the witness holds at 0 and at nu_cap but not at nu_cap / 2: a plain
        # sweep caps it and flags the boundary
        monkeypatch.setattr(qkdng.scan, "link_fields", notched_fields)
        bound = max_noise(Criterion.NONGAUSS, 0.5, thermal_config())
        assert bound == CriterionBoundary(2.0, capped=True, undefined=False,
                                          monotone_warning=True)


def test_each_bracket_stops_at_its_own_width(monkeypatch):
    # with tol = nu_cap / 2**6 rounding leaves some brackets a hair wider than
    # tol after 6 halvings and others not: each must stop as the scalar loop does
    def below(t, nu):
        return nu <= t

    monkeypatch.setattr(qkdng.scan, "link_fields", fake_fields(below))
    nu_cap = 0.7402473781645857
    config = thermal_config(t_grid=tuple(np.linspace(0.01, 0.73, 50)), nu_cap=nu_cap,
                            tol=nu_cap / 2**6, criteria=(Criterion.NONGAUSS,))
    steps = set()
    for point in sweep(config).points:
        lo, hi, n = 0.0, config.nu_cap, 0
        while hi - lo > config.tol:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mid <= point.t else (lo, mid)
            n += 1
        steps.add(n)
        assert point.bounds[Criterion.NONGAUSS].nu_star == lo
    assert steps == {6, 7}


class TestClassify:
    def test_decoupled_point_is_cross_region(self):
        config = thermal_config(nu_cap=10.0)
        labels = classify(1.0, 0.01, config)
        assert labels[Criterion.BB84] is RegionLabel.SECURE_AND_NONGAUSS
        assert labels[Criterion.DI] is RegionLabel.SECURE_AND_NONGAUSS

    def test_noisy_point_is_neither(self):
        labels = classify(0.5, 2.0, thermal_config())
        assert labels[Criterion.BB84] is RegionLabel.NEITHER
        assert labels[Criterion.DI] is RegionLabel.NEITHER

    def test_lossy_detection_low_coupling_is_secure_only(self):
        # dark counts push the witness below threshold long before the
        # key rate dies: the inconclusive regime
        labels = classify(0.05, 0.0, thermal_config(det=LOSSY_PNRD))
        assert labels[Criterion.BB84] is RegionLabel.SECURE_ONLY
        assert labels[Criterion.DI] is RegionLabel.SECURE_ONLY

    def test_high_coupling_witness_outlives_security(self):
        labels = classify(0.83, 1.1, thermal_config(nu_cap=10.0))
        assert labels[Criterion.BB84] is RegionLabel.NONGAUSS_ONLY
        assert labels[Criterion.DI] is RegionLabel.NONGAUSS_ONLY

    def test_undefined_point_is_neither(self):
        labels = classify(0.0, 0.0, thermal_config())
        assert labels[Criterion.BB84] is RegionLabel.NEITHER

    def test_point_rule_is_the_sweep_rule_just_past_q_star(self):
        # 7 ulps above Q*, round-off leaves the computed BB84 rate at +1.1e-16;
        # a point is judged by q <= Q* as the sweep is, so BB84 fails there
        q = 0.1100278644383596
        s = bell_from_qber(q)
        assert q > Q_STAR_BB84 and key_rates(q, s).bb84 > 0.0
        point = assess_point(thermal_config(), 1.0, 0.01)._replace(q=q, s=s, rates=key_rates(q, s))
        assert classify_assessment(point)[Criterion.BB84] is RegionLabel.NONGAUSS_ONLY

    @pytest.mark.parametrize("t, nu, det, witness, bb84, di", [
        (1.0, 0.01, PERFECT_PNRD, True, RegionLabel.SECURE_AND_NONGAUSS, RegionLabel.NONGAUSS_ONLY),
        (0.05, 0.0, LOSSY_PNRD, False, RegionLabel.SECURE_ONLY, RegionLabel.NEITHER),
    ], ids=["witness-passes", "witness-fails"])
    def test_protocols_differ_between_the_two_q_stars(self, t, nu, det, witness, bb84, di):
        # Q*_DI < q <= Q*_BB84: one point is secure for BB84 and not for DI
        q = 0.09
        s = bell_from_qber(q)
        assert Q_STAR_DI < q <= Q_STAR_BB84
        point = assess_point(thermal_config(det=det), t, nu)
        point = point._replace(q=q, s=s, rates=key_rates(q, s))
        assert point.witness.passed is witness
        assert classify_assessment(point) == {Criterion.BB84: bb84, Criterion.DI: di}


class TestScanConfigValidation:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            thermal_config(t_grid=(0.5, 0.4))

    def test_grid_range(self):
        with pytest.raises(DomainError):
            thermal_config(t_grid=(0.5, 1.4))

    @pytest.mark.parametrize("bad", [1.4, math.nan, math.inf, -0.1, "x", None, 1j])
    def test_grid_range_names_first_bad_value(self, bad):
        # the first bad value is named, not the later 2.0, also through max_noise
        with pytest.raises(DomainError, match=rf"^t_grid value .*got {bad!r}$"):
            thermal_config(t_grid=(0.5, bad, 2.0))
        with pytest.raises(DomainError, match=rf"^t_grid value .*got {bad!r}$"):
            max_noise(Criterion.BB84, bad, thermal_config())

    @pytest.mark.parametrize("grid", [0.5, None, "0.5", b"0.5"],
                             ids=["float", "none", "str", "bytes"])
    def test_grid_must_be_a_sequence_of_numbers(self, grid):
        # not a bare TypeError, and a string is not read one character at a time
        with pytest.raises(DomainError, match=rf"^t_grid must be a sequence .*got {grid!r}$"):
            thermal_config(t_grid=grid)

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            thermal_config(t_grid=())

    def test_positive_tolerances(self):
        with pytest.raises(DomainError):
            thermal_config(tol=0.0)
        with pytest.raises(DomainError):
            thermal_config(nu_cap=-1.0)

    @pytest.mark.parametrize("field", ["tol", "nu_cap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_search_range(self, field, value):
        with pytest.raises(DomainError, match=field):
            thermal_config(**{field: value})

    def test_duplicate_criteria(self):
        with pytest.raises(DomainError):
            thermal_config(criteria=(Criterion.BB84, Criterion.BB84))

    @pytest.mark.parametrize("p", [2.0, -0.1, math.nan])
    def test_werner_weight_range(self, p):
        with pytest.raises(DomainError, match="Werner weight"):
            thermal_config(p=p)

    def test_cross_pairing_accepted(self):
        # thermal noise read by a SPAD: the closed-form root agrees with the scalar model
        config = thermal_config(det=DetectorModel(DetectorKind.SPAD, eta=0.7, dark=0.001),
                                tol=1e-6)
        nu = max_noise(Criterion.BB84, 0.5, config)
        assert not nu.capped and not nu.undefined and nu.nu_star > 0.0
        assert indicator(Criterion.BB84, 0.5, nu.nu_star, config)
        assert not indicator(Criterion.BB84, 0.5, nu.nu_star + 2e-6, config)

    def test_numbers_stored_as_float(self):
        config = thermal_config(p=np.float64(0.9), nu_cap="2", tol=np.float32(1e-3))
        assert all(type(x) is float for x in (config.p, config.nu_cap, config.tol))

    @pytest.mark.parametrize("field", ["p", "nu_cap", "tol"])
    def test_non_number_rejected(self, field):
        with pytest.raises(DomainError, match="must be a number"):
            thermal_config(**{field: "abc"})

    @pytest.mark.parametrize("probe_points", [-3, 1, 2, 4.0, True, "5", 10**12])
    def test_bad_probe_points(self, probe_points):
        # the single-crossing check runs on every sweep: its old size option is refused
        with pytest.raises(TypeError, match="probe_points"):
            thermal_config(probe_points=probe_points)

    @pytest.mark.parametrize("detector", ["pnrd", DetectorKind.PNRD, None],
                             ids=["str", "kind", "none"])
    def test_detector_must_be_a_model(self, detector):
        with pytest.raises(DomainError, match="^detector must be a DetectorModel"):
            thermal_config(det=detector)

    @pytest.mark.parametrize("criteria", ["nongauss", "bb84"])
    def test_bare_string_criteria(self, criteria):
        with pytest.raises(DomainError, match="^criteria must be"):
            thermal_config(criteria=criteria)
