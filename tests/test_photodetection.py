import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from qkdng.errors import ConfigurationError, DomainError
from qkdng.photodetection import (
    DetectorKind,
    DetectorModel,
    PhotocountDistribution,
    _dark_counts,
    _detected,
    bs_coefficient,
    detect_pmf,
    photocount_pmf,
)

TWO_PLUS = 2  # detected-count label meaning "two or more photons"


def spad_weights(n, det):
    """(no-click, click) POVM weights of a SPAD for the Fock state ``|n>``.

    Oracle for the detector models: the click weight is the complement, so
    the pair sums to one exactly.
    """
    if det.kind is not DetectorKind.SPAD:
        raise ConfigurationError("spad_weights requires a SPAD detector model")
    if n < 0:
        raise DomainError(f"Fock index must be nonnegative, got {n}")
    no_click = math.exp(-det.dark) * (1.0 - det.eta) ** n
    return no_click, 1.0 - no_click


def pnrd_weights(count, k, det):
    """PNRD outcome weight for Fock state ``|k>``, the oracle of ``detect_pmf``.

    ``count`` is 0, 1 or ``TWO_PLUS``; the two-or-more weight is the
    complement of the other two, so the three sum to one exactly.
    """
    if det.kind is not DetectorKind.PNRD:
        raise ConfigurationError("pnrd_weights requires a PNRD detector model")
    if k < 0:
        raise DomainError(f"Fock index must be nonnegative, got {k}")
    damp = math.exp(-det.dark)
    p0 = damp * (1.0 - det.eta) ** k
    linear = 0.0 if k == 0 else k * det.eta * (1.0 - det.eta) ** (k - 1)
    p1 = damp * (linear + det.dark * (1.0 - det.eta) ** k)
    if count == 0:
        return p0
    if count == 1:
        return p1
    if count == TWO_PLUS:
        return 1.0 - p0 - p1
    raise DomainError(f"count must be 0, 1 or TWO_PLUS, got {count}")


def exact_count_prob(s, l, t, m):
    """p(s|l) as the module's single sum, in exact rational arithmetic."""
    t, m = Fraction(t), Fraction(m)
    g = 1 / (1 + m)
    r, a = m * g, 1 - t * g
    return g * sum(
        math.comb(l, n) * math.comb(s, n) * (t * g * g) ** n * a ** (l - n) * r ** (s - n)
        for n in range(min(s, l) + 1)
    )


def amplitude_sq(l, n, s, t):
    """Squared k-summed beam-splitter amplitude from |l>|n> to s transmitted photons."""
    amp = sum(bs_coefficient(l, n, k, s, t) for k in range(0, min(l, s) + 1))
    return amp * amp


def brute_force_pmf(l, nbar, t, s, n_sum):
    """Truncated direct evaluation of the photocount series, term by term."""
    total = 0.0
    for n in range(n_sum + 1):
        weight = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
        total += weight * amplitude_sq(l, n, s, t)
    return total


class TestBsCoefficient:
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
    def test_single_photon_transmitted(self, t):
        assert bs_coefficient(1, 0, 1, 1, t) == pytest.approx(math.sqrt(t), abs=1e-15)

    def test_blocked_binomial(self):
        assert bs_coefficient(1, 0, 0, 1, 0.5) == 0.0

    def test_vacuum(self):
        assert bs_coefficient(0, 0, 0, 0, 0.37) == 1.0

    def test_hong_ou_mandel_dip(self):
        amp = sum(bs_coefficient(1, 1, k, 1, 0.5) for k in (0, 1))
        assert amp == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("args", [(-1, 0, 0, 0), (0, -2, 0, 0), (0, 0, -1, 0), (0, 0, 0, -3)])
    def test_negative_indices(self, args):
        with pytest.raises(DomainError):
            bs_coefficient(*args, 0.5)

    def test_transmittance_domain(self):
        with pytest.raises(DomainError):
            bs_coefficient(1, 1, 0, 1, 1.5)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [1.5, 1.0, True])
    def test_non_integer_indices(self, position, bad):
        args = [1, 1, 1, 1]
        args[position] = bad
        with pytest.raises(DomainError, match="must be a nonnegative integer"):
            bs_coefficient(*args, 0.5)

    def test_numpy_integer_indices(self):
        assert bs_coefficient(*map(np.int64, (1, 0, 1, 1)), 0.25) == 0.5

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("l", [0, 1])
    def test_unitarity_small(self, l, t):
        for n in range(0, 13, 3):
            total = 0.0
            for s in range(l + n + 1):
                amp = sum(bs_coefficient(l, n, k, s, t) for k in range(0, min(l, s) + 1))
                total += amp * amp
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_terms_match_exact_rationals(self, t):
        # a term squared is s!(l+n-s)!/(l!n!) C(l,k)^2 C(n,s-k)^2 (1-t)^(l+s-2k) t^(n+2k-s),
        # rational for these t; its sign is (-1)^(s-k).  n runs past 20! in the magnitude
        exact_t = Fraction(t)
        for l in range(4):
            for n in range(25):
                for s in range(l + n + 1):
                    for k in range(min(l, s) + 1):
                        term = bs_coefficient(l, n, k, s, t)
                        want = 0 if s - k > n else (
                            Fraction(math.factorial(s) * math.factorial(l + n - s),
                                     math.factorial(l) * math.factorial(n))
                            * (math.comb(l, k) * math.comb(n, s - k)) ** 2
                            * (1 - exact_t) ** (l + s - 2 * k) * exact_t ** (n + 2 * k - s))
                        if want == 0:
                            assert term == 0.0, (l, n, k, s)
                        else:
                            assert abs(Fraction(term) ** 2 / want - 1) <= 1e-13, (l, n, k, s)
                            assert math.copysign(1.0, term) == (-1) ** (s - k), (l, n, k, s)

    @pytest.mark.parametrize("n", [3000, 10000])
    @pytest.mark.parametrize("l", [0, 1])
    def test_unitarity_at_thousands_of_photons(self, l, n):
        # the magnitudes alone reach sqrt(C(n, n/2)) C(n, n/2), far above the largest double
        total = math.fsum(amplitude_sq(l, n, s, 0.35) for s in range(l + n + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_log_space_matches_exact_scaling(self):
        # the analytic l=0 amplitude at n=40 is a binomial factor, so the
        # squared k-sum must reproduce it
        n, t = 40, 0.6
        for s in (0, 5, 17, 40):
            amp = bs_coefficient(0, n, 0, s, t)
            expected = math.comb(n, s) * (1 - t) ** s * t ** (n - s)
            assert amp * amp == pytest.approx(expected, rel=1e-12)


class TestAmplitudeMatrix:
    """Squared amplitudes from ``bs_coefficient``, the oracle of the closed form."""

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.8, 1.0])
    def test_matches_scalar_route(self, l, t):
        # the thermal average of the amplitude matrix, cut where the neglected
        # geometric weight drops below 1e-16, against the closed form
        for nbar in (0.0, 0.4, 2.5):
            probs = photocount_pmf(l, nbar, t).probs
            ratio = nbar / (nbar + 1.0)
            n_sum = 0 if nbar == 0.0 else math.ceil(math.log(1e-16) / math.log(ratio))
            for s in range(30):
                expected = brute_force_pmf(l, nbar, t, s, n_sum)
                got = probs[s] if s < len(probs) else 0.0
                assert got == pytest.approx(expected, abs=1e-12), (nbar, s)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_unitary_rows_at_scale(self, l):
        # every noise Fock index maps onto a unit-mass count distribution,
        # including rows deep in the log-space regime
        for n in (0, 7, 25, 60, 130, 250):
            total = math.fsum(amplitude_sq(l, n, s, 0.35) for s in range(l + n + 1))
            assert total == pytest.approx(1.0, abs=1e-10), n


class TestPhotocountPmf:
    def test_vacuum_ancilla(self):
        pmf = photocount_pmf(1, 0.0, 0.7)
        assert len(pmf.probs) == 2
        assert pmf.probs[0] == pytest.approx(0.3, abs=1e-12)
        assert pmf.probs[1] == pytest.approx(0.7, abs=1e-12)
        assert pmf.truncation_tail == 0.0

    def test_unit_transmittance_decouples(self):
        pmf = photocount_pmf(1, 2.3, 1.0)
        assert pmf.probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_thermal_mixing_oracle(self):
        # closed-form geometric sums for l=1, nbar=1, T=1/2
        pmf = photocount_pmf(1, 1.0, 0.5)
        assert pmf.probs[0] == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert pmf.probs[1] == pytest.approx(8.0 / 27.0, abs=1e-9)

    def test_against_brute_force(self):
        pmf = photocount_pmf(1, 1.0, 0.5)
        for s in (0, 1, 2):
            assert pmf.probs[s] == pytest.approx(brute_force_pmf(1, 1.0, 0.5, s, 500), abs=1e-8)

    @pytest.mark.parametrize("l,nbar,t", [
        (0, 0.5, 0.3), (1, 1.0, 0.5), (1, 3.7, 0.85), (2, 0.8, 0.4),
        (3, 20.0, 0.3), (1, 150.0, 0.0),
    ])
    def test_normalization(self, l, nbar, t):
        pmf = photocount_pmf(l, nbar, t)
        assert math.fsum(pmf.probs) + pmf.truncation_tail == pytest.approx(1.0, abs=1e-13)
        assert pmf.truncation_tail <= 1e-16
        assert np.all(pmf.probs >= 0.0)
        assert np.all(pmf.probs <= 1.0)

    @pytest.mark.parametrize("l", range(6))
    @pytest.mark.parametrize("nbar,t", [
        (0.0, 0.3), (0.4, 0.5), (2.0, 0.25), (1.0, 1.0), (5.0, 0.0),
        (1.0, 0.9999),  # a = 1 - t g is 2e-4: computing it as a difference loses digits
    ])
    def test_single_sum_oracle(self, l, nbar, t):
        pmf = photocount_pmf(l, nbar, t)
        for s, p in enumerate(pmf.probs):
            exact = exact_count_prob(s, l, pmf.t, pmf.m)
            assert abs(Fraction(p) - exact) <= 1e-13 * exact

    def test_long_table_normalised_with_exact_mean(self):
        # no big-integer binomial to overflow, no O(l^2) row to wait for
        l, nbar, t = 1100, 0.1, 0.5
        pmf = photocount_pmf(l, nbar, t)
        assert math.fsum(pmf.probs) + pmf.truncation_tail == pytest.approx(1.0, abs=1e-12)
        mean = math.fsum(s * p for s, p in enumerate(pmf.probs))
        assert mean == pytest.approx(t * l + (1.0 - t) * nbar, rel=1e-9)

    def test_tail_bounds_the_omitted_mass(self):
        # the l=1 closed form, summed far past the table, is the exact tail
        nbar, t = 3.0, 0.6
        pmf = photocount_pmf(1, nbar, t)
        m = (1.0 - t) * nbar
        r = m / (1.0 + m)

        def p1(s):  # (1-t) m^s/(1+m)^(s+1) + t m^(s-1) (m^2+s)/(1+m)^(s+2)
            return (1.0 - t) * (1.0 - r) * r**s + t * r ** (s - 1) * (m * m + s) / (1.0 + m) ** 3

        cut = len(pmf.probs)
        assert pmf.probs[cut - 1] == pytest.approx(p1(cut - 1), rel=1e-12)
        omitted = math.fsum(p1(s) for s in range(cut, cut + 2000))
        assert 0.0 < omitted <= pmf.truncation_tail <= 1e-16

    def test_overlong_table_refused(self):
        # the closed form needs no table; only asking for one is refused
        pmf = photocount_pmf(1, 1e7, 0.5)
        assert detect_pmf(pmf, DetectorModel(DetectorKind.PNRD)).p0 > 0.0
        with pytest.raises(DomainError):
            pmf.probs

    @pytest.mark.parametrize("nbar", [1e-20, 1e-300, 5e-324])
    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_faint_noise_tabulates(self, l, nbar):
        # 1/(1 + m) rounds to 1 below m = 2^-53: the row estimate took log1p(-1.0)
        pmf = photocount_pmf(l, nbar, 0.5)
        assert len(pmf.probs) == l + 1
        assert math.fsum(pmf.probs) + pmf.truncation_tail == pytest.approx(1.0, abs=1e-15)
        assert pmf.truncation_tail <= 1e-17
        for s, p in enumerate(pmf.probs):  # Binomial(l, 1/2): the noise adds nothing visible
            assert p == pytest.approx(math.comb(l, s) / 2**l, rel=1e-15)

    def test_overwhelming_noise_refused(self):
        with pytest.raises(DomainError):
            photocount_pmf(1, 1e300, 0.5).probs

    def test_vacuum_input_is_attenuated_thermal(self):
        nbar, t = 2.0, 0.4
        pmf = photocount_pmf(0, nbar, t)
        mean = (1.0 - t) * nbar
        geometric = (1.0 / (mean + 1.0)) * (mean / (mean + 1.0)) ** np.arange(10)
        assert np.abs(pmf.probs[:10] - geometric).max() < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            photocount_pmf(-1, 0.5, 0.5)
        with pytest.raises(DomainError):
            photocount_pmf(1, -0.5, 0.5)
        with pytest.raises(DomainError):
            photocount_pmf(1, 0.5, 1.2)
        for nbar, t in ((math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan)):
            with pytest.raises(DomainError):
                photocount_pmf(1, nbar, t)

    @pytest.mark.parametrize("l", [1.5, 1.0, True, "1", None])
    def test_fock_number_must_be_an_integer(self, l):
        # int(1.5) would quietly tabulate |1>
        with pytest.raises(DomainError, match="incident Fock number"):
            photocount_pmf(l, 0.1, 0.5)

    def test_numpy_integer_fock_number(self):
        pmf = photocount_pmf(np.int64(2), 0.1, 0.5)
        assert type(pmf.incident_l) is int
        assert np.array_equal(pmf.probs, photocount_pmf(2, 0.1, 0.5).probs)

    @pytest.mark.parametrize("fields,what", [
        ((1, 0.5, math.inf), "thermal mean m"),  # once a ZeroDivisionError
        ((1, 2.0, -0.5), "transmittance"),       # once a table of -6 and 22
        ((1, 0.5, -0.1), "thermal mean m"),
        ((1.5, 0.5, 0.5), "incident Fock number"),
        ((-1, 0.5, 0.5), "incident Fock number"),
    ])
    def test_record_built_by_hand_checked_where_tabulated(self, fields, what):
        # NaN fields, which once tabulated without end, are tests/test_process.py's
        pmf = PhotocountDistribution(*fields)
        for read in ("probs", "truncation_tail"):
            with pytest.raises(DomainError, match=f"^{what}"):
                getattr(pmf, read)


class TestSpadWeights:
    def test_vacuum_sees_only_dark_counts(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.33, dark=0.001)
        no_click, _ = spad_weights(0, det)
        assert no_click == pytest.approx(math.exp(-0.001), abs=1e-15)

    def test_perfect_detector_always_fires(self):
        det = DetectorModel(DetectorKind.SPAD, eta=1.0, dark=0.0)
        _, click = spad_weights(3, det)
        assert click == 1.0

    def test_single_photon(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.7, dark=0.001)
        no_click, _ = spad_weights(1, det)
        assert no_click == pytest.approx(0.3 * math.exp(-0.001), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_completeness(self, n):
        det = DetectorModel(DetectorKind.SPAD, eta=0.6, dark=0.02)
        no_click, click = spad_weights(n, det)
        assert no_click + click == pytest.approx(1.0, abs=1e-15)

    def test_kind_check(self):
        with pytest.raises(ConfigurationError):
            spad_weights(0, DetectorModel(DetectorKind.PNRD))


class TestPnrdWeights:
    def test_ideal_resolves_one_photon(self):
        det = DetectorModel(DetectorKind.PNRD, eta=1.0, dark=0.0)
        assert pnrd_weights(1, 1, det) == 1.0

    def test_vacuum_no_click(self):
        det = DetectorModel(DetectorKind.PNRD, eta=0.42, dark=0.05)
        assert pnrd_weights(0, 0, det) == pytest.approx(math.exp(-0.05), abs=1e-15)

    def test_vacuum_two_plus_is_dark_doubles(self):
        det = DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001)
        expected = 1.0 - math.exp(-0.001) * (1.0 + 0.001)
        assert pnrd_weights(TWO_PLUS, 0, det) == pytest.approx(expected, rel=1e-9)
        assert pnrd_weights(TWO_PLUS, 0, det) == pytest.approx(4.9967e-7, rel=1e-4)

    @pytest.mark.parametrize("eta,dark", [(0.0, 0.0), (0.3, 0.01), (0.7, 0.001), (1.0, 0.1)])
    def test_completeness_and_positivity(self, eta, dark):
        det = DetectorModel(DetectorKind.PNRD, eta=eta, dark=dark)
        for k in range(201):
            parts = [pnrd_weights(c, k, det) for c in (0, 1, TWO_PLUS)]
            assert sum(parts) == pytest.approx(1.0, abs=1e-12)
            assert parts[1] >= 0.0

    def test_bad_count_label(self):
        with pytest.raises(DomainError):
            pnrd_weights(3, 0, DetectorModel(DetectorKind.PNRD))


class TestDetectPmf:
    def test_perfect_detection_is_identity(self):
        pmf = photocount_pmf(1, 0.0, 0.7)
        out = detect_pmf(pmf, DetectorModel(DetectorKind.PNRD))
        assert out.p0 == pmf.probs[0]
        assert out.p1 == pmf.probs[1]
        assert out.p_two_plus == pytest.approx(0.0, abs=1e-15)

    def test_vacuum_dark_count_term(self):
        pmf = PhotocountDistribution(incident_l=0, t=1.0, m=0.0)  # vacuum
        out = detect_pmf(pmf, DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001))
        assert out.p1 == pytest.approx(0.001 * math.exp(-0.001), rel=1e-12)

    @pytest.mark.parametrize("eta,dark", [(1.0, 0.0), (0.7, 0.001), (0.2, 0.3)])
    def test_completeness(self, eta, dark):
        pmf = photocount_pmf(1, 1.3, 0.6)
        out = detect_pmf(pmf, DetectorModel(DetectorKind.PNRD, eta=eta, dark=dark))
        assert out.p0 + out.p1 + out.p_two_plus == pytest.approx(1.0, abs=1e-10)

    def test_matches_weight_sum(self):
        # the closed form against the per-Fock POVM weights summed over the table
        cases = [
            (1, 0.8, 0.45, 0.55, 0.01), (0, 0.8, 0.45, 0.55, 0.01), (1, 3.0, 0.2, 0.7, 0.001),
            (2, 1.5, 0.6, 0.3, 0.1), (3, 0.2, 0.9, 1.0, 0.0), (1, 5.0, 0.0, 0.0, 0.02),
        ]
        for l, nbar, t, eta, dark in cases:
            pmf = photocount_pmf(l, nbar, t)
            det = DetectorModel(DetectorKind.PNRD, eta=eta, dark=dark)
            out = detect_pmf(pmf, det)
            by_hand0 = math.fsum(pnrd_weights(0, s, det) * p for s, p in enumerate(pmf.probs))
            by_hand1 = math.fsum(pnrd_weights(1, s, det) * p for s, p in enumerate(pmf.probs))
            assert out.p0 == pytest.approx(by_hand0, abs=1e-14)
            assert out.p1 == pytest.approx(by_hand1, abs=1e-14)

    @pytest.mark.parametrize("l", [0, 1, 3])
    @pytest.mark.parametrize("eta,dark", [(1.0, 0.0), (0.7, 0.001), (0.2, 0.3)])
    def test_either_detector_gets_the_same_record(self, l, eta, dark):
        # a SPAD reads the PNRD's outcomes coarser, so both get one record
        pmf = photocount_pmf(l, 1.3, 0.6)
        spad = detect_pmf(pmf, DetectorModel(DetectorKind.SPAD, eta=eta, dark=dark))
        assert spad == detect_pmf(pmf, DetectorModel(DetectorKind.PNRD, eta=eta, dark=dark))


class TestDetectedClosedForm:
    """``_detected``, shared by ``detect_pmf`` and the array model, against the table."""

    TS = (0.0, 0.3, 0.8, 1.0)
    MS = (0.0, 0.4, 2.5)

    @pytest.mark.parametrize("l", range(4))
    @pytest.mark.parametrize("dark", [0.0, 0.02])
    def test_matches_count_prob(self, l, dark):
        for t in self.TS:
            for m in self.MS:
                p0, p1, two_plus = _detected(l, t, m, dark, _dark_counts(dark))
                rows = PhotocountDistribution(l, t, m).probs
                miss, single = rows[0], rows[1] if len(rows) > 1 else 0.0  # l = m = 0: one row
                assert p0 == pytest.approx(math.exp(-dark) * miss, abs=1e-15)
                assert p1 == pytest.approx(math.exp(-dark) * (single + dark * miss), abs=1e-15)
                assert p1 + two_plus == pytest.approx(1.0 - math.exp(-dark) * miss, abs=1e-15)
                assert two_plus == pytest.approx(1.0 - p0 - p1, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l", range(4))
    def test_array_equals_scalar(self, l):
        # t = 1 with m = 0 makes a = 1 - t g vanish: no division may see it
        t, m = np.meshgrid(self.TS, self.MS)
        p0, p1, two_plus = _detected(l, t, m, 0.001, _dark_counts(0.001))
        for k in np.ndindex(t.shape):
            scalar = _detected(l, float(t[k]), float(m[k]), 0.001, _dark_counts(0.001))
            assert (p0[k], p1[k], two_plus[k]) == pytest.approx(scalar, abs=1e-15)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_exact_near_unit_coupling(self, l):
        # t g within 1e-4 of 1: a = 1 - t g by subtraction was l 5e-13 relative off
        t, m = 0.9999, 1e-4
        p0, p1, two_plus = _detected(l, t, m, 0.0, _dark_counts(0.0))
        tq, mq = Fraction(t), Fraction(m)
        g = 1 / (1 + mq)
        r, a = mq * g, 1 - tq * g
        miss = g * a**l
        single = g * a ** (l - 1) * (r * a + l * tq * g * g)
        assert abs(Fraction(p0) - miss) <= 1e-14 * miss
        assert abs(Fraction(p1) - single) <= 1e-14 * single
        assert abs(Fraction(p1 + two_plus) - (1 - miss)) <= 1e-14 * (1 - miss)
        two = 1 - miss - single  # ~1e-4 for l = 1: 1 - p0 - p1 in floats keeps ~12 digits
        assert abs(Fraction(two_plus) - two) <= 1e-14 * two

    def test_faint_click_without_cancellation(self):
        # the click c = p1 + w is ~1e-12 here; 1 - p0 by subtraction keeps ~4 digits
        t, m, dark = 1e-12, 1e-13, 1e-14
        _, p1, two_plus = _detected(1, t, m, dark, _dark_counts(dark))
        tq, mq, dq = Fraction(t), Fraction(m), Fraction(dark)
        g = 1 / (1 + mq)
        damp = sum((-dq) ** k / math.factorial(k) for k in range(6))  # e^-dark to ~1e-84
        exact = 1 - damp * g * (1 - tq * g)
        assert abs(Fraction(p1 + two_plus) - exact) <= 1e-14 * exact


    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("t, m", [(0.3, 0.2), (0.9, 1e-3), (0.5, 2.0), (1e-3, 1e-4), (1.0, 0.0)])
    def test_two_plus_matches_table_tail(self, l, t, m):
        # with no dark counts w is the table's mass at s >= 2; the table leaves
        # out at most its truncation tail
        table = PhotocountDistribution(l, t, m)
        _, _, two_plus = _detected(l, t, m, 0.0, _dark_counts(0.0))
        rest = math.fsum(table.probs[2:])
        assert abs(two_plus - rest) <= table.truncation_tail + 1e-14 * rest

    @pytest.mark.parametrize("l", [0, 1, 2, 4])
    def test_two_plus_at_a_dead_coupler_is_dark_doubles(self, l):
        # t = m = 0: the port is empty, so two counts need two dark counts
        for dark in (1e-38, 1e-9, 0.3):
            _, _, two_plus = _detected(l, 0.0, 0.0, dark, _dark_counts(dark))
            assert two_plus == _dark_counts(dark)[2] > 0.0


class TestDarkCounts:
    DARKS = (1e-300, 1e-38, 1e-10, 1e-3, 0.1, 0.3, 0.49, 0.5, 0.51, 0.7, 2.0, 30.0, 800.0)

    @pytest.mark.parametrize("dark", DARKS)
    def test_matches_exact_values(self, dark):
        damp, lost, doubles = _dark_counts(dark)
        with localcontext() as ctx:
            ctx.prec = 800  # 1 - (1 + d) e^-d keeps 200 digits at d = 1e-300
            d = Decimal(dark)
            exact = (-d).exp(), 1 - (-d).exp(), 1 - (1 + d) * (-d).exp()
            for value, want in zip((damp, lost, doubles), exact):
                # within 5e-16 relative, or underflowed below the smallest subnormal
                assert abs(Decimal(value) - want) <= Decimal("5e-16") * want + Decimal(5e-324)

    def test_no_dark_counts(self):
        assert _dark_counts(0.0) == (1.0, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_array_equals_scalar(self):
        darks = np.array(self.DARKS + (0.0, 1e6, 1e300))
        columns = _dark_counts(darks)
        for k, dark in enumerate(darks.tolist()):
            scalar = _dark_counts(dark)
            assert tuple(column[k] for column in columns) == scalar
            assert all(type(value) is float for value in scalar)  # no numpy scalar leaks


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            DetectorModel(DetectorKind.PNRD, eta=1.2)
        with pytest.raises(DomainError):
            DetectorModel(DetectorKind.SPAD, dark=-0.1)

    @pytest.mark.parametrize("eta,dark", [(1.0, math.nan), (1.0, math.inf), (math.nan, 0.0)])
    def test_non_finite_rejected(self, eta, dark):
        with pytest.raises(DomainError):
            DetectorModel(DetectorKind.PNRD, eta=eta, dark=dark)

    def test_dark_counts_worked_out_once_outside_the_fields(self):
        det = DetectorModel(DetectorKind.SPAD, eta=0.6, dark=0.02)
        assert det._dark_probs == _dark_counts(0.02)
        assert [f.name for f in dataclasses.fields(det)] == ["kind", "eta", "dark"]
        assert repr(det) == "DetectorModel(kind=<DetectorKind.SPAD: 'spad'>, eta=0.6, dark=0.02)"
        assert det == DetectorModel("spad", 0.6, 0.02)
        assert hash(det) == hash((DetectorKind.SPAD, 0.6, 0.02))
        moved = dataclasses.replace(det, dark=0.7)
        assert moved._dark_probs == _dark_counts(0.7) and moved != det
        assert det._dark_probs == _dark_counts(0.02)

    def test_string_kind_coerced(self):
        det = DetectorModel("pnrd")
        assert det.kind is DetectorKind.PNRD
        assert detect_pmf(photocount_pmf(1, 0.0, 0.7), det).p1 == pytest.approx(0.7, abs=1e-12)
        with pytest.raises(ValueError):
            DetectorModel("apd")
