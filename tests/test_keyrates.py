import math

import numpy as np
import pytest

from qkdng.errors import DomainError
from qkdng.keyrates import (
    Q_STAR_BB84,
    Q_STAR_DI,
    S_MAX,
    bell_from_qber,
    binary_entropy,
    dw_rate_bb84,
    dw_rate_di,
    key_rates,
    security_threshold,
)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        # -q*log2(q) - (1-q)*log2(1-q) at q=1/4, evaluated independently:
        # 0.5 + 0.75*log2(4/3)
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    @pytest.mark.parametrize("q", [-0.1, 1.0000001, 2.0])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            binary_entropy(q)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for q in rng.uniform(0.0, 1.0, 200):
            assert binary_entropy(q) == pytest.approx(binary_entropy(1.0 - q), abs=1e-12)


class TestBellFromQber:
    def test_noiseless(self):
        assert bell_from_qber(0.0) == pytest.approx(S_MAX, abs=1e-15)

    def test_depolarized(self):
        assert bell_from_qber(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert bell_from_qber(0.25) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("q", [-0.01, 0.51, 1.0])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            bell_from_qber(q)


class TestRateBB84:
    def test_noiseless_unit_rate(self):
        assert dw_rate_bb84(0.0, S_MAX) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_known_threshold(self):
        q = 0.1100279
        assert dw_rate_bb84(q, bell_from_qber(q)) == pytest.approx(0.0, abs=1e-5)

    def test_quarter(self):
        # 1 - 2*h(1/4), evaluated independently
        assert dw_rate_bb84(0.25, math.sqrt(2.0)) == pytest.approx(
            -0.622556248918266, abs=1e-12
        )

    def test_entropy_argument_domain(self):
        with pytest.raises(DomainError):
            dw_rate_bb84(0.9, S_MAX)  # phase argument above 1

    def test_reduces_to_one_minus_2h_along_family(self):
        for q in np.linspace(0.0, 0.5, 41):
            expected = 1.0 - 2.0 * binary_entropy(q)
            assert dw_rate_bb84(q, bell_from_qber(q)) == pytest.approx(expected, abs=1e-12)


class TestRateDI:
    def test_noiseless_unit_rate(self):
        rate, defined = dw_rate_di(0.0, S_MAX)
        assert defined
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_no_violation_is_undefined(self):
        rate, defined = dw_rate_di(0.1, 2.0)
        assert not defined
        assert rate == 0.0

    def test_near_known_threshold(self):
        rate, defined = dw_rate_di(0.0715, bell_from_qber(0.0715))
        assert defined
        assert rate == pytest.approx(0.0, abs=2e-3)

    def test_sentinel_in_key_rates(self):
        rates = key_rates(0.2, bell_from_qber(0.2))  # S < 2 here
        assert not rates.di_defined
        assert rates.di == 0.0


class TestThresholds:
    def test_bb84(self):
        assert security_threshold("bb84") == pytest.approx(0.110028, abs=5e-4)

    def test_di(self):
        assert security_threshold("di") == pytest.approx(0.0714, abs=1e-3)

    def test_ordering(self):
        assert security_threshold("di") < security_threshold("bb84")


class TestFamilyProperties:
    def test_rates_strictly_decreasing(self):
        grid = np.linspace(0.0, 0.3, 31)
        bb84 = [dw_rate_bb84(q, bell_from_qber(q)) for q in grid]
        assert all(b > a for a, b in zip(bb84[1:], bb84))
        di = []
        for q in grid:
            rate, defined = dw_rate_di(q, bell_from_qber(q))
            if defined:
                di.append(rate)
        assert len(di) > 5
        assert all(b > a for a, b in zip(di[1:], di))

    def test_di_never_exceeds_bb84(self):
        for q in np.linspace(0.0, 0.14, 29):
            s = bell_from_qber(q)
            rate, defined = dw_rate_di(q, s)
            assert defined
            assert rate <= dw_rate_bb84(q, s) + 1e-12


class TestQStar:
    """Q* is the largest float at which a rate along the family is positive."""

    @pytest.mark.parametrize("protocol,q_star", [("bb84", Q_STAR_BB84), ("di", Q_STAR_DI)])
    def test_largest_qber_with_positive_rate(self, protocol, q_star):
        def rate(q):
            return getattr(key_rates(q, bell_from_qber(q)), protocol)

        assert rate(q_star) > 0.0
        assert rate(math.nextafter(q_star, 1.0)) <= 0.0
        assert abs(security_threshold(protocol, tol=1e-12) - q_star) <= 1e-12

    def test_di_defined_up_to_its_threshold(self):
        assert key_rates(Q_STAR_DI, bell_from_qber(Q_STAR_DI)).di_defined


class TestKeyRateFields:
    """The array path decides security on a QBER field by ``q <= Q*``."""

    def test_matches_scalar_rates(self):
        q = np.concatenate([[0.0, 0.5], np.linspace(0.0, 0.5, 201),
                            [Q_STAR_BB84, math.nextafter(Q_STAR_BB84, 1.0),
                             Q_STAR_DI, math.nextafter(Q_STAR_DI, 1.0)]])
        bb84, di = q <= Q_STAR_BB84, q <= Q_STAR_DI
        for k, qk in enumerate(q):
            rates = key_rates(qk, bell_from_qber(qk))
            assert bb84[k] == (rates.bb84 > 0.0)
            assert di[k] == (rates.di > 0.0)

    def test_entropy_endpoints_are_zero(self):
        # q = 0 puts both entropy arguments on {0, 1}: a perfect link keeps 1 bit
        rates = key_rates(0.0, bell_from_qber(0.0))
        assert (rates.bb84, rates.di, rates.di_defined) == (1.0, 1.0, True)

    def test_nan_qber_has_no_defined_rate(self):
        # the scalar rates reject NaN; the array comparison counts it as insecure
        with pytest.raises(DomainError):
            key_rates(math.nan, S_MAX)
        q = np.array([math.nan])
        assert (q <= Q_STAR_BB84).tolist() == [False] and (q <= Q_STAR_DI).tolist() == [False]
