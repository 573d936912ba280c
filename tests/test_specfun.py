"""Special-function checks against independent oracles.

Oracles: adaptive quadrature of the defining integrals (scipy), exact
big-integer rationals (fractions), and the classic small-argument series.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from cogrelay.specfun import (
    EULER_GAMMA,
    _regularized_gamma,
    exp_scaled_ei,
    lower_incomplete_gamma,
    order_stat_coeff,
    upper_incomplete_gamma,
)


def gamma_quad(m, x):
    """Defining integral of the lower incomplete gamma function."""
    val, _ = integrate.quad(lambda t: t ** (m - 1) * math.exp(-t), 0.0, x,
                            limit=200, epsabs=1e-300, epsrel=1e-13)
    return val


def exp_scaled_ei_quad(p):
    """e^p Ei(-p) = -integral of e^-s / (s + p) over s >= 0."""
    val, _ = integrate.quad(lambda s: math.exp(-s) / (s + p), 0.0, np.inf,
                            limit=400, epsabs=1e-300, epsrel=1e-13)
    return -val


class TestLowerIncompleteGamma:
    def test_empty_integral(self):
        assert lower_incomplete_gamma(1, 0.0) == 0.0

    def test_shape_one_closed_form(self):
        assert lower_incomplete_gamma(1, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-15)

    def test_against_quadrature(self):
        for m in (1, 2, 3, 5, 8):
            for x in (0.01, 0.3, 1.0, 2.0, 7.5, 30.0):
                assert lower_incomplete_gamma(m, x) == pytest.approx(
                    gamma_quad(m, x), rel=1e-12), (m, x)

    def test_small_argument_keeps_relative_accuracy(self):
        # 1 - e^-x sum... would cancel here; the tail series must not
        assert lower_incomplete_gamma(3, 0.01) == pytest.approx(
            gamma_quad(3, 0.01), rel=1e-12)

    def test_monotone_and_limit(self):
        for m in (1, 2, 4):
            grid = np.linspace(0.0, 50.0, 300)
            vals = [lower_incomplete_gamma(m, x) for x in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(math.factorial(m - 1), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1, -0.5)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.5, 1.0)


class TestUpperIncompleteGamma:
    def test_at_zero_is_gamma(self):
        assert upper_incomplete_gamma(1, 0.0) == 1.0
        assert upper_incomplete_gamma(4, 0.0) == math.factorial(3)

    def test_shape_two_closed_form(self):
        # (1 + x) e^-x at x = 1
        assert upper_incomplete_gamma(2, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-14)
        assert upper_incomplete_gamma(2, 1.0) == pytest.approx(
            math.factorial(1) - gamma_quad(2, 1.0), rel=1e-12)

    def test_complementarity_within_ulps(self):
        for m in (1, 2, 3, 6, 11):
            fact = float(math.factorial(m - 1))
            for x in (0.0, 1e-3, 0.5, float(m), 3.0 * m, 40.0):
                total = lower_incomplete_gamma(m, x) + upper_incomplete_gamma(m, x)
                assert abs(total - fact) <= 4 * math.ulp(fact), (m, x)


class TestRegularizedGamma:
    def test_large_shape_past_exp_underflow(self):
        # e^-x is 0 above x = 745, yet P and Q are far from 0 and 1 there
        for m, x in ((800, 760.0), (800, 800.0), (800, 850.0),
                     (300, 710.0), (1000, 1100.0)):
            p, q, _ = _regularized_gamma(m, x)
            assert p == pytest.approx(special.gammainc(m, x), rel=1e-12), (m, x)
            assert q == pytest.approx(special.gammaincc(m, x), rel=1e-12), (m, x)

    def test_array_with_both_ends(self):
        p, q, _ = _regularized_gamma(800, np.array([0.0, 760.0, np.inf]))
        assert p[[0, 2]].tolist() == [0.0, 1.0]
        assert q[[0, 2]].tolist() == [1.0, 0.0]
        assert p[1] == pytest.approx(special.gammainc(800, 760.0), rel=1e-12)


class TestLargeShape:
    """From m = 172, where (m-1)! leaves the float range, the incomplete
    gammas are formed in log space, finite wherever the value is."""

    @staticmethod
    def scipy_scaled(regularized, m, x):
        # Gamma(m) itself is inf in scipy from m = 172
        return math.exp(math.log(regularized(m, x)) + special.gammaln(m))

    @pytest.mark.parametrize("m, x", [(172, 10.0), (172, 80.0), (200, 10.0),
                                      (200, 30.0)])
    def test_lower_against_scipy(self, m, x):
        assert lower_incomplete_gamma(m, x) == pytest.approx(
            self.scipy_scaled(special.gammainc, m, x), rel=1e-12)

    @pytest.mark.parametrize("m, x", [(172, 600.0), (172, 900.0),
                                      (200, 1000.0), (200, 1200.0)])
    def test_upper_against_scipy(self, m, x):
        assert upper_incomplete_gamma(m, x) == pytest.approx(
            self.scipy_scaled(special.gammaincc, m, x), rel=1e-12)

    @pytest.mark.parametrize("m", [172, 180, 200, 300, 515])
    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_against_mpmath(self, m, name):
        # the regularized value underflows at x = 1 from m = 180, where
        # scaling it read 0 (and lost digits from m = 172)
        mpmath = pytest.importorskip("mpmath")
        function = {"lower": lower_incomplete_gamma,
                    "upper": upper_incomplete_gamma}[name]
        with mpmath.workdps(40):
            for x in (1e-3, 1.0, 10.0, m / 2, m - 1, m - 0.5, m, m + 1,
                      2 * m, 5 * m):
                want = (mpmath.gammainc(m, 0, x) if name == "lower"
                        else mpmath.gammainc(m, x))
                if not mpmath.mpf("1e-300") < want < mpmath.mpf("1e300"):
                    continue  # outside the normal float range
                assert function(m, x) == pytest.approx(float(want), rel=1e-12), x
                assert function(m, np.array([x]))[0] == function(m, x)

    def test_inf_only_beyond_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert upper_incomplete_gamma(172, 0.0) == math.inf
            assert lower_incomplete_gamma(200, 200.0) == math.inf
            assert lower_incomplete_gamma(172, 0.0) == 0.0
            values = upper_incomplete_gamma(172, np.array([0.0, 600.0, np.inf]))
        assert values[0] == math.inf
        assert math.isfinite(values[1])
        assert values[2] == 0.0


class TestExpScaledEi:
    def test_reference_point(self):
        assert exp_scaled_ei(1.0) == pytest.approx(-0.5963473623231940, rel=1e-12)

    def test_against_quadrature_wide_range(self):
        for p in np.logspace(-3, 3, 25):
            assert exp_scaled_ei(p) == pytest.approx(
                exp_scaled_ei_quad(p), rel=1e-10), p

    def test_large_argument_asymptote(self):
        p = 500.0
        assert exp_scaled_ei(p) == pytest.approx(-1 / p + 1 / p ** 2, rel=1e-2)

    def test_small_argument_series(self):
        p = 0.001
        series = EULER_GAMMA + math.log(p) + math.fsum(
            (-p) ** k / (k * math.factorial(k)) for k in range(1, 12))
        assert exp_scaled_ei(p) == pytest.approx(math.exp(p) * series, rel=1e-10)

    def test_negative_and_increasing(self):
        grid = np.logspace(-3, 3, 60)
        vals = [exp_scaled_ei(p) for p in grid]
        assert all(v < 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_scaled_ei(0.0)
        with pytest.raises(ValueError):
            exp_scaled_ei(-1.0)


def coeff_exact(mn, k, i):
    return Fraction(math.factorial(mn) * math.comb(k - 1, i),
                    (mn - k + i + 1) * math.factorial(k - 1)
                    * math.factorial(mn - k))


class TestOrderStatCoeff:
    def test_maximum_coefficient_is_one(self):
        assert order_stat_coeff(4, 1, 0) == pytest.approx(1.0, rel=1e-14)

    def test_exact_rational_oracle(self):
        assert order_stat_coeff(6, 2, 1) == pytest.approx(
            float(coeff_exact(6, 2, 1)), rel=1e-13)
        for mn, k, i in [(4, 3, 2), (9, 7, 4), (10, 10, 9), (12, 5, 0)]:
            assert order_stat_coeff(mn, k, i) == pytest.approx(
                float(coeff_exact(mn, k, i)), rel=1e-12), (mn, k, i)

    def test_large_problem_no_overflow(self):
        value = order_stat_coeff(40, 10, 3)
        assert math.isfinite(value)
        assert value == pytest.approx(float(coeff_exact(40, 10, 3)), rel=1e-10)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            order_stat_coeff(4, 0, 0)
        with pytest.raises(ValueError):
            order_stat_coeff(4, 5, 0)
        with pytest.raises(ValueError):
            order_stat_coeff(4, 2, 2)
