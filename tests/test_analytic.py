"""Closed-form checks against independent oracles: conditional-form
quadrature for the link CDF, order-statistic Monte Carlo, exhaustive
rank enumeration, numeric high-SNR limits and adaptive quadrature for
the throughput integrals."""

import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc, gammaincc
from scipy.stats import binom

from cogrelay import analytic
from cogrelay.analytic import (
    _binomial_mixture,
    _link_cdf,
    _log_trapezoid,
    _outage,
    _race,
    array_gain,
    asymptotic_outage_case1,
    asymptotic_outage_case2,
    average_throughput,
    cdf_kth_largest,
    g_factor,
    h_integral,
    outage_floor_imperfect,
    outage_probability,
    outage_probability_imperfect,
    worst_case_rank_prob,
)
from cogrelay.model import CsiErrorModel, LinkBudget, NetworkTopology, db_to_linear
from cogrelay.selection import rank_placement_probs
from oracles import (
    average_throughput_closed,
    average_throughput_joined,
    budget_db,
    cdf_min_snr_rayleigh,
    g_factor_factorial,
    h_closed,
    h_row,
    link_cdf_quad,
    race_binom,
    race_products,
    throughput_params,
)
from cogrelay.specfun import _regularized_gamma

GAMMA_TH = db_to_linear(5.0)


def topo(num_users=2, num_relays=3, m=2, **kw):
    kw.setdefault("path_loss_exp", 0.0)
    return NetworkTopology(num_users, num_relays, m, **kw)


def cdf_conditional_oracle(x, topology, budget):
    """Average the conditional link CDF over the mixed relay-power law
    (continuous density below the cap plus an atom at the cap)."""
    m = topology.nakagami_m
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    miss1 = gammaincc(m, m * x / (o1 * l1))

    def conditional(z):
        return 1.0 - miss1 * gammaincc(m, m * x / (o2 * z))

    def density(z):
        return ((m * l3 / o3) ** m * math.exp(-m * l3 / (o3 * z))
                / (math.gamma(m) * z ** (m + 1)))

    val, _ = integrate.quad(lambda z: conditional(z) * density(z), 0.0, l2,
                            limit=400, epsabs=1e-13, epsrel=1e-12)
    atom = gammainc(m, m * l3 / (o3 * l2))
    return val + atom * conditional(l2)


class TestCdfMinSnr:
    def test_zero_at_origin(self):
        assert _link_cdf(0.0, topo(), budget_db(10, 10, 10))[0] == 0.0

    def test_rayleigh_reduction_identity(self):
        t = topo(m=1)
        b = budget_db(14, 7, 3)
        for x in np.linspace(0.01, 40, 150):
            assert _link_cdf(x, t, b)[0] == pytest.approx(
                cdf_min_snr_rayleigh(x, t, b), abs=1e-12)

    def test_against_conditional_quadrature(self):
        cases = [
            (topo(m=2), budget_db(10, 10, 10)),
            (topo(m=3), budget_db(25, 8, 10)),
            (topo(m=1, omega_h2=2.0, omega_f=0.5),
             budget_db(12, 6, 0)),
        ]
        for t, b in cases:
            for x in (0.3, 1.0, GAMMA_TH, 9.0):
                assert _link_cdf(x, t, b)[0] == pytest.approx(
                    cdf_conditional_oracle(x, t, b), rel=1e-8), (t.nakagami_m, x)

    def test_monotone_nondecreasing(self):
        # up to one ulp of rounding wobble is tolerated where F ~ 1
        t = topo(m=2)
        b = budget_db(10, 10, 10)
        grid = np.linspace(0.0, 200.0, 1000)
        vals = [_link_cdf(x, t, b)[0] for x in grid]
        assert all(later >= earlier - 4 * math.ulp(1.0)
                   for earlier, later in zip(vals, vals[1:]))

    def test_approaches_one(self):
        t = topo(m=2)
        b = budget_db(10, 10, 10)
        assert _link_cdf(1e6 * b.source_snr, t, b)[0] > 1 - 1e-6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _link_cdf(-1.0, topo(), budget_db(10, 10, 10))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_huge_threshold_saturates(self, m):
        # finite, but (o3 x)^k (o2 l3)^m / shifted^(k+m) overflowed here
        x = db_to_linear(3000)
        t, b = topo(m=m), budget_db(10, 10, 10)
        assert _link_cdf(x, t, b)[0] == 1.0
        assert _link_cdf(x, t, replace(b, relay_snr_cap=math.inf))[0] == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overflowed_argument_saturates(self, m):
        # m x / (o1 l1) overflows to inf: every Poisson term is 0, not NaN
        t = topo(m=m, omega_h1=1e-20, omega_h2=1e-20)
        with np.errstate(over="ignore"):
            cdf, ccdf = _link_cdf(db_to_linear(3000), t, budget_db(10, 10, 10))
        assert (cdf, ccdf) == (1.0, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_infinite_interference_cap(self, m):
        # hop 2's race reads s = d / (x + d), inf/inf at l3 = inf; m = 8
        # takes the race's log-space branch.  With no interference cap the
        # relay always sends at its peak, so the link is two capped hops
        t, x = topo(m=m), 3.16
        pk = rank_placement_probs(2, 3, "maxmin").per_user[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf, ccdf = _link_cdf(x, t, LinkBudget(100.0, 100.0, math.inf))
            outage = [outage_probability(x, t, LinkBudget(100.0, 100.0, l3), pk)
                      for l3 in (1e8, 1e12, math.inf)]
        a = m * x / 100.0  # both hops: unit gains at level 100
        assert cdf == pytest.approx(
            gammainc(m, a) + gammaincc(m, a) * gammainc(m, a), rel=1e-12)
        assert ccdf == pytest.approx(gammaincc(m, a) ** 2, rel=1e-12)
        # the outage reaches its limit, bit for bit, by l3 = 1e8
        assert outage[0] == outage[1] == outage[2] > 0
        if m == 1:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rates = [average_throughput(t, LinkBudget(100.0, 100.0, l3), pk)
                         for l3 in (1e8, 1e12, math.inf)]
            assert rates[0] == rates[1] == rates[2] == pytest.approx(1.52536,
                                                                      rel=1e-5)

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_infinite_relay_and_interference_caps(self, m):
        # c = l3 / l2 reads inf/inf at l2 = l3 = inf: the relay sends at
        # its infinite peak, c = 0, and the outage is the one at an
        # infinite relay cap and a finite but huge interference cap
        t = topo(m=m)
        pk = rank_placement_probs(2, 3, "maxmin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outage = [outage_probability(3.16, t, LinkBudget(100.0, math.inf, l3), pk)
                      for l3 in (1e200, math.inf)]
        assert outage[0] == outage[1] < 1.0
        if m == 1:
            assert outage[1] == pytest.approx(3.1435523e-5, rel=1e-7)

    def test_all_levels_infinite_meet_csi_floor(self):
        t, err = topo(m=1), CsiErrorModel(0.05, 0.1, 0.2)
        pk = rank_placement_probs(2, 3, "maxmin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = outage_probability_imperfect(
                GAMMA_TH, t, LinkBudget(math.inf, math.inf, math.inf), err, pk)
        floor = outage_floor_imperfect(GAMMA_TH, err, 2, 3, pk)
        assert exact == pytest.approx(floor, rel=1e-15, abs=0)


LEVELS_DB = range(0, 70, 10)


def link_budgets(level_db):
    """Common-SNR budget, its relay cap 7 dB lower (the cap binds more
    often) and an infinite relay cap (the relay-cap floor)."""
    lam = db_to_linear(level_db)
    return [LinkBudget(lam, cap, lam)
            for cap in (lam, db_to_linear(level_db - 7), math.inf)]


def assert_close(value, reference, rel):
    # relative in the normal range; a subnormal keeps fewer digits
    assert abs(value - reference) <= rel * max(reference, sys.float_info.min)


@st.composite
def link_cases(draw):
    """A topology of shape m in 1..4 with random gains and distances, a
    budget with levels from -10 to 60 dB (or an infinite relay cap) and
    a point x over six decades around the threshold."""
    level = st.floats(-10.0, 60.0)
    gain = st.floats(0.25, 4.0)
    t = topo(m=draw(st.integers(1, 4)), omega_h1=draw(gain),
             omega_h2=draw(gain), omega_f=draw(gain),
             d3=draw(gain), path_loss_exp=2.0)
    cap = draw(st.one_of(level.map(db_to_linear), st.just(math.inf)))
    b = LinkBudget(db_to_linear(draw(level)), cap, db_to_linear(draw(level)))
    return t, b, GAMMA_TH * 10.0 ** draw(st.floats(-4.0, 2.0))


class TestLinkCdfOracle:
    """The positive-form link CDF and CCDF against quadrature over the
    interference gain (scipy, and mpmath at 40 digits), and the
    properties every CDF has."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_quadrature(self, m):
        t = topo(m=m)
        ratios = (0.0, 0.05, 0.2) if m == 1 else ()
        csis = [None] + [CsiErrorModel(r, r, r)
                         for r in ratios]
        x = np.array([1e-3, 1.0, 30.0]) * GAMMA_TH
        for level_db in LEVELS_DB:
            for b in link_budgets(level_db):
                for csi in csis:
                    cdf, ccdf = _link_cdf(x, t, b, csi)
                    for point, f, g in zip(x, cdf, ccdf):
                        ref_f, ref_g = link_cdf_quad(point, t, b, csi)
                        assert_close(f, ref_f, 1e-13)
                        assert_close(g, ref_g, 1e-13)
                    assert _link_cdf(x[1], t, b, csi)[0] == cdf[1]

    @pytest.mark.parametrize("m, level_db, cap, x", [
        (2, 40, True, 1.0),  # fig1's top point, where the former sum cancelled
        (3, 60, True, 1.0),
        (4, 60, True, 1.0),
        (4, 60, False, 1e-3),
        (1, 0, True, 30.0),
        (3, 20, False, 30.0),
    ])
    def test_matches_mpmath(self, m, level_db, cap, x):
        pytest.importorskip("mpmath")
        from oracles import link_cdf_mpmath

        t, lam = topo(m=m), db_to_linear(level_db)
        b = LinkBudget(lam, lam if cap else math.inf, lam)
        cdf, ccdf = _link_cdf(x * GAMMA_TH, t, b)
        ref_f, ref_g = link_cdf_mpmath(x * GAMMA_TH, t, b)
        assert_close(cdf, float(ref_f), 1e-14)
        assert_close(ccdf, float(ref_g), 1e-14)

    # F + G rounds to 1 within 4 ulp up to m = 2.  Beyond, the race's
    # binomial terms raise r and s to powers up to 2m - 1, and both carry
    # the one rounding of x + d: 1e5 random cases reach 4.5 ulp at m = 3
    # and 6 ulp at m = 4
    @settings(max_examples=200, deadline=None)
    @given(link_cases())
    def test_unit_interval_and_complement(self, case):
        t, b, x = case
        cdf, ccdf = _link_cdf(x, t, b)
        assert 0.0 <= cdf <= 1.0 and 0.0 <= ccdf <= 1.0
        ulps = max(4, 2 * t.nakagami_m)
        assert abs(cdf + ccdf - 1.0) <= ulps * math.ulp(1.0)

    # nondecreasing up to the 1e-13 relative rounding of each value
    @settings(max_examples=200, deadline=None)
    @given(link_cases(), st.floats(1.0, 100.0))
    def test_nondecreasing_in_x(self, case, factor):
        t, b, x = case
        cdf, ccdf = _link_cdf(np.array([x, factor * x]), t, b)
        assert cdf[1] >= cdf[0] * (1 - 1e-13)
        assert ccdf[1] <= ccdf[0] * (1 + 1e-13)

    @settings(max_examples=200, deadline=None)
    @given(link_cases(), st.floats(0.0, 30.0))
    def test_nonincreasing_in_common_snr(self, case, step_db):
        t, _, x = case
        low, high = (LinkBudget(*(db_to_linear(s),) * 3)
                     for s in (0.0, step_db))
        assert (_link_cdf(x, t, high)[0]
                <= _link_cdf(x, t, low)[0] * (1 + 1e-13))


@st.composite
def outage_cases(draw):
    """A link case on a shape with M*N <= 30 and a random rank law."""
    t, b, x = draw(link_cases())
    num_users = draw(st.integers(1, 5))
    num_relays = draw(st.integers(num_users, 30 // num_users))
    t = replace(t, num_users=num_users, num_relays=num_relays)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return t, b, x, rng.dirichlet(np.ones(num_users * num_relays))


class TestOutageProperties:
    @settings(max_examples=150, deadline=None)
    @given(outage_cases(), st.floats(1.0, 100.0))
    def test_unit_interval_and_monotone_in_threshold(self, case, factor):
        t, b, x, pk = case
        low = outage_probability(x, t, b, pk)
        high = outage_probability(factor * x, t, b, pk)
        assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
        assert high >= low * (1 - 1e-13)

    @settings(max_examples=150, deadline=None)
    @given(outage_cases(), st.floats(0.0, 30.0))
    def test_nonincreasing_in_common_snr(self, case, step_db):
        t, _, x, pk = case
        low, high = (LinkBudget(*(db_to_linear(s),) * 3)
                     for s in (10.0, 10.0 + step_db))
        assert outage_probability(x, t, high, pk) <= \
            outage_probability(x, t, low, pk) * (1 + 1e-13)


def binomial_tail_oracle(cdf_value, k, n):
    """CDF of the k-th largest of n, at parent CDF ``cdf_value``, as an
    exact rational: at least n-k+1 of the n draws fall at or below."""
    f = Fraction(cdf_value)
    return sum(math.comb(n, j) * f ** j * (1 - f) ** (n - j)
               for j in range(n - k + 1, n + 1))


class TestCdfKthLargest:
    def test_maximum(self):
        assert cdf_kth_largest(0.37, 1, 6) == pytest.approx(0.37 ** 6, rel=1e-12)

    def test_minimum_via_alternating_sum(self):
        # the k = n case must reproduce 1 - (1-F)^n
        for f in (0.05, 0.4, 0.9):
            assert cdf_kth_largest(f, 6, 6) == pytest.approx(
                1 - (1 - f) ** 6, rel=1e-10)

    def test_second_largest_of_four_vs_monte_carlo(self):
        rng = np.random.default_rng(22)
        trials = 1_000_000
        draws = np.sort(rng.random((trials, 4)), axis=1)
        second_largest = draws[:, 2]
        hit = np.mean(second_largest <= 0.5)
        expected = cdf_kth_largest(0.5, 2, 4)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hit - expected) <= 3 * se

    def test_stays_in_unit_interval_on_grid(self):
        for n in (4, 9, 16):
            for k in range(1, n + 1):
                for f in np.linspace(0.0, 1.0, 41):
                    assert 0.0 <= cdf_kth_largest(f, k, n) <= 1.0

    def test_rejects_bad_cdf_value(self):
        with pytest.raises(ValueError):
            cdf_kth_largest(1.2, 1, 4)

    # F from 1e-3 up: each term carries a relative error of about
    # |log term| * 2**-53 from its log-space form, which reaches 1e-13
    # only for terms near the float underflow
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(1, n))),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.0),
                     st.integers(1, 50).map(lambda e: 1.0 - 2.0 ** -e)))
    def test_matches_rational_binomial_tail(self, shape, f):
        n, k = shape
        exact = binomial_tail_oracle(f, k, n)
        value = cdf_kth_largest(f, k, n)
        assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 13) * exact

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(1, n))),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nondecreasing_in_cdf_value_and_rank(self, shape, a, b):
        n, k = shape
        lo, hi = sorted((a, b))
        # adjacent values may round either way: compare points whose
        # exact tails differ by more than the 1e-13 rounding of each
        assume(binomial_tail_oracle(hi, k, n)
               > (1 + 3e-13) * binomial_tail_oracle(lo, k, n))
        assert cdf_kth_largest(hi, k, n) >= cdf_kth_largest(lo, k, n)
        values = [cdf_kth_largest(lo, j, n) for j in range(1, n + 1)]
        assert all(later >= earlier
                   for earlier, later in zip(values, values[1:]))

    # the tail's mean sits at k = 1400; k = 1 underflows to 0
    @pytest.mark.parametrize("k", [1, 1200, 1300, 1400, 1450, 2000])
    def test_large_n_matches_scipy(self, k):
        # C(2000, 1000) alone is beyond the float range
        assert cdf_kth_largest(0.3, k, 2000) == pytest.approx(
            binom.sf(2000 - k, 2000, 0.3), rel=1e-12, abs=1e-300)


class TestOutageProbability:
    def test_single_link_reduces_to_cdf(self):
        t = topo(1, 1, 2)
        b = budget_db(10, 10, 10)
        assert outage_probability(GAMMA_TH, t, b, [1.0]) == pytest.approx(
            _link_cdf(GAMMA_TH, t, b)[0], rel=1e-14)

    def test_threshold_limits(self):
        t = topo()
        b = budget_db(10, 10, 10)
        pk = rank_placement_probs(2, 3, "maxmin")
        assert outage_probability(1e-12, t, b, pk) < 1e-9
        assert outage_probability(1e9, t, b, pk) == pytest.approx(1.0, abs=1e-9)

    def test_random_scheme_equals_single_link_cdf(self):
        # a blind uniform pick lands on each rank with probability 1/(MN),
        # and the rank mixture then collapses to the parent CDF
        t = topo()
        b = budget_db(10, 10, 10)
        uniform = np.full(6, 1 / 6)
        assert outage_probability(GAMMA_TH, t, b, uniform) == pytest.approx(
            _link_cdf(GAMMA_TH, t, b)[0], rel=1e-12)

    @pytest.mark.parametrize("f", [1e-3, 0.3, 0.9])
    def test_uniform_ranks_give_parent_cdf(self, f):
        # the same collapse at M*N = 1000, a shape the parser admits for
        # the random scheme
        n = 1000
        assert _outage(f, 1.0 - f, 1, n, [1.0 / n] * n) == pytest.approx(
            f, rel=1e-12)


class TestGFactor:
    def test_rayleigh_unit_gains(self):
        assert g_factor(topo(1, 1, 1)) == pytest.approx(2 + math.exp(-1),
                                                        rel=1e-14)

    def test_positive(self):
        for m in (1, 2, 3, 5):
            assert g_factor(topo(m=m)) > 0
        assert g_factor(topo(m=2, omega_h1=0.5, omega_f=2.0)) > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_factorial_form(self, m):
        for kw in ({}, {"omega_h1": 0.5, "omega_f": 2.0},
                   {"omega_h2": 3.0, "d2": 2.0, "d3": 0.5,
                    "path_loss_exp": 3.7}):
            t = topo(1, 1, m, **kw)
            assert g_factor(t) == pytest.approx(g_factor_factorial(t), rel=1e-14)

    def test_finite_past_factorial_overflow(self):
        # the factorial form overflows from m = 86, where (2m-1)! is
        # beyond the float range, and the asymptote read inf
        mp = pytest.importorskip("mpmath")
        from oracles import g_factor_mpmath
        t = topo(1, 1, 180)
        with pytest.raises(OverflowError):
            g_factor_factorial(t)
        snr = db_to_linear(20)
        got = asymptotic_outage_case1(GAMMA_TH, snr, t)
        with mp.workdps(40):
            want = g_factor_mpmath(t) * mp.mpf(GAMMA_TH / snr) ** 180
        assert math.isfinite(got)
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("m", [515, 516, 600, 1000])
    def test_case1_meets_mpmath_past_g_factor_overflow(self, m):
        # g_factor leaves the float range from m = 516 at unit gains,
        # where the asymptote read inf at every level.  It is now one
        # exponential of its log, so it meets a 40-digit reference, or
        # reads 0.0 where that reference is below the float range
        mp = pytest.importorskip("mpmath")
        from oracles import g_factor_mpmath
        t = topo(2, 3, m)
        assert (g_factor(t) == math.inf) == (m >= 516)
        for level_db in (10, 40):
            x = GAMMA_TH / db_to_linear(level_db)
            got = asymptotic_outage_case1(GAMMA_TH, db_to_linear(level_db), t)
            with mp.workdps(40):
                want = (worst_case_rank_prob(2, 3) * math.comb(6, 3)
                        * (g_factor_mpmath(t) * mp.mpf(x) ** m) ** 3)
                tiny = want < mp.mpf(2) ** -1075  # rounds to 0.0
            if tiny:
                assert got == 0.0, (m, level_db)
            else:
                assert got == pytest.approx(float(want), rel=1e-11), (m, level_db)

    def test_matches_numeric_high_snr_limit(self):
        for m in (1, 2):
            t = topo(1, 1, m)
            lam = 1e6
            b = LinkBudget(lam, lam, lam)
            x = 1.0
            est = _link_cdf(x, t, b)[0] * lam ** m / x ** m
            assert est == pytest.approx(g_factor(t), rel=1e-3), m


class TestAsymptotics:
    def test_case1_ratio_converges(self):
        t = topo()
        pk = rank_placement_probs(2, 3, "maxmin")
        lam = db_to_linear(60)
        b = LinkBudget(lam, lam, lam)
        exact = outage_probability(GAMMA_TH, t, b, pk)
        asym = asymptotic_outage_case1(GAMMA_TH, lam, t)
        assert 0.95 <= asym / exact <= 1.05

    def test_threshold_homogeneity(self):
        t = topo()
        lam = db_to_linear(50)
        ratio = (asymptotic_outage_case1(2 * GAMMA_TH, lam, t)
                 / asymptotic_outage_case1(GAMMA_TH, lam, t))
        assert ratio == pytest.approx(2 ** 6, rel=1e-12)

    def test_case1_huge_threshold(self):
        # the law is taken at gamma_th / snr: it overflows only where its
        # value does, and then reads inf instead of raising
        t, huge = topo(), db_to_linear(3000)
        assert asymptotic_outage_case1(huge, 1.0, t) == math.inf
        assert asymptotic_outage_case1(huge, huge, t) == pytest.approx(
            array_gain(1.0, t), rel=1e-12)

    def test_array_gain_hand_formula_square_rayleigh(self):
        t = topo(2, 2, 1)
        g = g_factor(t)
        hand = (2 * g ** 2 * math.factorial(4) * GAMMA_TH ** 2 * (1 / 3)
                / (2 * math.factorial(2) * math.factorial(2)))
        assert array_gain(GAMMA_TH, t) == pytest.approx(hand, rel=1e-12)

    def test_case2_equals_large_cap_limit(self):
        pk = rank_placement_probs(3, 3, "maxmin")
        for m in (1, 3):
            t = topo(3, 3, m)
            b = LinkBudget(db_to_linear(25), 1e8, db_to_linear(10))
            exact = outage_probability(GAMMA_TH, t, b, pk)
            floor = asymptotic_outage_case2(GAMMA_TH, t, b, pk)
            assert abs(exact - floor) / floor < 1e-3, m

    def test_case2_rayleigh_hand_form(self):
        t = topo(1, 1, 1)
        b = budget_db(15, 40, 8)
        x = 2.0
        o1, o2, o3 = t.eff_gain_hop1, t.eff_gain_hop2, t.eff_gain_interf
        hand = 1 - math.exp(-x / (o1 * b.source_snr)) \
            * (o2 * b.interference_snr_cap) \
            / (o3 * x + o2 * b.interference_snr_cap)
        assert asymptotic_outage_case2(x, t, b, [1.0]) == pytest.approx(
            hand, rel=1e-12)

    def test_case2_monotone_in_threshold(self):
        t = topo(3, 3, 2)
        b = budget_db(25, 30, 10)
        pk = rank_placement_probs(3, 3, "maxmin")
        vals = [asymptotic_outage_case2(x, t, b, pk)
                for x in np.linspace(0.1, 20, 50)]
        assert all(later >= earlier for earlier, later in zip(vals, vals[1:]))

    def test_independent_of_relay_cap(self):
        t = topo(3, 3, 2)
        pk = rank_placement_probs(3, 3, "maxmin")
        a = asymptotic_outage_case2(GAMMA_TH, t, budget_db(25, 20, 10), pk)
        b = asymptotic_outage_case2(GAMMA_TH, t, budget_db(25, 60, 10), pk)
        assert a == b


class TestWorstCaseRankProb:
    def test_single_user(self):
        assert worst_case_rank_prob(1, 1) == 1.0
        assert worst_case_rank_prob(1, 5) == 1.0

    def test_square_two_by_two(self):
        assert worst_case_rank_prob(2, 2) == pytest.approx(1 / 3, rel=1e-15)

    def test_matches_enumeration(self):
        for num_users, num_relays in [(2, 2), (2, 3), (3, 3), (2, 4), (2, 5)]:
            d = rank_placement_probs(num_users, num_relays, "maxmin")
            enum = d.probs[d.worst_rank - 1]
            assert worst_case_rank_prob(num_users, num_relays) == \
                pytest.approx(enum, abs=1e-15), (num_users, num_relays)


class TestImperfectCsi:
    t34 = topo(3, 4, 1)

    def test_zero_error_reverts_to_perfect(self):
        err = CsiErrorModel(0.0, 0.0, 0.0)
        b = budget_db(18, 18, 18)
        for x in np.linspace(0.01, 30, 120):
            assert _link_cdf(x, self.t34, b, err)[0] == pytest.approx(
                _link_cdf(x, self.t34, b)[0], abs=1e-12)

    def test_zero_at_origin(self):
        err = CsiErrorModel(0.05, 0.05, 0.05)
        assert _link_cdf(0.0, self.t34, budget_db(18, 18, 18), err)[0] == 0.0

    def test_rejects_nonrayleigh(self):
        err = CsiErrorModel(0, 0, 0)
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            _link_cdf(1.0, topo(m=2), budget_db(10, 10, 10), err)

    def test_floor_vanishes_without_error(self):
        err = CsiErrorModel(0.0, 0.0, 0.0)
        pk = rank_placement_probs(3, 4, "maxmin")
        assert outage_floor_imperfect(GAMMA_TH, err, 3, 4, pk) == 0.0

    def test_floor_equals_high_snr_limit(self):
        err = CsiErrorModel(0.05, 0.05, 0.05)
        pk = rank_placement_probs(3, 4, "maxmin")
        lam = 1e8
        b = LinkBudget(lam, lam, lam)
        exact = outage_probability_imperfect(GAMMA_TH, self.t34, b, err, pk)
        floor = outage_floor_imperfect(GAMMA_TH, err, 3, 4, pk)
        assert abs(exact - floor) / floor < 1e-3

    def test_floor_monotone_in_error_ratio(self):
        pk = rank_placement_probs(2, 2, "maxmin")
        floors = []
        for ratio in (0.01, 0.05, 0.1, 0.2):
            err = CsiErrorModel(ratio, ratio, ratio)
            floors.append(outage_floor_imperfect(GAMMA_TH, err, 2, 2, pk))
        assert all(later > earlier for earlier, later in zip(floors, floors[1:]))


def kth_largest_ccdf(cdf_value, ccdf_value, k, n):
    """P(k-th largest of n i.i.d. > x) = 1 - sum_{j>=n-k+1} C(n,j)
    F^j (1-F)^(n-j), taken as the complementary binomial sum over
    j <= n-k: every term is positive, so nothing cancels."""
    return math.fsum(math.comb(n, j) * cdf_value ** j * ccdf_value ** (n - j)
                     for j in range(n - k + 1))


def max_min_support_pk(num_users, num_relays):
    """Equal weight on every rank a max-min selected SNR can take,
    1..(M-1)N+1."""
    support = (num_users - 1) * num_relays + 1
    return [1.0 / support] * support


def h_quad(j, at, d):
    val, _ = integrate.quad(
        lambda x: math.exp(-at * x) / ((x + 1.0) * (x + d) ** j), 0.0, np.inf,
        limit=400, epsabs=1e-14, epsrel=1e-12)
    return val


class TestHIntegral:
    def test_baseline_exponential_integral(self):
        assert h_integral(0, 1.0, 1.0) == pytest.approx(0.5963473623231940,
                                                        rel=1e-12)

    def test_spot_values_vs_quadrature(self):
        assert h_integral(1, 1.0, 2.0) == pytest.approx(h_quad(1, 1.0, 2.0),
                                                        rel=1e-8)
        assert h_integral(3, 0.7, 0.5) == pytest.approx(h_quad(3, 0.7, 0.5),
                                                        rel=1e-8)

    def test_full_grid_vs_quadrature(self):
        grid = [(j, at, d) for j in range(0, 7) for d in (0.25, 1.0, 4.0)
                for at in (0.1, 1.0, 10.0)]
        # large j and at, where the paper's partial fractions cancel
        grid += [(15, 30.0, 1.0), (19, 38.0, 1.0), (19, 38.0, 1.3)]
        for j, at, d in grid:
            assert h_integral(j, at, d) == pytest.approx(
                h_quad(j, at, d), rel=1e-10), (j, at, d)

    def test_near_degenerate_denominator(self):
        # the partial-fraction route divides by (d-1)^j; the expansion
        # around d = 1 has to take over smoothly
        for d in (0.999, 0.99999, 1.00001, 1.001, 1.2, 0.8):
            for j in (1, 2, 5):
                assert h_integral(j, 1.3, d) == pytest.approx(
                    h_quad(j, 1.3, d), rel=1e-9), (j, d)

    @pytest.mark.parametrize("d", [0.8, 0.95, 1.0, 1.1, 1.2, 0.5, 1.3, 4.0])
    def test_equals_row_entry(self, d):
        # the paper's closed form in tests/oracles.py, inside its Taylor
        # window (|d-1| < 0.25) and outside it
        for at in (0.2, 3.0):
            for t in range(13):
                row = h_row(t, at, d)
                assert len(row) == t + 1
                for j in range(t + 1):
                    assert h_closed(j, at, d) == row[j], (j, t, at, d)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            h_integral(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            h_integral(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            h_integral(1, 1.0, 0.0)


class TestAverageThroughput:
    @pytest.mark.parametrize("l3", [100.0, math.inf])
    def test_infinite_source_and_relay_levels_refused(self, l3):
        # the rule's last node is 750/a, a = 1/(o1 l1) + 1/(o2 l2) = 0; at
        # a finite l3 hop 2 is interference-limited and the rate finite
        with pytest.raises(ValueError, match="source_snr=inf and relay_snr_cap=inf"):
            average_throughput(topo(m=1), LinkBudget(math.inf, math.inf, l3),
                               [1.0])

    def test_single_link_vs_quadrature(self):
        t = topo(1, 1, 1)
        b = budget_db(25, 10, 10)
        closed = average_throughput(t, b, [1.0])

        def integrand(x):
            return (1 - cdf_min_snr_rayleigh(x, t, b)) / (1 + x)

        ref, _ = integrate.quad(integrand, 0.0, np.inf, limit=800,
                                epsabs=1e-13, epsrel=1e-12)
        ref /= 2 * math.log(2)
        assert closed == pytest.approx(ref, rel=1e-8)

    def test_two_user_mixture_vs_quadrature(self):
        t = topo(2, 2, 1)
        b = budget_db(20, 12, 6)
        pk = rank_placement_probs(2, 2, "maxmin")
        closed = average_throughput(t, b, pk)

        def ccdf(x):
            f = cdf_min_snr_rayleigh(x, t, b)
            return sum(p * (1 - cdf_kth_largest(f, k, 4))
                       for k, p in enumerate(pk.probs, start=1) if p > 0)

        ref, _ = integrate.quad(lambda x: ccdf(x) / (1 + x), 0.0, np.inf,
                                limit=800, epsabs=1e-13, epsrel=1e-12)
        ref /= 2 * 2 * math.log(2)
        assert closed == pytest.approx(ref, rel=1e-8)

    # (4, 6) and (5, 6) are shapes the paper's alternating sum over
    # orders cancels at by 6e8 and 3e11
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 4), (3, 4),
                                       (4, 6), (5, 6)])
    @pytest.mark.parametrize("l3", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("l1, l2", [(0.0, 0.0), (25.0, 10.0)])
    def test_taylor_window_vs_quadrature(self, shape, l3, l1, l2):
        # unit gains make d the linear interference cap: 1, 1.122, 0.891,
        # inside the closed form's former Taylor window around d = 1
        num_users, num_relays = shape
        mn = num_users * num_relays
        t = topo(num_users, num_relays, 1)
        b = budget_db(l1, l2, l3)
        a, bb, d = throughput_params(t, b)
        c = d * (1.0 - bb)
        assert abs(d - 1.0) < 0.25
        pk = (rank_placement_probs(num_users, num_relays, "maxmin").probs
              if mn <= 10 else max_min_support_pk(num_users, num_relays))
        closed = average_throughput(t, b, pk)

        def integrand(x):
            miss = math.exp(-a * x) * (bb + c / (x + d))  # 1 - link CDF
            return math.fsum(p * kth_largest_ccdf(1.0 - miss, miss, k, mn)
                             for k, p in enumerate(pk, start=1) if p > 0) / (1 + x)

        ref, _ = integrate.quad(integrand, 0.0, np.inf, limit=800,
                                epsabs=0.0, epsrel=1e-13)
        ref /= 2 * num_users * math.log(2)
        assert closed == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4)])
    @pytest.mark.parametrize("level_db", [-150.0, -200.0, -250.0])
    def test_low_snr_matches_paper_closed_form(self, shape, level_db):
        # the integrand's mass sits at x ~ 1/a, far below x = 1; the
        # paper's closed form cancels little at these shapes.  No
        # absolute tolerance: approx's default 1e-12 would pass any of
        # these values, 1e-26 to 1e-16
        t = topo(*shape, 1)
        b = budget_db(level_db, level_db, 10)
        pk = rank_placement_probs(*shape, "maxmin")
        assert average_throughput(t, b, pk) == pytest.approx(
            average_throughput_closed(t, b, pk), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("l3", [-60.0, -100.0, -120.0, -140.0, -150.0])
    def test_interference_limited_head(self, monkeypatch, l3):
        # 2x3 max-min at 100 dB source and relay powers: hop 2's SNR
        # scale d = o2 l3 / o3 lies far below 1/a, so a rule that starts
        # at e^-40 min(1, 1/a) drops a head of up to 4.9e-5 of the
        # integral (at -150 dB).  The reference is a rule of step 0.05
        # that starts at e^-160 times the same scale
        t = topo(2, 3, 1)
        b = budget_db(100, 100, l3)
        pk = rank_placement_probs(2, 3, "maxmin")
        got = average_throughput(t, b, pk)
        monkeypatch.setattr(analytic, "_STEP", 0.05)
        monkeypatch.setattr(analytic, "_S_SPAN", 160.0)
        want = average_throughput(t, b, pk)
        assert abs(got - want) <= 1e-10 * want

    def test_interference_limited_matches_mpmath(self):
        # the head case at its deepest level (-150 dB), against the
        # integral of S(x) / (1+x) at 40 digits: the Rayleigh link CDF in
        # closed form, e^-(a x) (b + (1-b) d/(x+d)) its CCDF, and S its
        # binomial mixture with the exact pk of every rank order.  S is
        # about 1 below hop 2's scale d = 1e-15 and 6 p1 d/x above it,
        # until the cap-bound part b e^-(a x), b = 1e-25, takes over by
        # 1/a = 5e9, so the interval is split every 1000-fold from d on
        mp = pytest.importorskip("mpmath")
        from assign_oracles import enumerate_rank_counts

        t = topo(2, 3, 1)
        b = budget_db(100, 100, -150)
        counts = [int(c) for c in enumerate_rank_counts(2, 3).sum(axis=0)]
        n = len(counts)
        with mp.workdps(40):
            o1, o2, o3, l1, l2, l3 = map(mp.mpf, (
                t.eff_gain_hop1, t.eff_gain_hop2, t.eff_gain_interf,
                b.source_snr, b.relay_snr_cap, b.interference_snr_cap))
            a = 1 / (o1 * l1) + 1 / (o2 * l2)
            capped = -mp.expm1(-l3 / (o3 * l2))  # P(the relay cap binds)
            d = o2 * l3 / o3
            pk = [mp.mpf(c) / sum(counts) for c in counts]
            # w_j: the ranks above the point when j entries are below it
            w = [mp.fsum(pk[:n - j]) for j in range(n + 1)]

            def survival(x):
                keep = mp.exp(-a * x)
                ccdf = keep * (capped + (1 - capped) * d / (x + d))
                cdf = -mp.expm1(-a * x) + keep * (1 - capped) * x / (x + d)
                return mp.fsum(mp.binomial(n, j) * cdf ** j * ccdf ** (n - j)
                               * w[j] for j in range(n + 1))

            splits = [0] + [d * mp.mpf(10) ** k for k in range(0, 30, 3)] + [mp.inf]
            want = (mp.quad(lambda x: survival(x) / (1 + x), splits)
                    / (2 * t.num_users * mp.log(2)))
        got = average_throughput(t, b, rank_placement_probs(2, 3, "maxmin"))
        assert abs(got - want) <= 1e-10 * want

    def test_hop2_scale_underflow_gives_zero(self):
        # d = o2 l3 / o3 = 1e-300 * 1e-300 rounds to 0: hop 2's SNR is 0,
        # so the integrand is 0 and no head is dropped, where log(d) of
        # the rule's first node would raise
        t = topo(1, 2, 1, omega_h2=1e-300)
        assert average_throughput(t, LinkBudget(100.0, 1e300, 1e-300),
                                  [0.5, 0.5]) == 0.0

    def test_rejects_nonrayleigh(self):
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            average_throughput(topo(m=2), budget_db(10, 10, 10), [1.0])

    def test_nonnegative(self):
        t = topo(1, 1, 1)
        b = LinkBudget(1e-6, 1e-6, 1e-6)
        assert average_throughput(t, b, [1.0]) >= 0.0


def throughput_per_budget(topology, budget, pk):
    """:func:`average_throughput` at one budget, from its own trapezoid
    rule, read whole in one kernel call at the budget's scalar levels."""
    probs = np.concatenate((pk, np.zeros(topology.num_users
                                         * topology.num_relays - len(pk))))
    weights = np.concatenate(([0.0], np.cumsum(probs)))[::-1]
    a = (1.0 / (topology.eff_gain_hop1 * budget.source_snr)
         + 1.0 / (topology.eff_gain_hop2 * budget.relay_snr_cap))
    d = (topology.eff_gain_hop2 * budget.interference_snr_cap
         / topology.eff_gain_interf)
    x, node_weights = _log_trapezoid(a, d)
    integral = node_weights @ _binomial_mixture(
        *_link_cdf(x, topology, budget), weights)
    return float(integral) / (2.0 * topology.num_users * math.log(2.0))


level_db = st.floats(-30.0, 70.0)


@st.composite
def throughput_sweeps(draw):
    """A Rayleigh topology of a shape up to 4x6 with random gains and
    distances, up to 30 budgets with levels from -30 to 70 dB (or an
    infinite relay cap), and rank-law rows: naive's per-user rows or one
    random law."""
    num_users, num_relays = draw(st.sampled_from(
        [(1, 1), (1, 4), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4), (4, 6)]))
    gains = draw(st.tuples(*[st.floats(0.2, 5.0)] * 6))
    t = NetworkTopology(num_users, num_relays, 1, *gains[:3],
                        d1=gains[3], d2=gains[4],
                        d3=gains[5], path_loss_exp=2.0)
    levels = draw(st.lists(st.tuples(level_db, level_db | st.just(math.inf),
                                     level_db),
                           min_size=1, max_size=30))
    budgets = [LinkBudget(db_to_linear(l1),
                          math.inf if l2 == math.inf else db_to_linear(l2),
                          db_to_linear(l3))
               for l1, l2, l3 in levels]
    if draw(st.booleans()):
        rows = rank_placement_probs(num_users, num_relays, "naive").per_user
    else:
        pk = np.random.default_rng(draw(st.integers(0, 2**16))).random(
            num_users * num_relays)
        rows = [pk / pk.sum()]
    return t, budgets, rows


class TestBatchedThroughput:
    """A sequence of budgets is read by joined kernel calls, and each
    value equals, bit for bit, the one its budget gives alone; a budget
    whose rule is longer than one call is read in pieces, within 1e-13
    of that value.  A rule takes at most 340 nodes at these levels."""

    @settings(max_examples=40, deadline=None)
    @given(sweep=throughput_sweeps(),
           per_call=st.sampled_from([None, 340, 1000]))
    def test_equals_per_budget_form(self, sweep, per_call):
        t, budgets, rows = sweep
        with pytest.MonkeyPatch.context() as patch:
            if per_call is not None:
                patch.setattr(analytic, "_nodes_per_call", lambda _: per_call)
            for row in rows:
                batched = average_throughput(t, budgets, row)
                assert batched == [throughput_per_budget(t, b, row)
                                   for b in budgets]
                assert batched == [average_throughput(t, b, row)
                                   for b in budgets]

    @settings(max_examples=20, deadline=None)
    @given(sweep=throughput_sweeps(), per_call=st.sampled_from([16, 100, 300]))
    def test_pieces_meet_per_budget_form(self, sweep, per_call):
        t, budgets, rows = sweep
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytic, "_nodes_per_call", lambda _: per_call)
            for row in rows:
                batched = average_throughput(t, budgets, row)
                for value, b in zip(batched, budgets):
                    assert value == pytest.approx(
                        throughput_per_budget(t, b, row), rel=1e-13, abs=0)

    def test_wide_shape_memory_bounded(self):
        # naive 1x2000 over 17 relay caps: 4096 nodes per call, whatever
        # the shape, held 2001-wide term arrays of 64 MB each (118.6 MiB
        # traced peak); sized by the shape, a call reads 16 nodes, so
        # each rule is read in pieces (0.75 MiB measured)
        t = topo(1, 2000, 1)
        pk = rank_placement_probs(1, 2000, "naive")
        budgets = [budget_db(25.0, l2, 10.0) for l2 in np.linspace(0.0, 40.0, 17)]
        tracemalloc.start()
        try:
            values = average_throughput(t, budgets, pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for value, b in zip(values, budgets):
            assert value == pytest.approx(throughput_per_budget(t, b, pk.probs),
                                          rel=1e-13, abs=0)

    def test_long_sweep_memory_bounded(self):
        # 9984 relay caps from 0 to 60 dB at 2x4: with every rule, node
        # and level built up front the sweep peaked at 121 MiB of traced
        # memory; built call by call it takes 1.3 MiB, with the same bits
        t = topo(2, 4, 1)
        budgets = [budget_db(25.0, l2, 10.0) for l2 in np.linspace(0.0, 60.0, 9984)]
        pk = rank_placement_probs(2, 4, "maxmin")
        tracemalloc.start()
        try:
            values = average_throughput(t, budgets, pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert values == average_throughput_joined(t, budgets, pk)

    def test_sequence_gives_list(self):
        t, b = topo(2, 3, 1), budget_db(25, 10, 10)
        pk = rank_placement_probs(2, 3, "maxmin")
        assert average_throughput(t, (b, b), pk) == [average_throughput(t, b, pk)] * 2
        assert average_throughput(t, [], pk) == []
        assert isinstance(average_throughput(t, b, pk), float)


class TestRace:
    """The Poisson race of the link CDF: products up to
    ``_PRODUCT_RACE_M``, log-space terms above."""

    @staticmethod
    def inputs(m, x):
        x = np.asarray(x, dtype=float)
        _, _, poi_a = _regularized_gamma(m, 1.3 * x)
        _, _, poi_b = _regularized_gamma(m, 0.7 * x + 0.5)
        return poi_a, poi_b, x / (x + 2.0), 2.0 / (x + 2.0)

    GRID = np.concatenate(([0.0], np.logspace(-3, 3, 40)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_products_unchanged(self, m):
        # bit for bit the sums the closed forms were formed from
        for got, want in zip(_race(m, *self.inputs(m, self.GRID)),
                             race_products(m, *self.inputs(m, self.GRID))):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 12])
    def test_log_space_matches_products(self, monkeypatch, m):
        monkeypatch.setattr(analytic, "_PRODUCT_RACE_M", 0)
        poi_a, poi_b, r, s = self.inputs(m, self.GRID)
        # r = 0 at the first point and, appended, s = 0 at the last
        r, s = np.append(r, 1.0), np.append(s, 0.0)
        poi_a, poi_b = np.vstack((poi_a, poi_a[-1])), np.vstack((poi_b, poi_b[-1]))
        win_a, win_b = _race(m, poi_a, poi_b, r, s)
        want_a, want_b = race_products(m, poi_a, poi_b, r, s)
        np.testing.assert_allclose(win_a, want_a, rtol=1e-13, atol=0)
        np.testing.assert_allclose(win_b, want_b, rtol=1e-13, atol=0)
        # with no chance of its own, a process wins no race
        assert win_a[0] == want_a[0] == 0.0
        assert win_b[-1] == want_b[-1] == 0.0

    @pytest.mark.parametrize("x, r", [(480.0, 0.5), (520.0, 0.3), (560.0, 0.52)])
    def test_beyond_float_binomials_against_scipy(self, x, r):
        # C(1039, 519) is about 1e311: the product form raises here
        m = 520
        poi_a, poi_b, _, _ = self.inputs(m, x)
        got = _race(m, poi_a, poi_b, r, 1.0 - r)
        want = race_binom(m, poi_a, poi_b, r)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        with pytest.raises(OverflowError):
            race_products(m, poi_a, poi_b, r, 1.0 - r)

    def test_link_cdf_at_large_shape(self):
        t = topo(1, 1, 520)
        cdf, ccdf = _link_cdf(9.0, t, budget_db(10, 10, 10))
        assert 0.0 < cdf < 1.0
        assert cdf + ccdf == pytest.approx(1.0, rel=1e-12)
