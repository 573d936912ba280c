"""Closed-form checks against independent oracles: conditional-form
quadrature for the link CDF, order-statistic Monte Carlo, exhaustive
rank enumeration, numeric high-SNR limits and adaptive quadrature for
the throughput integrals."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc, gammaincc
from scipy.stats import binom

from cogrelay.analytic import (
    _share_ksum,
    _throughput_params,
    array_gain,
    asymptotic_outage_case1,
    asymptotic_outage_case2,
    average_throughput,
    cdf_kth_largest,
    cdf_min_snr,
    cdf_min_snr_imperfect,
    g_factor,
    h_integral,
    outage_floor_imperfect,
    outage_from_cdf,
    outage_probability,
    outage_probability_imperfect,
    worst_case_rank_prob,
)
from cogrelay.model import CsiErrorModel, LinkBudget, NetworkTopology, db_to_linear
from cogrelay.selection import rank_placement_probs
from oracles import (
    average_throughput_closed,
    budget_db,
    cdf_min_snr_rayleigh,
    h_closed,
    h_row,
)

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
        assert cdf_min_snr(0.0, topo(), budget_db(10, 10, 10)) == 0.0

    def test_rayleigh_reduction_identity(self):
        t = topo(m=1)
        b = budget_db(14, 7, 3)
        for x in np.linspace(0.01, 40, 150):
            assert cdf_min_snr(x, t, b) == pytest.approx(
                cdf_min_snr_rayleigh(x, t, b), abs=1e-12)

    def test_against_conditional_quadrature(self):
        cases = [
            (topo(m=2), budget_db(10, 10, 10)),
            (topo(m=3), budget_db(25, 8, 10)),
            (topo(m=1, mean_gain_hop2=2.0, mean_gain_interf=0.5),
             budget_db(12, 6, 0)),
        ]
        for t, b in cases:
            for x in (0.3, 1.0, GAMMA_TH, 9.0):
                assert cdf_min_snr(x, t, b) == pytest.approx(
                    cdf_conditional_oracle(x, t, b), rel=1e-8), (t.nakagami_m, x)

    def test_monotone_nondecreasing(self):
        # up to one ulp of rounding wobble is tolerated where F ~ 1
        t = topo(m=2)
        b = budget_db(10, 10, 10)
        grid = np.linspace(0.0, 200.0, 1000)
        vals = [cdf_min_snr(x, t, b) for x in grid]
        assert all(later >= earlier - 4 * math.ulp(1.0)
                   for earlier, later in zip(vals, vals[1:]))

    def test_approaches_one(self):
        t = topo(m=2)
        b = budget_db(10, 10, 10)
        assert cdf_min_snr(1e6 * b.source_snr, t, b) > 1 - 1e-6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cdf_min_snr(-1.0, topo(), budget_db(10, 10, 10))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_huge_threshold_saturates(self, m):
        # finite, but (o3 x)^k (o2 l3)^m / shifted^(k+m) overflowed here
        x = db_to_linear(3000)
        t, b = topo(m=m), budget_db(10, 10, 10)
        assert cdf_min_snr(x, t, b) == 1.0
        assert cdf_min_snr(x, t, replace(b, relay_snr_cap=math.inf)) == 1.0


def power_form_ksum(a, b, weights):
    """The k-sum of the link CDF in its former power form,
    a^m b^k w_k / (k! (a+b)^(k+m)), or None where a power or a product
    leaves the range of normal finite floats."""
    m = len(weights)
    terms = []
    for k, weight in enumerate(weights):
        try:
            num = a ** m * b ** k * weight
            den = math.factorial(k) * (a + b) ** (k + m)
        except OverflowError:
            return None
        if not all(sys.float_info.min <= v < math.inf for v in (num, den)):
            return None
        terms.append(num / den)
    return math.fsum(terms)


class TestShareKsum:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-120, 120), st.floats(-120, 120),
           st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3))
    def test_matches_power_form(self, log_a, log_b, weights):
        a, b = 10.0 ** log_a, 10.0 ** log_b
        old = power_form_ksum(a, b, weights)
        assume(old is not None and old >= sys.float_info.min)
        assert _share_ksum(a, b, weights) == pytest.approx(old, rel=1e-13)

    def test_huge_arguments(self):
        # every ratio is at most 1: k = 0 keeps its full weight
        assert _share_ksum(1e300, 1.0, [2.0, 3.0]) == pytest.approx(2.0, rel=1e-15)
        assert _share_ksum(1.0, 1e300, [2.0, 3.0]) == 0.0


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
            cdf_min_snr(GAMMA_TH, t, b), rel=1e-14)

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
            cdf_min_snr(GAMMA_TH, t, b), rel=1e-12)

    @pytest.mark.parametrize("f", [1e-3, 0.3, 0.9])
    def test_uniform_ranks_give_parent_cdf(self, f):
        # the same collapse at M*N = 1000, a shape the parser admits for
        # the random scheme
        n = 1000
        assert outage_from_cdf(f, 1, n, [1.0 / n] * n) == pytest.approx(
            f, rel=1e-12)


class TestGFactor:
    def test_rayleigh_unit_gains(self):
        assert g_factor(topo(1, 1, 1)) == pytest.approx(2 + math.exp(-1),
                                                        rel=1e-14)

    def test_positive(self):
        for m in (1, 2, 3, 5):
            assert g_factor(topo(m=m)) > 0
        assert g_factor(topo(m=2, mean_gain_hop1=0.5, mean_gain_interf=2.0)) > 0

    def test_matches_numeric_high_snr_limit(self):
        for m in (1, 2):
            t = topo(1, 1, m)
            lam = 1e6
            b = LinkBudget(lam, lam, lam, 1.0)
            x = 1.0
            est = cdf_min_snr(x, t, b) * lam ** m / x ** m
            assert est == pytest.approx(g_factor(t), rel=1e-3), m


class TestAsymptotics:
    def test_case1_ratio_converges(self):
        t = topo()
        pk = rank_placement_probs(2, 3, "maxmin")
        lam = db_to_linear(60)
        b = LinkBudget(lam, lam, lam, GAMMA_TH)
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
            b = LinkBudget(db_to_linear(25), 1e8, db_to_linear(10), GAMMA_TH)
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
        err = CsiErrorModel.from_error_ratios(self.t34, 0.0, 0.0, 0.0)
        b = budget_db(18, 18, 18)
        for x in np.linspace(0.01, 30, 120):
            assert cdf_min_snr_imperfect(x, self.t34, b, err) == pytest.approx(
                cdf_min_snr(x, self.t34, b), abs=1e-12)

    def test_zero_at_origin(self):
        err = CsiErrorModel.from_error_ratios(self.t34, 0.05, 0.05, 0.05)
        assert cdf_min_snr_imperfect(0.0, self.t34, budget_db(18, 18, 18),
                                     err) == 0.0

    def test_rejects_nonrayleigh(self):
        err = CsiErrorModel(1, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            cdf_min_snr_imperfect(1.0, topo(m=2), budget_db(10, 10, 10), err)

    def test_floor_vanishes_without_error(self):
        err = CsiErrorModel.from_error_ratios(self.t34, 0.0, 0.0, 0.0)
        pk = rank_placement_probs(3, 4, "maxmin")
        assert outage_floor_imperfect(GAMMA_TH, err, 3, 4, pk) == 0.0

    def test_floor_equals_high_snr_limit(self):
        err = CsiErrorModel.from_error_ratios(self.t34, 0.05, 0.05, 0.05)
        pk = rank_placement_probs(3, 4, "maxmin")
        lam = 1e8
        b = LinkBudget(lam, lam, lam, GAMMA_TH)
        exact = outage_probability_imperfect(GAMMA_TH, self.t34, b, err, pk)
        floor = outage_floor_imperfect(GAMMA_TH, err, 3, 4, pk)
        assert abs(exact - floor) / floor < 1e-3

    def test_floor_monotone_in_error_ratio(self):
        pk = rank_placement_probs(2, 2, "maxmin")
        floors = []
        for ratio in (0.01, 0.05, 0.1, 0.2):
            err = CsiErrorModel.from_error_ratios(topo(2, 2, 1), ratio,
                                                  ratio, ratio)
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
        a, bb, d = _throughput_params(t, b)
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
        # paper's closed form cancels little at these shapes
        t = topo(*shape, 1)
        b = budget_db(level_db, level_db, 10)
        pk = rank_placement_probs(*shape, "maxmin")
        assert average_throughput(t, b, pk) == pytest.approx(
            average_throughput_closed(t, b, pk), rel=1e-10)

    def test_rejects_nonrayleigh(self):
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            average_throughput(topo(m=2), budget_db(10, 10, 10), [1.0])

    def test_nonnegative(self):
        t = topo(1, 1, 1)
        b = LinkBudget(1e-6, 1e-6, 1e-6, 1.0)
        assert average_throughput(t, b, [1.0]) >= 0.0
