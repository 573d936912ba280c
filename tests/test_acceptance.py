"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream
them).  Tolerances are pinned here and nowhere else:

 1. exact outage inside 3-sigma Wilson CI of 1e6-trial MC on the
    two-user/three-relay shape-2 sweep, 0..40 dB, under 3 minutes
 2. fitted high-SNR slopes: -6 (max-min, 10%), -4 (naive user 2, 15%),
    -2 (random, 15%)
 3. high-SNR asymptote / exact in [0.95, 1.05] at 60 dB
 4. relay-cap outage floor within 1e-3 of exact at 60 dB cap (shapes 1, 3)
 5. imperfect CSI: inside 3-sigma MC CI at 1e6 trials, floor within 0.1%
    at 80 dB, exact zero-error reversion to 1e-12
 6. throughput closed form inside MC CI and within 1% of the MC mean;
    the paper's alternating closed form (tests/oracles.py) within 1e-11
    of it at 3x4, and the paper's h-integrals within 1e-8 of quadrature
    on the full grid
 7. exact rank enumeration: unit mass, worst-rank 1/3 for the 2x2
    network, product-formula agreement for 2x3
 8. bottleneck optimality with zero exceptions on 1e4 matrices; user
    fairness (z-test and identical analytic outage)
 9. bit-identical assignments under a monotone transform on 1e4 matrices
10. special functions against quadrature/series oracles (1e-12 / 1e-10)
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate

from assign_oracles import global_ranks, maxmin_assign
from oracles import average_throughput_closed, h_closed
from cogrelay import selection
from cogrelay.analytic import (
    asymptotic_outage_case1,
    asymptotic_outage_case2,
    average_throughput,
    cdf_min_snr,
    cdf_min_snr_imperfect,
    outage_floor_imperfect,
    outage_probability,
    outage_probability_imperfect,
    worst_case_rank_prob,
)
from cogrelay.model import CsiErrorModel, LinkBudget, NetworkTopology, db_to_linear
from cogrelay.montecarlo import (
    estimate_outage,
    estimate_throughput,
    two_proportion_z,
)
from cogrelay.selection import (
    maxmin_assign_batch,
    naive_assign_batch,
    rank_placement_probs,
)
from cogrelay.specfun import (
    EULER_GAMMA,
    exp_scaled_ei,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

GAMMA_TH = db_to_linear(5.0)
MC_TRIALS = 1_000_000


def report(criterion, passed, detail):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")


def topo(num_users, num_relays, m):
    return NetworkTopology(num_users, num_relays, m, path_loss_exp=0.0)


def common_budget(lam_db):
    lam = db_to_linear(lam_db)
    return LinkBudget(lam, lam, lam, GAMMA_TH)


@pytest.fixture(scope="module")
def pk23():
    return rank_placement_probs(2, 3, "maxmin")


@pytest.fixture(scope="module")
def pk33():
    return rank_placement_probs(3, 3, "maxmin")


@pytest.fixture(scope="module")
def pk34():
    return rank_placement_probs(3, 4, "maxmin")


@pytest.fixture(scope="module")
def pk44():
    # a Monte Carlo pk, so the criterion also covers the estimated one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "EXACT_MAXMIN_LIMIT", 0)
        return rank_placement_probs(4, 4, "maxmin", trials=MC_TRIALS, rng=1235)


def test_criterion_1_exact_outage_inside_mc_ci(pk23):
    t = topo(2, 3, 2)
    start = time.perf_counter()
    worst_gap = 0.0
    ok = True
    for index, lam_db in enumerate(range(0, 41, 5)):
        budget = common_budget(lam_db)
        exact = outage_probability(GAMMA_TH, t, budget, pk23)
        ests = estimate_outage(t, budget, "maxmin", GAMMA_TH,
                               trials=MC_TRIALS, seed=100 + index, z=3.0)
        for est in ests:
            ok &= est.ci_low <= exact <= est.ci_high
            worst_gap = max(worst_gap, abs(est.mean - exact))
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 180.0
    report("criterion 1 (exact vs MC, fig-1 sweep)", ok,
           f"worst |mc-exact| {worst_gap:.2e}, runtime {elapsed:.0f}s")
    assert ok


def test_criterion_2_diversity_order_slopes(pk23):
    t = topo(2, 3, 2)
    pk_naive = rank_placement_probs(2, 3, "naive")
    points = [30.0, 32.5, 35.0, 37.5, 40.0]

    def fitted_slope(pk_vector):
        xs = [db / 10 for db in points]
        ys = [math.log10(outage_probability(GAMMA_TH, t, common_budget(db),
                                            pk_vector)) for db in points]
        return float(np.polyfit(xs, ys, 1)[0])

    slope_maxmin = fitted_slope(pk23)
    slope_naive2 = fitted_slope(pk_naive.per_user[1])
    slope_random = fitted_slope(np.full(6, 1 / 6))
    ok = (abs(slope_maxmin + 6) <= 0.6 and abs(slope_naive2 + 4) <= 0.6
          and abs(slope_random + 2) <= 0.3)
    report("criterion 2 (diversity-order slopes)", ok,
           f"maxmin {slope_maxmin:.3f} (want -6), naive-u2 {slope_naive2:.3f} "
           f"(want -4), random {slope_random:.3f} (want -2)")
    assert ok


def test_criterion_3_array_gain_ratio(pk23):
    t = topo(2, 3, 2)
    lam = db_to_linear(60.0)
    exact = outage_probability(GAMMA_TH, t, common_budget(60.0), pk23)
    asym = asymptotic_outage_case1(GAMMA_TH, lam, t)
    ratio = asym / exact
    ok = 0.95 <= ratio <= 1.05
    report("criterion 3 (array gain at 60 dB)", ok, f"asym/exact = {ratio:.4f}")
    assert ok


def test_criterion_4_outage_floor(pk33):
    ok = True
    details = []
    for m in (1, 3):
        t = topo(3, 3, m)
        budget = LinkBudget(db_to_linear(25.0), db_to_linear(60.0),
                            db_to_linear(10.0), GAMMA_TH)
        exact = outage_probability(GAMMA_TH, t, budget, pk33)
        floor = asymptotic_outage_case2(GAMMA_TH, t, budget, pk33)
        rel = abs(exact - floor) / floor
        ok &= rel <= 1e-3
        details.append(f"m={m} rel={rel:.2e}")
    report("criterion 4 (relay-cap outage floor)", ok, ", ".join(details))
    assert ok


def test_criterion_5_imperfect_csi(pk34, pk44):
    details = []
    ok = True
    for num_users, pk in ((3, pk34), (4, pk44)):
        t = topo(num_users, 4, 1)
        err = CsiErrorModel.from_error_ratios(t, 0.05, 0.05, 0.05)
        # analytic inside 3-sigma MC interval along the sweep
        for index, lam_db in enumerate((0, 10, 20, 30, 40)):
            budget = common_budget(lam_db)
            exact = outage_probability_imperfect(GAMMA_TH, t, budget, err, pk)
            est = estimate_outage(t, budget, "maxmin", GAMMA_TH,
                                  trials=MC_TRIALS,
                                  seed=500 + 10 * num_users + index,
                                  z=3.0, csi=err)[0]
            ok &= est.ci_low <= exact <= est.ci_high
        # floor against the 80 dB evaluation
        lam = db_to_linear(80.0)
        exact80 = outage_probability_imperfect(
            GAMMA_TH, t, LinkBudget(lam, lam, lam, GAMMA_TH), err, pk)
        floor = outage_floor_imperfect(GAMMA_TH, err, num_users, 4, pk)
        rel = abs(exact80 - floor) / floor
        ok &= rel <= 1e-3
        details.append(f"M={num_users} floor rel={rel:.2e}")
    # zero error ratios revert to the perfect-CSI Rayleigh curve
    t = topo(3, 4, 1)
    err0 = CsiErrorModel.from_error_ratios(t, 0.0, 0.0, 0.0)
    budget = common_budget(20.0)
    gap = max(abs(cdf_min_snr_imperfect(x, t, budget, err0)
                  - cdf_min_snr(x, t, budget))
              for x in np.linspace(0.0, 40.0, 200))
    ok &= gap <= 1e-12
    details.append(f"zero-error gap={gap:.1e}")
    report("criterion 5 (imperfect CSI)", ok, ", ".join(details))
    assert ok


def test_criterion_6_throughput(pk34):
    t = topo(3, 4, 1)
    ok = True
    worst_rel = worst_paper = 0.0
    for index, lam2_db in enumerate((0, 10, 20, 30, 40)):
        budget = LinkBudget(db_to_linear(25.0), db_to_linear(lam2_db),
                            db_to_linear(10.0), GAMMA_TH)
        closed = average_throughput(t, budget, pk34)
        est = estimate_throughput(t, budget, "maxmin", trials=MC_TRIALS,
                                  seed=900 + index, z=3.0)[0]
        rel = abs(closed - est.mean) / est.mean
        worst_rel = max(worst_rel, rel)
        ok &= est.ci_low <= closed <= est.ci_high
        ok &= rel <= 0.01
        paper = average_throughput_closed(t, budget, pk34)
        worst_paper = max(worst_paper, abs(paper - closed) / closed)
    ok &= worst_paper <= 1e-11
    # the paper's h-integral family against adaptive quadrature
    worst_h = 0.0
    for j in range(0, 7):
        for d in (0.25, 1.0, 4.0):
            for at in (0.1, 1.0, 10.0):
                ref, _ = integrate.quad(
                    lambda x: math.exp(-at * x) / ((x + 1) * (x + d) ** j),
                    0.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-12)
                worst_h = max(worst_h, abs(h_closed(j, at, d) - ref) / abs(ref))
    ok &= worst_h <= 1e-8
    report("criterion 6 (throughput)", ok,
           f"worst closed-vs-MC rel {worst_rel:.2e}, worst paper-vs-closed rel "
           f"{worst_paper:.1e}, worst h rel {worst_h:.1e}")
    assert ok


def test_criterion_7_rank_machinery(pk23, pk33):
    pk22 = rank_placement_probs(2, 2, "maxmin")
    sums = [float(d.per_user.sum(axis=1).max()) for d in (pk22, pk23, pk33)]
    unit_mass = all(s == 1.0 for s in sums)
    worst22 = float(pk22.probs[pk22.worst_rank - 1])
    exact_third = worst22 == 1 / 3
    # branch resolution: for strictly more relays than users the single
    # (not doubled) product branch must reproduce the enumeration
    enum23 = float(pk23.probs[pk23.worst_rank - 1])
    formula23 = worst_case_rank_prob(2, 3)
    branch_ok = enum23 == formula23
    ok = unit_mass and exact_third and branch_ok
    report("criterion 7 (rank machinery)", ok,
           f"unit-mass={unit_mass}, P(worst|2x2)={worst22} (want 1/3), "
           f"2x3 enum={enum23} vs formula={formula23}")
    assert ok


def test_criterion_8_optimality_and_fairness(pk23):
    rng = np.random.default_rng(81)
    exceptions = 0
    for _ in range(10_000):
        num_users = int(rng.integers(1, 4))
        num_relays = int(rng.integers(num_users, 5))
        g = rng.random((num_users, num_relays))
        best = max(min(g[np.arange(num_users), relays])
                   for relays in itertools.permutations(range(num_relays),
                                                        num_users))
        if min(maxmin_assign(g).effective_snr) != best:
            exceptions += 1
    t = topo(2, 3, 2)
    budget = common_budget(10.0)
    ests = estimate_outage(t, budget, "maxmin", GAMMA_TH, trials=MC_TRIALS,
                           seed=808)
    hits = [round(e.mean * e.trials) for e in ests]
    z = abs(two_proportion_z(hits[0], hits[1], MC_TRIALS))
    analytic_gap = abs(
        outage_probability(GAMMA_TH, t, budget, pk23.per_user[0])
        - outage_probability(GAMMA_TH, t, budget, pk23.per_user[1]))
    ok = exceptions == 0 and z < 3 and analytic_gap <= 1e-12
    report("criterion 8 (optimality and fairness)", ok,
           f"exceptions={exceptions}, |z|={z:.3f}, analytic gap={analytic_gap:.1e}")
    assert ok


def test_criterion_9_monotone_transform_invariance():
    rng = np.random.default_rng(91)
    g = rng.random((10_000, 3, 4))
    transformed = np.log1p(g)
    ok = True
    for batch in (maxmin_assign_batch, naive_assign_batch):
        chosen_a, eff_a = batch(g)
        chosen_b, eff_b = batch(transformed)
        ok &= np.array_equal(chosen_a, chosen_b)
        ok &= np.array_equal(global_ranks(g, eff_a),
                             global_ranks(transformed, eff_b))
    report("criterion 9 (monotone-transform invariance)", ok,
           "log1p leaves max-min and naive assignments bit-identical")
    assert ok


def test_criterion_10_special_functions():
    worst_gamma = 0.0
    for m in (1, 2, 3, 5, 8):
        for x in (0.01, 0.25, 1.0, 3.0, 12.0):
            lower_ref, _ = integrate.quad(
                lambda s: s ** (m - 1) * math.exp(-s), 0.0, x,
                limit=200, epsabs=1e-300, epsrel=1e-13)
            upper_ref, _ = integrate.quad(
                lambda s: s ** (m - 1) * math.exp(-s), x, np.inf,
                limit=200, epsabs=1e-300, epsrel=1e-13)
            worst_gamma = max(
                worst_gamma,
                abs(lower_incomplete_gamma(m, x) - lower_ref) / lower_ref,
                abs(upper_incomplete_gamma(m, x) - upper_ref) / upper_ref)
    worst_ei = 0.0
    for p in np.logspace(-3, 3, 31):
        if p <= 0.1:
            ref = math.exp(p) * (EULER_GAMMA + math.log(p) + math.fsum(
                (-p) ** k / (k * math.factorial(k)) for k in range(1, 20)))
        else:
            val, _ = integrate.quad(lambda s: math.exp(-s) / (s + p), 0.0,
                                    np.inf, limit=400, epsabs=1e-300,
                                    epsrel=1e-13)
            ref = -val
        worst_ei = max(worst_ei, abs(exp_scaled_ei(float(p)) - ref) / abs(ref))
    ok = worst_gamma <= 1e-12 and worst_ei <= 1e-10
    report("criterion 10 (special functions)", ok,
           f"worst gamma rel {worst_gamma:.1e}, worst ei rel {worst_ei:.1e}")
    assert ok
