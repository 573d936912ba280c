"""Closed-form outage and throughput expressions.

Everything here is built from two ingredients: the CDF F of a single
user-relay end-to-end SNR (exact and imperfect-CSI variants; the
relay-cap floor is the exact CDF at an infinite relay cap) and one
order-statistic kernel, the binomial mixture
sum_j C(n, j) F^j G^(n-j) v_j over the n = M*N i.i.d. entries, with
G = 1 - F and weights v_j summed from the rank-placement distribution
of the selection scheme.  Every term is positive and formed in log
space.  Outage reads the kernel at one point; average throughput
integrates it against 1/(1+x) with the trapezoid rule in s = ln x,
which converges geometrically for this analytic, doubly-exponentially
decaying integrand.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .model import LinkBudget, CsiErrorModel, NetworkTopology
from .selection import RankPlacementDistribution
from .specfun import lower_incomplete_gamma, upper_incomplete_gamma

__all__ = [
    "cdf_min_snr",
    "cdf_kth_largest",
    "outage_probability",
    "outage_from_cdf",
    "g_factor",
    "array_gain",
    "asymptotic_outage_case1",
    "asymptotic_outage_case2",
    "cdf_min_snr_imperfect",
    "outage_probability_imperfect",
    "outage_floor_imperfect",
    "h_integral",
    "average_throughput",
    "worst_case_rank_prob",
]


# ---------------------------------------------------------------------------
# single-link CDFs
# ---------------------------------------------------------------------------

def _share_ksum(a: float, b: float, weights) -> float:
    """sum over k < m of a^m b^k weights[k] / (k! (a+b)^(k+m)), with
    m = len(weights), taken as (a/(a+b))^m (b/(a+b))^k weights[k] / k!:
    both ratios are at most 1, so no power overflows for huge a or b."""
    m = len(weights)
    share_a, share_b = a / (a + b), b / (a + b)
    return math.fsum(share_a ** m * share_b ** k * weight / math.factorial(k)
                     for k, weight in enumerate(weights))


def cdf_min_snr(x: float, topology: NetworkTopology, budget: LinkBudget) -> float:
    """CDF of the end-to-end SNR of one user-relay link.

    The link SNR is the minimum of the first-hop SNR and the second-hop
    SNR under the relay power constraint; averaging the conditional CDF
    over the mixed (continuous + atom at the cap) relay-power law gives
    a four-term expression in incomplete gamma functions.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    m = topology.nakagami_m
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    gam_m = float(math.factorial(m - 1))
    up1 = upper_incomplete_gamma(m, m * x / (o1 * l1))
    term1 = lower_incomplete_gamma(m, m * x / (o1 * l1)) / gam_m
    term2 = (up1 * lower_incomplete_gamma(m, m * x / (o2 * l2))
             * lower_incomplete_gamma(m, m * l3 / (o3 * l2)) / gam_m ** 3)
    tail = m * (o3 * x + o2 * l3) / (o2 * o3 * l2)
    ksum = _share_ksum(o2 * l3, o3 * x, [upper_incomplete_gamma(k + m, tail)
                                         for k in range(m)])
    term3 = -up1 / gam_m ** 2 * ksum
    term4 = up1 / gam_m ** 2 * upper_incomplete_gamma(m, m * l3 / (o3 * l2))
    value = math.fsum((term1, term2, term3, term4))
    return min(1.0, max(0.0, value))


def cdf_min_snr_imperfect(x: float, topology: NetworkTopology,
                          budget: LinkBudget, err: CsiErrorModel) -> float:
    """Single-link SNR CDF under Rayleigh fading with imperfect CSI."""
    if topology.nakagami_m != 1:
        raise ValueError("imperfect-CSI CDF requires nakagami_m == 1")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    d1b = topology.dist_hop1 ** topology.path_loss_exp
    d2b = topology.dist_hop2 ** topology.path_loss_exp
    d3b = topology.dist_interf ** topology.path_loss_exp
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    rate = ((err.err_var_hop1 + d1b / l1) / err.est_gain_hop1
            + (err.err_var_hop2 + d2b / l2) / err.est_gain_hop2)
    cap_factor = math.exp(-d3b * l3 / (err.est_gain_interf * l2))
    ratio = 1.0 + d3b * err.est_gain_hop2 * l3 / (d2b * err.est_gain_interf * x)
    value = 1.0 - math.exp(-x * rate) * (1.0 - cap_factor / ratio)
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# order statistics and the outage mixture
# ---------------------------------------------------------------------------

def _binomial_mixture(cdf, ccdf, weights: np.ndarray) -> np.ndarray:
    """sum over j of C(n, j) F^j G^(n-j) weights[j], n = len(weights) - 1,
    at every point of the arrays F = ``cdf`` and G = ``ccdf``.

    The binomial term is the probability that exactly j of n i.i.d.
    entries lie at or below the point.  Every term is positive and
    formed in log space, so nothing cancels and no factor overflows at
    any n; F and G are given separately so that each keeps its own
    relative accuracy.
    """
    n = len(weights) - 1
    j = np.arange(n + 1)
    log_comb = np.array([math.log(math.comb(n, i)) for i in j])
    # log 0 becomes a finite -1e300: a zero power of it is then 1, and any
    # other power still underflows to 0
    with np.errstate(divide="ignore"):
        log_f = np.maximum(np.log(np.asarray(cdf, dtype=float)), -1e300)[..., None]
        log_g = np.maximum(np.log(np.asarray(ccdf, dtype=float)), -1e300)[..., None]
    return np.exp(log_comb + j * log_f + (n - j) * log_g) @ weights


def _pk_vector(pk, num_users: int, num_relays: int) -> np.ndarray:
    """Per-rank probabilities p_1..p_MN (ranks beyond a short vector get
    zero)."""
    if isinstance(pk, RankPlacementDistribution):
        if (pk.num_users, pk.num_relays) != (num_users, num_relays):
            raise ValueError(
                f"rank distribution is for shape ({pk.num_users}, "
                f"{pk.num_relays}), expected ({num_users}, {num_relays})"
            )
        probs = pk.probs
    else:
        probs = np.asarray(pk, dtype=float)
    mn = num_users * num_relays
    if probs.ndim != 1 or len(probs) > mn:
        raise ValueError(f"rank probabilities must be a vector of length <= {mn}")
    if np.any(probs < 0) or probs.sum() > 1.0 + 1e-9:
        raise ValueError("rank probabilities must be nonnegative and sum to <= 1")
    return np.concatenate((probs, np.zeros(mn - len(probs))))


def cdf_kth_largest(cdf_value: float, k: int, n: int) -> float:
    """CDF of the k-th largest among n i.i.d. variables, evaluated at a
    point where the parent CDF equals ``cdf_value``.

    The k-th largest is at or below the point exactly when at least
    n-k+1 of the n variables are, so this is the binomial tail
    sum over j > n-k of C(n, j) F^j (1-F)^(n-j): the binomial mixture
    with weight 1 on those j.
    """
    if not 0.0 <= cdf_value <= 1.0:
        raise ValueError(f"cdf_value must be in [0, 1], got {cdf_value}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    weights = (np.arange(n + 1) > n - k).astype(float)
    return min(1.0, float(_binomial_mixture(cdf_value, 1.0 - cdf_value, weights)))


def outage_from_cdf(cdf_value: float, num_users: int, num_relays: int,
                    pk) -> float:
    """Mix the k-th-largest CDFs over the rank-placement weights.

    ``pk`` may be a :class:`RankPlacementDistribution` (its user-average
    probabilities are used) or a plain per-rank probability vector, e.g.
    one row of ``per_user`` for a scheme that treats users unequally.
    With the sums over ranks k and binomial terms j swapped, term j
    weighs v_j = sum over k > n-j of p_k, the ranks whose entry is at or
    below the point when j entries are.
    """
    probs = _pk_vector(pk, num_users, num_relays)
    weights = np.concatenate(([0.0], np.cumsum(probs[::-1])))
    return float(_binomial_mixture(cdf_value, 1.0 - cdf_value, weights))


def outage_probability(gamma_th: float, topology: NetworkTopology,
                       budget: LinkBudget, pk) -> float:
    """Exact outage probability of one user at threshold ``gamma_th``."""
    point = cdf_min_snr(gamma_th, topology, budget)
    return outage_from_cdf(point, topology.num_users, topology.num_relays, pk)


def outage_probability_imperfect(gamma_th: float, topology: NetworkTopology,
                                 budget: LinkBudget, err: CsiErrorModel,
                                 pk) -> float:
    """Exact outage probability under Rayleigh fading with imperfect CSI."""
    point = cdf_min_snr_imperfect(gamma_th, topology, budget, err)
    return outage_from_cdf(point, topology.num_users, topology.num_relays, pk)


def outage_floor_imperfect(gamma_th: float, err: CsiErrorModel,
                           num_users: int, num_relays: int, pk) -> float:
    """High-SNR outage floor with imperfect CSI: only the error-to-
    estimate variance ratios survive the limit, so the floor is SNR
    independent and the diversity order is lost entirely."""
    rate = (err.err_var_hop1 / err.est_gain_hop1
            + err.err_var_hop2 / err.est_gain_hop2)
    point = 1.0 - math.exp(-gamma_th * rate)
    return outage_from_cdf(point, num_users, num_relays, pk)


# ---------------------------------------------------------------------------
# high-SNR asymptotics
# ---------------------------------------------------------------------------

def g_factor(topology: NetworkTopology) -> float:
    """Leading coefficient of the single-link CDF at high common SNR:
    F(x) ~ g_factor * (x / snr)^m."""
    m = topology.nakagami_m
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    gam_m = float(math.factorial(m - 1))
    first = m ** (m - 1) / (gam_m * o1 ** m)
    second = (m ** m * lower_incomplete_gamma(m, m / o3)
              + o3 ** m * upper_incomplete_gamma(2 * m, m / o3)) \
        / (m * gam_m ** 2 * o2 ** m)
    return first + second


def worst_case_rank_prob(num_users: int, num_relays: int) -> float:
    """Probability that a user's max-min selected SNR is the worst rank
    it can occupy, (M-1)N + 1.

    Product form validated against exact rank enumeration; the doubled
    branch applies to square networks (both a shared row and a shared
    column of trailing ranks force the worst case there).
    """
    if num_users < 1 or num_relays < num_users:
        raise ValueError("need num_relays >= num_users >= 1")
    if num_users == 1:
        return 1.0
    prod = 1.0
    for i in range(1, num_relays):
        prod *= (num_relays - i) / (num_users * num_relays - i)
    factor = 2.0 if num_users == num_relays else 1.0
    return factor * prod / num_users


def array_gain(gamma_th: float, topology: NetworkTopology) -> float:
    """Multiplicative constant of the high-SNR outage law A * snr^-(mN)."""
    m, num_users, num_relays = (topology.nakagami_m, topology.num_users,
                                topology.num_relays)
    mn = num_users * num_relays
    lead = (math.factorial(mn)
            / (num_relays * math.factorial((num_users - 1) * num_relays)
               * math.factorial(num_relays - 1)))
    try:
        power = (g_factor(topology) * gamma_th ** m) ** num_relays
    except OverflowError:  # the gain itself is beyond the float range
        power = math.inf
    return worst_case_rank_prob(num_users, num_relays) * lead * power


def asymptotic_outage_case1(gamma_th: float, snr: float,
                            topology: NetworkTopology) -> float:
    """High-SNR outage when source, relay-cap and interference-cap SNRs
    grow together: array_gain * snr^-(m N), i.e. full diversity m N.
    The gain is homogeneous of degree m N in the threshold, so this is
    the gain at gamma_th / snr, which overflows only if the law does."""
    return array_gain(gamma_th / snr, topology)


def asymptotic_outage_case2(gamma_th: float, topology: NetworkTopology,
                            budget: LinkBudget, pk) -> float:
    """Outage floor when only the relay power cap grows: the link CDF at
    an infinite relay cap, so independent of the relay-cap SNR."""
    point = cdf_min_snr(gamma_th, topology,
                        replace(budget, relay_snr_cap=math.inf))
    return outage_from_cdf(point, topology.num_users, topology.num_relays, pk)


# ---------------------------------------------------------------------------
# average throughput (Rayleigh fading)
# ---------------------------------------------------------------------------

_STEP = 0.2  # trapezoid step in s = ln x
_S_SPAN = 40.0  # first node at e^-40 times the integrand's scale min(1, 1/a)
_DECAY_MAX = 750.0  # e^-(a x) underflows to zero before a x reaches this


def _log_trapezoid(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights of the trapezoid rule for the integral of
    g(x) / (1+x) over x >= 0, for g bounded by 1 and decaying like
    e^-(a x): with x = e^s the integrand becomes g(e^s) e^s / (1+e^s),
    analytic in a strip about the real s axis and decaying exponentially
    at one end and doubly exponentially at the other, so the rule at a
    fixed step converges geometrically (Trefethen and Weideman, SIAM
    Review 56, 2014)."""
    s_min = -_S_SPAN - max(0.0, math.log(a))
    x = np.exp(np.arange(s_min, math.log(_DECAY_MAX / a), _STEP))
    return x, _STEP * x / (1.0 + x)


def _throughput_params(topology: NetworkTopology, budget: LinkBudget):
    """a, b, d of the Rayleigh link CCDF e^-(a x) (b + d (1-b)/(x+d))."""
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    a = 1.0 / (o1 * l1) + 1.0 / (o2 * l2)
    b = 1.0 - math.exp(-l3 / (o3 * l2))
    d = o2 * l3 / o3
    return a, b, d


def average_throughput(topology: NetworkTopology, budget: LinkBudget,
                       pk) -> float:
    """Average per-user throughput (bits per channel use) under Rayleigh
    fading, including the 1/(2M) half-duplex orthogonal-slot penalty:
    (1 / (2 M ln 2)) times the integral of S(x) / (1+x) over x >= 0.

    S, the CCDF of the selected SNR, is the binomial mixture with weight
    w_j = sum over k <= n-j of p_k, the ranks whose entry lies above the
    point when j entries are at or below it.  The link CDF and CCDF are
    F = 1 - e^-(a x) + e^-(a x) (1-b) x/(x+d) and
    G = e^-(a x) (b x + d)/(x+d), each a sum of positive terms.  The
    integral is the trapezoid rule of :func:`_log_trapezoid`, vectorised
    over its nodes.
    """
    if topology.nakagami_m != 1:
        raise ValueError("closed-form throughput requires nakagami_m == 1")
    num_users, num_relays = topology.num_users, topology.num_relays
    probs = _pk_vector(pk, num_users, num_relays)
    weights = np.concatenate(([0.0], np.cumsum(probs)))[::-1]
    a, b, d = _throughput_params(topology, budget)
    x, node_weights = _log_trapezoid(a)
    decay = np.exp(-a * x)
    cdf = -np.expm1(-a * x) + decay * (1.0 - b) * x / (x + d)
    ccdf = decay * (b * x + d) / (x + d)
    integral = node_weights @ _binomial_mixture(cdf, ccdf, weights)
    return float(integral) / (2.0 * num_users * math.log(2.0))


# ---------------------------------------------------------------------------
# names the benchmark tracer in perfbench/ looks up on this module; none of
# them is on a path of the package, and they stay until the tracer drops them
# ---------------------------------------------------------------------------

from .specfun import exp_scaled_ei, order_stat_coeff  # noqa: E402,F401


class CancellationError(ArithmeticError):
    """Raised by nothing: no closed form here has an alternating sum."""


def h_integral(j: int, at: float, d: float) -> float:
    """integral of e^-(at x) / ((x+1) (x+d)^j) over x >= 0, by the
    trapezoid rule of :func:`average_throughput`."""
    if j != int(j) or j < 0:
        raise ValueError(f"j must be an integer >= 0, got {j!r}")
    if not at > 0:
        raise ValueError(f"at must be > 0, got {at}")
    if not d > 0:
        raise ValueError(f"d must be > 0, got {d}")
    x, node_weights = _log_trapezoid(at)
    return float(node_weights @ (np.exp(-at * x) / (x + d) ** int(j)))
