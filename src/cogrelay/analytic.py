"""Closed-form outage and throughput expressions.

Everything here is built from two ingredients: the CDF of a single
user-relay end-to-end SNR (exact and imperfect-CSI variants; the
relay-cap floor is the exact CDF at an infinite relay cap) and the CDF
of the k-th largest among M*N i.i.d. entries, a binomial tail of
positive terms, mixed over the rank-placement distribution of the
selection scheme.  The average-throughput expression additionally needs
a family of exponential-type integrals evaluated by closed recursions;
its alternating sum over orders t = 1..M*N reads one j-sum per t, built
from one row h(0..t) with one e^p Ei(-p) per argument, and raises
:class:`CancellationError` when it cancels by more than 1e8.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .model import LinkBudget, CsiErrorModel, NetworkTopology
from .selection import RankPlacementDistribution
from .specfun import (
    exp_scaled_ei,
    lower_incomplete_gamma,
    # unused here, but the benchmark tracer (perfbench/) wraps this name
    order_stat_coeff,  # noqa: F401
    upper_incomplete_gamma,
)

__all__ = [
    "CancellationError",
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


class CancellationError(ArithmeticError):
    """The alternating sum of :func:`average_throughput` lost too many
    digits."""


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

def cdf_kth_largest(cdf_value: float, k: int, n: int) -> float:
    """CDF of the k-th largest among n i.i.d. variables, evaluated at a
    point where the parent CDF equals ``cdf_value``.

    The k-th largest is at or below the point exactly when at least
    n-k+1 of the n variables are, so this is the binomial tail
    sum over j > n-k of C(n, j) F^j (1-F)^(n-j).  Every term is positive
    and formed in log space, so no factor overflows at any n.
    """
    if not 0.0 <= cdf_value <= 1.0:
        raise ValueError(f"cdf_value must be in [0, 1], got {cdf_value}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if cdf_value in (0.0, 1.0):
        return cdf_value
    log_f, log_miss = math.log(cdf_value), math.log1p(-cdf_value)
    value = math.fsum(
        math.exp(math.log(math.comb(n, j)) + j * log_f + (n - j) * log_miss)
        for j in range(n - k + 1, n + 1))
    return min(1.0, value)


def _pk_vector(pk, num_users: int, num_relays: int) -> np.ndarray:
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
    return probs


def outage_from_cdf(cdf_value: float, num_users: int, num_relays: int,
                    pk) -> float:
    """Mix the k-th-largest CDFs over the rank-placement weights.

    ``pk`` may be a :class:`RankPlacementDistribution` (its user-average
    probabilities are used) or a plain per-rank probability vector, e.g.
    one row of ``per_user`` for a scheme that treats users unequally.
    """
    probs = _pk_vector(pk, num_users, num_relays)
    mn = num_users * num_relays
    return math.fsum(
        p * cdf_kth_largest(cdf_value, k, mn)
        for k, p in enumerate(probs, start=1) if p > 0.0
    )


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

_TAYLOR_WINDOW = 0.25  # |d-1| below this: expand around the d=1 kernel
# bound on sum |pieces| / |sum pieces| in average_throughput: about 8 of
# the 16 digits are lost there.  Max-min rank weights stay below it up to
# 4x5 and exceed it at 4x6 and beyond
_MAX_CANCELLATION = 1e8


def _h_unit(j: int, p: float, e: float) -> float:
    """integral of e^-(p x) / (x+1)^(j+1) over x >= 0, given
    e = e^p Ei(-p).

    Rearranged closed form sum_{s<j} (j-s-1)! (-p)^s / j!  plus the
    exponential-integral tail ((-p)^j / j!) * h(0); no factor here can
    overflow for the shapes this package meets.
    """
    if j == 0:
        return -e
    terms = []
    term = 1.0 / j  # s = 0: (j-1)!/j!
    for s in range(j):
        terms.append(term)
        if s < j - 1:
            term *= -p / (j - s - 1)
    tail = term * -p * -e  # term now (-p)^(j-1) 0! / j!
    terms.append(tail)
    return math.fsum(terms)


def _h_row(t: int, at: float, d: float) -> list[float]:
    """[h(0), ..., h(t)] of :func:`h_integral` at one (at, d), with one
    e^p Ei(-p) per argument p = at and p = d at.

    Outside the Taylor window the partial-fraction terms of h(j) are the
    first j of those of h(j+1), so the whole row costs no more than its
    last entry; inside it each j sums its own series in (d-1).
    """
    if not at > 0:
        raise ValueError(f"at must be > 0, got {at}")
    if not d > 0:
        raise ValueError(f"d must be > 0, got {d}")
    e = exp_scaled_ei(at)
    row = [_h_unit(0, at, e)]
    delta = d - 1.0
    if abs(delta) < _TAYLOR_WINDOW:
        for j in range(1, t + 1):
            total = 0.0
            coeff = 1.0  # (-delta)^s * C(j+s-1, s)
            for s in range(200):
                term = coeff * _h_unit(j + s, at, e)
                total += term
                if abs(term) < 1e-17 * abs(total):
                    break
                coeff *= -delta * (j + s) / (s + 1)
            row.append(total)
        return row
    if t == 0:
        return row
    w = exp_scaled_ei(d * at)
    terms = [row[0] + w]
    inner = [-w]
    outer = 1.0  # (-at)^r (d-1)^r / r!
    fac = 1.0  # (r-1)! / (-d at)^r
    for r in range(1, t):
        outer *= -at * delta / r
        fac *= (r - 1 if r > 1 else 1) / (-d * at)
        inner.append(fac)
        terms.append(-outer * math.fsum(inner))
    row.extend(math.fsum(terms[:j]) / delta ** j for j in range(1, t + 1))
    return row


def h_integral(j: int, at: float, d: float) -> float:
    """integral of e^-(at x) / ((x+1) (x+d)^j) over x >= 0.

    Closed recursions: the d = 1 kernel reduces to a pure power, the
    d != 1 case follows from partial fractions; near d = 1 the partial
    fractions divide by vanishing powers of (d-1), so the integrand is
    expanded in (d-1) around the d = 1 kernel instead (geometric
    convergence since |d-1|/(x+1) < 1 on the whole range).
    """
    if j != int(j) or j < 0:
        raise ValueError(f"j must be an integer >= 0, got {j!r}")
    j = int(j)
    return _h_row(j, at, d)[j]


def _throughput_params(topology: NetworkTopology, budget: LinkBudget):
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    a = 1.0 / (o1 * l1) + 1.0 / (o2 * l2)
    b = 1.0 - math.exp(-l3 / (o3 * l2))
    d = o2 * l3 / o3
    c = d * (1.0 - b)
    return a, b, c, d


def average_throughput(topology: NetworkTopology, budget: LinkBudget,
                       pk) -> float:
    """Average per-user throughput (bits per channel use) under Rayleigh
    fading, including the 1/(2M) half-duplex orthogonal-slot penalty.

    Expands the complementary CDF of the selected SNR over order
    statistics (weighted by the rank-placement probabilities) into
    alternating pieces, one per rank k and order t = k + i.  Each piece
    integrates a power of the link CCDF against 1/(1+x), a j-sum over
    h(j, a t, d) that depends on t alone, so it is built once per t from
    one :func:`_h_row`.  The pieces cancel as M*N grows: when their
    absolute sum exceeds the result by more than ``_MAX_CANCELLATION``,
    :class:`CancellationError` is raised instead of a wrong number.
    """
    if topology.nakagami_m != 1:
        raise ValueError("closed-form throughput requires nakagami_m == 1")
    num_users, num_relays = topology.num_users, topology.num_relays
    probs = _pk_vector(pk, num_users, num_relays)
    mn = num_users * num_relays
    a, b, c, d = _throughput_params(topology, budget)
    jsum = [0.0]  # indexed by t; t = 0 never occurs
    for t in range(1, mn + 1):
        h = _h_row(t, a * t, d)
        jsum.append(math.fsum(math.comb(t, j) * b ** (t - j) * c ** j * h[j]
                              for j in range(t + 1)))
    pieces = []
    for k, p in enumerate(probs, start=1):
        if p <= 0.0:
            continue
        for i in range(mn - k + 1):
            t = k + i
            log_coeff = (math.lgamma(mn + 1) - math.log(t) - math.lgamma(k)
                         - math.lgamma(i + 1) - math.lgamma(mn - k - i + 1))
            sign = -1.0 if i % 2 else 1.0
            pieces.append(sign * p * math.exp(log_coeff) * jsum[t])
    total = math.fsum(pieces)
    magnitude = math.fsum(abs(piece) for piece in pieces)
    if magnitude > _MAX_CANCELLATION * abs(total):
        kappa = magnitude / abs(total) if total else math.inf
        raise CancellationError(
            f"throughput sum cancels: sum |pieces| / |sum| = {kappa:.3g} > "
            f"{_MAX_CANCELLATION:.0e} for M={num_users}, N={num_relays}"
        )
    value = total / (2.0 * num_users * math.log(2.0))
    return max(0.0, value)
