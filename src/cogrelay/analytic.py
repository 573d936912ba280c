"""Closed-form outage and throughput expressions.

Everything here is built from two kernels of positive terms.  One gives
the CDF F of one user-relay end-to-end SNR and its CCDF G = 1 - F at an
array of points, with or without imperfect CSI (the relay-cap floor is
the CDF at an infinite cap).  The other is the order-statistic mixture
sum_j C(n, j) F^j G^(n-j) v_j over the n = M*N i.i.d. entries, in log
space, with weights v_j from the scheme's rank-placement distribution.
Outage reads both at one point; average throughput integrates the
mixture against 1/(1+x) with the trapezoid rule in s = ln x, which
converges geometrically for this analytic, doubly-exponentially
decaying integrand.  The link-CDF kernel takes the budget levels as
arrays too, so the throughput of a whole sweep of budgets is read in a
few batched kernel calls.  Each call is built when it is made and sized
by the shape from the package's memory budget (``model.ENTRIES``), a
budget's rule read in pieces where it alone is larger, so memory is
bounded by one call whatever the number of budgets or the shape.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ENTRIES, LinkBudget, CsiErrorModel, NetworkTopology, _estimated
from .selection import RankPlacementDistribution
from .specfun import _regularized_gamma

__all__ = [
    "cdf_kth_largest",
    "outage_probability",
    "g_factor",
    "array_gain",
    "asymptotic_outage_case1",
    "asymptotic_outage_case2",
    "outage_probability_imperfect",
    "outage_floor_imperfect",
    "average_throughput",
    "worst_case_rank_prob",
]


# ---------------------------------------------------------------------------
# the single-link CDF
# ---------------------------------------------------------------------------

# the largest shape whose race terms are products: they cost about as
# much as the log-space pass at m = 6 on 4096 points (9 ms), twice as
# much at m = 12 and five times at m = 20
_PRODUCT_RACE_M = 6


def _race(m: int, poi_a: np.ndarray, poi_b: np.ndarray, r, s):
    """Chances that A, and that B, is first to m arrivals from i < m and
    j < m with probabilities poi_a[..., i] and poi_b[..., j]: A wins when
    at least m-i of the next n = 2m-i-j-1 arrivals are its own, each with
    probability r (B's with s = 1 - r).

    Up to m = _PRODUCT_RACE_M each binomial term C(n, k) r^k s^(n-k) is
    a product, summed pair by pair.  Above, C(n, k) leaves the float
    range (from m = 516) and the m^2 pairs cost too much, so the terms
    are formed in log space, once per n, and each pair reads its tail
    and head from their running sums; a zero r or s has the finite log
    -1e300, so its zero power is still 1 and every other power 0."""
    if m <= _PRODUCT_RACE_M:
        win_a = win_b = 0.0
        for i in range(m):
            for j in range(m):
                n = 2 * m - i - j - 1
                terms = [math.comb(n, k) * r ** k * s ** (n - k)
                         for k in range(n + 1)]
                both = poi_a[..., i] * poi_b[..., j]
                win_a = win_a + both * sum(terms[m - i:])
                win_b = win_b + both * sum(terms[:m - i])
        return win_a, win_b
    with np.errstate(divide="ignore"):
        log_r = np.maximum(np.log(r), -1e300)[..., None]
        log_s = np.maximum(np.log(s), -1e300)[..., None]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(2 * m)])
    win_a = win_b = 0.0
    for n in range(1, 2 * m):
        k = np.arange(n + 1.0)
        terms = np.exp(log_fact[n] - log_fact[:n + 1] - log_fact[n::-1]
                       + k * log_r + (n - k) * log_s)
        # tail[..., t] sums the terms k >= t, head[..., t] those k <= t
        tail = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
        head = np.cumsum(terms, axis=-1)
        # the pairs with i + j = 2m-1-n, i and j < m
        i = np.arange(max(0, m - n), min(m, 2 * m - n))
        both = poi_a[..., i] * poi_b[..., 2 * m - 1 - n - i]
        win_a = win_a + (both * tail[..., m - i]).sum(axis=-1)
        win_b = win_b + (both * head[..., m - i - 1]).sum(axis=-1)
    return win_a, win_b


def _link_cdf(x, topology: NetworkTopology, budget,
              csi: CsiErrorModel | None = None):
    """CDF F and CCDF G = 1 - F of one user-relay link's end-to-end SNR
    at every point of the array ``x``, each a sum of positive terms.
    ``budget`` is a :class:`LinkBudget` or any object with its three
    level attributes, each a float or an array that broadcasts against
    ``x``: one call then reads many budgets, each at its own points.

    F = P1 + Q1 F2 and G = Q1 G2, with P and Q the regularized
    incomplete gammas of shape m and hop 1 at P1 = P(m, m x / (o1 l1)).
    Hop 2 fails when a rate-a Poisson process, a = m x / (o2 l3), reaches
    m arrivals before time max(c, g), c = l3 / l2 the relay cap, where
    the interference gain g is the m-th arrival of a rate-b process,
    b = m / o3.  So F2 = P(m, a c) plus A's wins of the race from c on,
    and G2 = P(m, b c) Q(m, a c) plus B's; an infinite cap is c = 0.
    Under imperfect CSI (Rayleigh) this runs on the estimate gains, and
    the estimation errors multiply G by e^(-x e), e the model's
    :attr:`~cogrelay.model.CsiErrorModel.error_rate`.
    """
    x = np.asarray(x, dtype=float)
    if not x.min(initial=0.0) >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    m = topology.nakagami_m
    if csi is not None:
        topology = _estimated(topology, csi)
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    p1, q1, _ = _regularized_gamma(m, x * (m / (o1 * l1)))
    ac, bc = x * (m / (o2 * l2)), m * l3 / (o3 * l2)
    pa, qa, poi_a = _regularized_gamma(m, ac)
    pb, qb, poi_b = _regularized_gamma(m, bc)
    # r = a / (a + b) = x / (x + d)
    d = o2 * l3 / o3
    total = x + d
    win_a, win_b = _race(m, poi_a, poi_b, x / total, d / total)
    cdf = p1 + q1 * (pa + win_a)
    ccdf = q1 * (pb * qa + win_b)
    if csi is not None:
        rate = csi.error_rate
        keep = np.exp(-x * rate)
        cdf, ccdf = -np.expm1(-x * rate) + keep * cdf, keep * ccdf
    # sums near 1 may round a few ulp above it
    return np.minimum(cdf, 1.0), np.minimum(ccdf, 1.0)


# ---------------------------------------------------------------------------
# order statistics and the outage mixture
# ---------------------------------------------------------------------------

def _binomial_mixture(cdf, ccdf, weights: np.ndarray) -> np.ndarray:
    """sum over j of C(n, j) F^j G^(n-j) weights[j], n = len(weights) - 1,
    at every point of the arrays F = ``cdf`` and G = ``ccdf``: the
    terms of :func:`_binomial_terms` times the weights."""
    return _binomial_terms(cdf, ccdf, len(weights) - 1) @ weights


def _binomial_terms(cdf, ccdf, n: int) -> np.ndarray:
    """C(n, j) F^j G^(n-j) for j = 0..n along a last axis, at every point
    of the arrays F = ``cdf`` and G = ``ccdf``.

    The binomial term is the probability that exactly j of n i.i.d.
    entries lie at or below the point.  Every term is positive and
    formed in log space, so nothing cancels and no factor overflows at
    any n; F and G are given separately so that each keeps its own
    relative accuracy.
    """
    j = np.arange(n + 1.0)
    # log 0 becomes a finite -1e300: a zero power of it is then 1, and any
    # other power still underflows to 0
    with np.errstate(divide="ignore"):
        log_f = np.maximum(np.log(np.asarray(cdf, dtype=float)), -1e300)
        log_g = np.maximum(np.log(np.asarray(ccdf, dtype=float)), -1e300)
    # built with j leading, so every step runs along the points, then
    # laid out with j last
    terms = np.multiply.outer(j, log_f)
    terms += _log_comb(n).reshape((-1,) + (1,) * log_f.ndim)
    terms += np.multiply.outer(n - j, log_g)
    return np.ascontiguousarray(np.moveaxis(np.exp(terms, out=terms), 0, -1))


@lru_cache(maxsize=None)
def _log_comb(n: int) -> np.ndarray:
    """log C(n, j) for j = 0..n, built once per n (at n = 2000, its exact
    binomials took most of a one-budget throughput call), read-only."""
    out = np.array([math.log(math.comb(n, j)) for j in range(n + 1)])
    out.flags.writeable = False
    return out


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


def _outage(cdf, ccdf, num_users: int, num_relays: int, pk) -> float:
    """The k-th-largest CDFs mixed over the rank weights, at link CDF
    ``cdf`` and CCDF ``ccdf``: binomial term j weighs v_j = sum over
    k > n-j of p_k, the ranks at or below the point when j entries are.
    Weights a few ulp above 1 in sum could lift it above 1: it is capped."""
    probs = _pk_vector(pk, num_users, num_relays)
    weights = np.concatenate(([0.0], np.cumsum(probs[::-1])))
    return min(1.0, float(_binomial_mixture(cdf, ccdf, weights)))


def outage_probability(gamma_th: float, topology: NetworkTopology,
                       budget: LinkBudget, pk) -> float:
    """Exact outage probability of one user at threshold ``gamma_th``."""
    return _outage(*_link_cdf(gamma_th, topology, budget),
                   topology.num_users, topology.num_relays, pk)


def outage_probability_imperfect(gamma_th: float, topology: NetworkTopology,
                                 budget: LinkBudget, err: CsiErrorModel,
                                 pk) -> float:
    """Exact outage probability under Rayleigh fading with imperfect CSI."""
    return _outage(*_link_cdf(gamma_th, topology, budget, err),
                   topology.num_users, topology.num_relays, pk)


def outage_floor_imperfect(gamma_th: float, err: CsiErrorModel,
                           num_users: int, num_relays: int, pk) -> float:
    """High-SNR outage floor with imperfect CSI: only the error-to-
    estimate variance ratios survive the limit, so the floor is SNR
    independent and the diversity order is lost entirely."""
    rate = err.error_rate
    return _outage(-math.expm1(-gamma_th * rate), math.exp(-gamma_th * rate),
                   num_users, num_relays, pk)


# ---------------------------------------------------------------------------
# high-SNR asymptotics
# ---------------------------------------------------------------------------

def _log(value: float) -> float:
    return math.log(value) if value > 0 else -math.inf


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _log_g_factor(topology: NetworkTopology) -> float:
    """The log of :func:`g_factor`, a log-sum-exp of its three terms."""
    m = topology.nakagami_m
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    lead = (m - 1) * math.log(m) - math.lgamma(m)
    mixed = math.lgamma(2 * m) - math.log(m) - 2 * math.lgamma(m)
    p_m = float(_regularized_gamma(m, m / o3)[0])
    q_2m = float(_regularized_gamma(2 * m, m / o3)[1])
    terms = (lead - m * math.log(o1), lead - m * math.log(o2) + _log(p_m),
             mixed + m * math.log(o3 / o2) + _log(q_2m))
    top = max(terms)
    return top + math.log(sum(math.exp(term - top) for term in terms))


def g_factor(topology: NetworkTopology) -> float:
    """Leading coefficient of the single-link CDF at high common SNR:
    F(x) ~ g_factor * (x / snr)^m.

    With y = m / o3 it is m^(m-1) / (m-1)! (o1^-m + o2^-m P(m, y)) plus
    (2m-1)! / (m (m-1)!^2) (o3 / o2)^m Q(2m, y), in regularized incomplete
    gammas, formed as the exponential of its log (:func:`_log_g_factor`):
    inf from m = 516 at unit gains, where it leaves the float range."""
    return _exp(_log_g_factor(topology))


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
    # C(MN, N) = (MN)! / (N ((M-1)N)! (N-1)!) and the power, as one
    # exponential of its log: finite wherever the gain is
    lead = worst_case_rank_prob(num_users, num_relays) * math.comb(
        num_users * num_relays, num_relays)
    return _exp(math.log(lead) + num_relays * (_log_g_factor(topology)
                                               + m * _log(gamma_th)))


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
    return _outage(*_link_cdf(gamma_th, topology,
                              replace(budget, relay_snr_cap=math.inf)),
                   topology.num_users, topology.num_relays, pk)


# ---------------------------------------------------------------------------
# average throughput (Rayleigh fading)
# ---------------------------------------------------------------------------

_STEP = 0.2  # trapezoid step in s = ln x
_S_SPAN = 40.0  # first node at e^-40 times the integrand's scale min(1, 1/a, d)
_DECAY_MAX = 750.0  # e^-(a x) underflows to zero before a x reaches this


class _Levels(NamedTuple):
    """The three levels of a run of budgets, one per node of their
    trapezoid rules, as :func:`_link_cdf` reads them."""

    source_snr: np.ndarray
    relay_snr_cap: np.ndarray
    interference_snr_cap: np.ndarray


def _log_trapezoid(a: float, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights of the trapezoid rule for the integral of
    g(x) / (1+x) over x >= 0, for g bounded by 1 and decaying like
    e^-(a x): with x = e^s the integrand becomes g(e^s) e^s / (1+e^s),
    analytic in a strip about the real s axis and decaying exponentially
    at one end and doubly exponentially at the other, so the rule at a
    fixed step converges geometrically (Trefethen and Weideman, SIAM
    Review 56, 2014).  The rule drops the integral below its first node,
    at most that node since g <= 1, so the node sits at e^-40 times the
    smallest scale on which g falls: 1, 1/a, or ``d``, which ``a`` does
    not see (hop 2's interference-limited SNR scale).  A ``d`` of 0
    leaves g at 0, with nothing below the node to drop."""
    s_min = -_S_SPAN - max(0.0, math.log(a), -math.log(d) if d > 0 else 0.0)
    x = np.exp(np.arange(s_min, math.log(_DECAY_MAX / a), _STEP))
    return x, _STEP * x / (1.0 + x)


def _nodes_per_call(topology: NetworkTopology) -> int:
    """Trapezoid nodes read in one kernel call.  A call holds about four
    (nodes, M*N + 1) arrays of binomial terms, so each gets a quarter of
    ``ENTRIES``: 3640 nodes at 2x4, 16 at 1x2000 (a budget's rule takes
    233 nodes, and 5 more per unit of ln(1/a) below a = 1)."""
    size = topology.num_users * topology.num_relays
    return max(1, ENTRIES // (4 * (size + 1)))


def _throughput_run(topology: NetworkTopology, run, weights: np.ndarray, out):
    """Add to ``out[i]`` the throughput of each ``(i, budget, nodes, node
    weights)`` piece of a run, from one call of the link-CDF and
    binomial-term kernels on the run's joined nodes; each piece's
    mixture and integral are summed on its own slice, so a budget read
    in one piece gets, bit for bit, the value it gives alone."""
    counts = [len(x) for _, _, x, _ in run]
    levels = _Levels(*(np.repeat([getattr(b, name) for _, b, _, _ in run], counts)
                       for name in _Levels._fields))
    terms = _binomial_terms(
        *_link_cdf(np.concatenate([x for _, _, x, _ in run]), topology, levels),
        len(weights) - 1)
    start = 0
    for (i, _, _, node_weights), count in zip(run, counts):
        integral = node_weights @ (terms[start:start + count] @ weights)
        out[i] += float(integral) / (2.0 * topology.num_users * math.log(2.0))
        start += count


def average_throughput(topology: NetworkTopology, budget, pk):
    """Average per-user throughput (bits per channel use) under Rayleigh
    fading, including the 1/(2M) half-duplex orthogonal-slot penalty:
    (1 / (2 M ln 2)) times the integral of S(x) / (1+x) over x >= 0.

    S, the CCDF of the selected SNR, is the binomial mixture with weight
    w_j = sum over k <= n-j of p_k, the ranks whose entry lies above the
    point when j entries are at or below it, read at the link CDF and
    CCDF of :func:`_link_cdf`.  The integral is the trapezoid rule of
    :func:`_log_trapezoid`, vectorised over its nodes.

    ``budget`` is one :class:`LinkBudget` (the result is a float) or a
    sequence of them (a list, one value per budget).  Consecutive budgets
    form runs of up to :func:`_nodes_per_call` nodes, each read by
    :func:`_throughput_run`; a rule longer than that is read in pieces of
    that many nodes, and its integral summed over them.  A run's rules
    are built as its budgets come and its joined nodes and levels when
    its call is made, so memory is bounded by one call, not by the
    number of budgets or the shape.
    """
    if topology.nakagami_m != 1:
        raise ValueError("closed-form throughput requires nakagami_m == 1")
    single = isinstance(budget, LinkBudget)
    budgets = [budget] if single else list(budget)
    if not budgets:
        return []
    probs = _pk_vector(pk, topology.num_users, topology.num_relays)
    weights = np.concatenate(([0.0], np.cumsum(probs)))[::-1]
    per_call = _nodes_per_call(topology)
    out = []
    run, nodes = [], 0  # the pieces of the next call and their node count
    for b in budgets:
        # the link CCDF decays like e^-(a x), and hop 2's from the scale
        # d of its interference-limited SNR on (see :func:`_link_cdf`)
        x, node_weights = _log_trapezoid(
            1.0 / (topology.eff_gain_hop1 * b.source_snr)
            + 1.0 / (topology.eff_gain_hop2 * b.relay_snr_cap),
            topology.eff_gain_hop2 * b.interference_snr_cap
            / topology.eff_gain_interf)
        out.append(0.0)
        for start in range(0, len(x), per_call):
            piece = x[start:start + per_call]
            if nodes + len(piece) > per_call:  # the run fills one call
                _throughput_run(topology, run, weights, out)
                run, nodes = [], 0
            run.append((len(out) - 1, b, piece,
                        node_weights[start:start + per_call]))
            nodes += len(piece)
    _throughput_run(topology, run, weights, out)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# names the benchmark tracer in perfbench/ looks up on this module; none of
# them is on a path of the package, and they stay until the tracer drops them
# ---------------------------------------------------------------------------

from .specfun import (  # noqa: E402,F401
    exp_scaled_ei,
    lower_incomplete_gamma,
    order_stat_coeff,
    upper_incomplete_gamma,
)


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
    x, node_weights = _log_trapezoid(at, math.inf)
    return float(node_weights @ (np.exp(-at * x) / (x + d) ** int(j)))
