"""Test-side helpers and oracles that the package itself does not need:
link budgets given in dB, the compact Rayleigh link CDF, a Monte Carlo
estimate of the single-link CDF, and the paper's closed-form average
throughput (an alternating sum over order statistics of exponential-type
integrals h(j, at, d), each from a closed recursion)."""

import math

import numpy as np

from cogrelay import model
from cogrelay.analytic import _pk_vector, _throughput_params
from cogrelay.model import LinkBudget, NetworkTopology, db_to_linear
from cogrelay.montecarlo import (
    McEstimate,
    _block_rng,
    _blocks,
    _check_trials,
    wilson_interval,
)
from cogrelay.specfun import exp_scaled_ei


def budget_db(l1, l2, l3, gth=5.0):
    """Source power, relay cap, interference cap and threshold in dB."""
    return LinkBudget(db_to_linear(l1), db_to_linear(l2), db_to_linear(l3),
                      db_to_linear(gth))


def cdf_min_snr_rayleigh(x: float, topology: NetworkTopology,
                         budget: LinkBudget) -> float:
    """Rayleigh-fading single-link CDF in the compact form
    1 - e^(-a x) (b + c/(x + d)); equal to ``cdf_min_snr`` with shape 1."""
    if topology.nakagami_m != 1:
        raise ValueError("compact Rayleigh CDF requires nakagami_m == 1")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    a = 1.0 / (o1 * l1) + 1.0 / (o2 * l2)
    b = 1.0 - math.exp(-l3 / (o3 * l2))
    d = o2 * l3 / o3
    c = d * (1.0 - b)
    return 1.0 - math.exp(-a * x) * (b + c / (x + d))


def estimate_cdf(topology: NetworkTopology, budget: LinkBudget, grid,
                 trials: int, seed: int, z: float = 1.96) -> list[McEstimate]:
    """Empirical CDF of a single user-relay link SNR on an ascending
    grid (the cross-check oracle for the closed-form link CDF)."""
    _check_trials(trials)
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
    single = NetworkTopology(
        num_users=1, num_relays=1, nakagami_m=topology.nakagami_m,
        mean_gain_hop1=topology.mean_gain_hop1,
        mean_gain_hop2=topology.mean_gain_hop2,
        mean_gain_interf=topology.mean_gain_interf,
        dist_hop1=topology.dist_hop1, dist_hop2=topology.dist_hop2,
        dist_interf=topology.dist_interf,
        path_loss_exp=topology.path_loss_exp,
    )
    hits = np.zeros(len(grid), dtype=np.int64)
    for index, block in _blocks(trials):
        rng = _block_rng(seed, index)
        draws = model.sample_realization(single, rng, trials=block)
        snr = model.snr_matrix(draws, single, budget).reshape(-1)
        hits += np.searchsorted(np.sort(snr), grid, side="right")
    return [
        McEstimate(int(h) / trials, *wilson_interval(int(h), trials, z),
                   trials, seed)
        for h in hits
    ]


# ---------------------------------------------------------------------------
# the paper's closed-form throughput
# ---------------------------------------------------------------------------

TAYLOR_WINDOW = 0.25  # |d-1| below this: expand around the d=1 kernel


def h_unit(j: int, p: float, e: float) -> float:
    """integral of e^-(p x) / (x+1)^(j+1) over x >= 0, given
    e = e^p Ei(-p).

    Rearranged closed form sum_{s<j} (j-s-1)! (-p)^s / j!  plus the
    exponential-integral tail ((-p)^j / j!) * h(0).
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


def h_row(t: int, at: float, d: float) -> list[float]:
    """[h(0), ..., h(t)] of :func:`h_closed` at one (at, d), with one
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
    row = [h_unit(0, at, e)]
    delta = d - 1.0
    if abs(delta) < TAYLOR_WINDOW:
        for j in range(1, t + 1):
            total = 0.0
            coeff = 1.0  # (-delta)^s * C(j+s-1, s)
            for s in range(200):
                term = coeff * h_unit(j + s, at, e)
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


def h_closed(j: int, at: float, d: float) -> float:
    """integral of e^-(at x) / ((x+1) (x+d)^j) over x >= 0 by closed
    recursions: the d = 1 kernel reduces to a pure power, the d != 1
    case follows from partial fractions; near d = 1 the partial
    fractions divide by vanishing powers of (d-1), so the integrand is
    expanded in (d-1) around the d = 1 kernel instead (geometric
    convergence since |d-1|/(x+1) < 1 on the whole range).  The
    partial fractions cancel for large j and at (j = 19, at = 38 is
    18% off at d = 1.3)."""
    if j != int(j) or j < 0:
        raise ValueError(f"j must be an integer >= 0, got {j!r}")
    j = int(j)
    return h_row(j, at, d)[j]


def average_throughput_closed(topology: NetworkTopology, budget: LinkBudget,
                              pk) -> float:
    """The paper's average per-user throughput under Rayleigh fading.

    Expands the complementary CDF of the selected SNR over order
    statistics (weighted by the rank-placement probabilities) into
    alternating pieces, one per rank k and order t = k + i.  Each piece
    integrates a power of the link CCDF against 1/(1+x), a j-sum over
    h(j, a t, d) that depends on t alone, so it is built once per t from
    one :func:`h_row`.  The pieces cancel as M*N grows: by about 8e3 at
    3x4, and by 6e8 or more at 4x6 with weight on every max-min rank.
    """
    num_users, num_relays = topology.num_users, topology.num_relays
    probs = _pk_vector(pk, num_users, num_relays)
    mn = num_users * num_relays
    a, b, d = _throughput_params(topology, budget)
    c = d * (1.0 - b)
    jsum = [0.0]  # indexed by t; t = 0 never occurs
    for t in range(1, mn + 1):
        h = h_row(t, a * t, d)
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
    return math.fsum(pieces) / (2.0 * num_users * math.log(2.0))
