"""Test-side helpers and oracles that the package itself does not need:
link budgets given in dB, the relay cap and the SNR matrix (perfect
CSI its zero-error case) in their masked (``np.where``) form, each
mean gain's split into an estimate gain and an error variance, the
compact Rayleigh link CDF, the link CDF and CCDF by quadrature over
the interference gain, the high-SNR coefficient in its factorial form,
gamma gains as m exponential draws summed at once, a Monte Carlo
estimate of the single-link CDF, the Monte Carlo outage and throughput estimators that
assign every trial at every point, the Poisson race of the link CDF as
products and from scipy's binomial pmf, and the paper's closed-form
average throughput (an alternating sum over order statistics of
exponential-type integrals h(j, at, d), each from a closed recursion),
the closed-form throughput of a sweep with every budget's trapezoid
rule, nodes and levels built before the first kernel call, and sampled
rank placement in blocks of 65536 trials whatever the shape."""

import math
from dataclasses import replace

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc
from scipy.stats import binom

from assign_oracles import global_ranks
from cogrelay import analytic, model, selection
from cogrelay.analytic import (
    _Levels,
    _binomial_terms,
    _link_cdf,
    _log_trapezoid,
    _pk_vector,
)
from cogrelay.model import LinkBudget, NetworkTopology, db_to_linear
from cogrelay.montecarlo import (
    McEstimate,
    _block_rng,
    _blocks,
    _check_trials,
    wilson_interval,
)
from cogrelay.specfun import (
    exp_scaled_ei,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)


def budget_db(l1, l2, l3):
    """Source power, relay cap and interference cap in dB."""
    return LinkBudget(db_to_linear(l1), db_to_linear(l2), db_to_linear(l3))


def relay_power_where(f_gain, budget: LinkBudget, topology: NetworkTopology):
    """The relay cap with the interference limit masked to +inf where the
    gain is not positive: min(peak, I d3^b / f), and the peak at f = 0."""
    f = np.asarray(f_gain, dtype=float)
    if np.any(f < 0):
        raise ValueError("interference gain must be >= 0")
    d3b = topology.d3 ** topology.path_loss_exp
    with np.errstate(divide="ignore"):
        interference_limit = np.where(
            f > 0, budget.interference_snr_cap * d3b / f, np.inf
        )
    out = np.minimum(budget.relay_snr_cap, interference_limit)
    return float(out) if out.ndim == 0 else out


def csi_split(topology: NetworkTopology, err) -> tuple[tuple, tuple]:
    """Each mean gain Ω split into its estimate's gain Ω·(1 - r) and its
    error's variance Ω·r, for the hop-1, hop-2 and interference links,
    the two triples in that order: the six values an error model once
    held, derived where the package reads them."""
    gains = (topology.omega_h1, topology.omega_h2, topology.omega_f)
    ratios = (err.error_ratio_h1, err.error_ratio_h2, err.error_ratio_f)
    return (tuple(g * (1 - r) for g, r in zip(gains, ratios)),
            tuple(g * r for g, r in zip(gains, ratios)))


def snr_matrix_imperfect_where(estimates, err, topology: NetworkTopology,
                               budget: LinkBudget) -> np.ndarray:
    """``model.snr_matrix_imperfect`` with :func:`relay_power_where` for
    the relay cap, written without in-place steps: each hop's SNR is
    h / (σ² + dᵇ/λ), with λ the source power and the relay power.  At
    zero error it is ``model.snr_matrix``, the form that the package's
    one builder, hop 2's noise the larger of its cap-free part and
    d2ᵇ/λ2, must reproduce bit for bit."""
    d1b = topology.d1 ** topology.path_loss_exp
    d2b = topology.d2 ** topology.path_loss_exp
    q = np.asarray(relay_power_where(estimates.interf, budget, topology))
    err_var_hop1, err_var_hop2, _ = csi_split(topology, err)[1]
    # +inf at an infinite power, or one so large that the SNR overflows
    with np.errstate(divide="ignore", over="ignore"):
        hop2_snr = estimates.hop2 / (err_var_hop2 + d2b / q)
        hop1_snr = estimates.hop1 / (err_var_hop1 + d1b / budget.source_snr)
    return np.minimum(hop1_snr, hop2_snr)


def cdf_min_snr_rayleigh(x: float, topology: NetworkTopology,
                         budget: LinkBudget) -> float:
    """Rayleigh-fading single-link CDF in the compact form
    1 - e^(-a x) (b + c/(x + d)); equal at shape 1 to the CDF of
    ``analytic._link_cdf``."""
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


def link_cdf_quad(x: float, topology: NetworkTopology, budget: LinkBudget,
                  csi=None) -> tuple[float, float]:
    """Link CDF F and CCDF G at ``x`` by quadrature over the
    interference gain g (gamma, rate b = m / o3): F = P1 + Q1 F2 and
    G = Q1 G2, where F2 and G2 average the second hop's conditional CDF
    P(m, a max(g, c)) and CCDF Q(m, a max(g, c)), a = m x / (o2 l3),
    over g: the capped term P(m, b c) at g <= c, c = l3 / l2, plus the
    scipy quad of the positive integrand over g > c.  Under imperfect CSI
    (Rayleigh) each hop runs on the estimate gains and keeps its own
    estimation error, which multiplies its CCDF by e^(-x var/est)."""
    m = topology.nakagami_m
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    if csi is None:
        o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                      topology.eff_gain_interf)
        e1 = e2 = 0.0
    else:
        loss = topology.path_loss_exp
        (est1, est2, est3), (var1, var2, _) = csi_split(topology, csi)
        o1 = est1 / topology.d1 ** loss
        o2 = est2 / topology.d2 ** loss
        o3 = est3 / topology.d3 ** loss
        e1, e2 = var1 / est1, var2 / est2
    a, b, c = m * x / (o2 * l3), m / o3, l3 / l2

    def density(g):
        return b ** m * g ** (m - 1) * math.exp(-b * g) / math.factorial(m - 1)

    def average(conditional, scale):
        # g = c + u * scale: the integrand varies on a unit scale in u
        tail, _ = integrate.quad(
            lambda u: conditional(a * (c + u * scale)) * density(c + u * scale),
            0.0, np.inf, epsabs=0.0, epsrel=2e-14, limit=400)
        return gammainc(m, b * c) * conditional(m * x / (o2 * l2)) + tail * scale

    keep1, keep2 = math.exp(-x * e1), math.exp(-x * e2)
    # the CDF's integrand falls with the density, the CCDF's faster
    f2 = -math.expm1(-x * e2) + keep2 * average(
        lambda y: gammainc(m, y), 1.0 / b)
    g2 = keep2 * average(lambda y: gammaincc(m, y), 1.0 / (a + b))
    y1 = m * x / (o1 * l1)
    q1 = keep1 * gammaincc(m, y1)
    return -math.expm1(-x * e1) + keep1 * gammainc(m, y1) + q1 * f2, q1 * g2


def link_cdf_mpmath(x: float, topology: NetworkTopology, budget: LinkBudget,
                    dps: int = 40) -> tuple:
    """:func:`link_cdf_quad` (without CSI) in mpmath at ``dps`` digits,
    with tanh-sinh quadrature over the interference gain.  mpmath is
    imported here, so only its callers need it."""
    import mpmath as mp

    with mp.workdps(dps):
        m = topology.nakagami_m
        x, o1, o2, o3, l1, l3 = map(mp.mpf, (
            x, topology.eff_gain_hop1, topology.eff_gain_hop2,
            topology.eff_gain_interf, budget.source_snr,
            budget.interference_snr_cap))
        c = l3 / mp.mpf(budget.relay_snr_cap)  # 0 at an infinite cap
        a, b = m * x / (o2 * l3), m / o3

        def lower(y):
            return mp.gammainc(m, 0, y, regularized=True)

        def upper(y):
            return mp.gammainc(m, y, mp.inf, regularized=True)

        def density(g):
            return b ** m * g ** (m - 1) * mp.exp(-b * g) / mp.factorial(m - 1)

        points = sorted({c + k / rate for rate in (a + b, b)
                         for k in (0, 1, 4, 16, 64, 256)})

        def average(conditional):
            def integrand(g):
                return conditional(a * g) * density(g)
            # quad's tolerance is absolute: integrate at unit scale
            scale = max(integrand(g) for g in points)
            tail = scale * mp.quad(lambda g: integrand(g) / scale, points)
            return lower(b * c) * conditional(a * c) + tail

        y1 = m * x / (o1 * l1)
        return (lower(y1) + upper(y1) * average(lower),
                upper(y1) * average(upper))


def g_factor_factorial(topology: NetworkTopology) -> float:
    """The high-SNR link CDF coefficient in the paper's form, with
    factorials and unregularized incomplete gammas:
    m^(m-1) / ((m-1)! o1^m) + (m^m gamma(m, m/o3) + o3^m Gamma(2m, m/o3))
    / (m (m-1)!^2 o2^m).  Its factorials overflow from m = 172."""
    m = topology.nakagami_m
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    gam_m = float(math.factorial(m - 1))
    first = m ** (m - 1) / (gam_m * o1 ** m)
    second = (m ** m * lower_incomplete_gamma(m, m / o3)
              + o3 ** m * upper_incomplete_gamma(2 * m, m / o3)) \
        / (m * gam_m ** 2 * o2 ** m)
    return first + second


def g_factor_mpmath(topology: NetworkTopology, dps: int = 40):
    """:func:`g_factor_factorial` in mpmath at ``dps`` digits (an mpf).
    mpmath is imported here, so only its callers need it."""
    import mpmath as mp

    with mp.workdps(dps):
        m = mp.mpf(topology.nakagami_m)
        o1, o2, o3 = map(mp.mpf, (topology.eff_gain_hop1,
                                  topology.eff_gain_hop2,
                                  topology.eff_gain_interf))
        gam_m = mp.factorial(m - 1)
        return (m ** (m - 1) / (gam_m * o1 ** m)
                + (m ** m * mp.gammainc(m, 0, m / o3)
                   + o3 ** m * mp.gammainc(2 * m, m / o3, mp.inf))
                / (m * gam_m ** 2 * o2 ** m))


def throughput_params(topology: NetworkTopology, budget: LinkBudget):
    """a, b, d of the paper's Rayleigh link CCDF e^-(a x) (b + d (1-b)/(x+d))."""
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    a = 1.0 / (o1 * l1) + 1.0 / (o2 * l2)
    b = 1.0 - math.exp(-l3 / (o3 * l2))
    d = o2 * l3 / o3
    return a, b, d


def estimate_cdf(topology: NetworkTopology, budget: LinkBudget, grid,
                 trials: int, seed: int, z: float = 1.96) -> list[McEstimate]:
    """Empirical CDF of a single user-relay link SNR on an ascending
    grid (the cross-check oracle for the closed-form link CDF)."""
    _check_trials(trials)
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
    single = replace(topology, num_users=1, num_relays=1)
    hits = np.zeros(len(grid), dtype=np.int64)
    for index, block in _blocks(trials, single):
        rng = _block_rng(seed, index)
        draws = model.sample_realization(single, rng, trials=block)
        snr = model.snr_matrix(draws, single, budget).reshape(-1)
        hits += np.searchsorted(np.sort(snr), grid, side="right")
    return [
        McEstimate(int(h) / trials, *wilson_interval(int(h), trials, z), trials)
        for h in hits
    ]


def gamma_gains_summed(rng, m: int, mean: float, shape) -> np.ndarray:
    """Squared Nakagami-m gains of mean ``mean``: m exponential draws of
    mean mean/m in one (m,) + ``shape`` array, summed over axis 0."""
    draws = rng.exponential(scale=mean / m, size=(m,) + tuple(shape))
    return draws[0] if m == 1 else draws.sum(axis=0)


def selected_redrawn(scheme: str, snrs: np.ndarray, rng) -> np.ndarray:
    """The selected SNRs of every trial of ``snrs``.  ``random`` draws its
    keys from ``rng`` as it assigns, one uniform per relay and trial, and
    gives user u the relay of the u-th smallest key; the other schemes
    draw nothing."""
    if scheme != "random":
        return selection.assign_batch(scheme, snrs)[1]
    trials, num_users, num_relays = snrs.shape
    chosen = np.argsort(rng.random((trials, num_relays)), axis=1)[:, :num_users]
    return np.take_along_axis(snrs, chosen[:, :, None], axis=2)[:, :, 0]


def estimate_outage_unfiltered(topology: NetworkTopology, budgets, scheme: str,
                               thresholds, trials: int, seed: int,
                               z: float = 1.96, csi=None):
    """``montecarlo.estimate_outage`` for paired lists of budgets and
    thresholds, point by point: each block draws its gains as the engine
    does, then every point builds its SNR matrix, assigns every trial from
    the generator state after the draws, and counts the selected SNRs at
    or below its threshold.  No trial is skipped and nothing is shared
    between points."""
    _check_trials(trials)
    hits = np.zeros((len(budgets), topology.num_users), dtype=np.int64)
    for index, block in _blocks(trials, topology):
        rng = _block_rng(seed, index)
        if csi is None:
            draws = model.sample_realization(topology, rng, trials=block)
        else:
            draws = model.sample_estimated_realization(topology, csi, rng,
                                                       trials=block)
        state = rng.bit_generator.state
        for point, (budget, threshold) in enumerate(zip(budgets, thresholds)):
            rng.bit_generator.state = state
            if csi is None:
                snrs = model.snr_matrix(draws, topology, budget)
            else:
                snrs = model.snr_matrix_imperfect(draws, csi, topology, budget)
            eff = selected_redrawn(scheme, snrs, rng)
            hits[point] += (eff <= threshold).sum(axis=0)
    return [[McEstimate(int(h) / trials, *wilson_interval(int(h), trials, z), trials)
             for h in row]
            for row in hits]


def estimate_throughput_unsettled(topology: NetworkTopology, budgets,
                                  scheme: str, trials: int, seed: int,
                                  z: float = 1.96, scales=None):
    """``montecarlo.estimate_throughput`` for a list of budgets (each
    rate taken at ``scales`` times its selected SNR, 1 by default),
    point by point: each block draws its gains as the engine does, then
    every point builds its SNR matrix and assigns every trial from the
    generator state after the draws.  No trial is carried from one
    budget to the next.  The sums are formed as the engine forms them,
    each block's added to the running totals in block order, so equal
    selected SNRs give equal estimates."""
    _check_trials(trials)
    num_users = topology.num_users
    scales = [1.0] * len(budgets) if scales is None else scales
    sums = np.zeros((len(budgets), num_users))
    sq_sums = np.zeros_like(sums)
    for index, block in _blocks(trials, topology):
        rng = _block_rng(seed, index)
        draws = model.sample_realization(topology, rng, trials=block)
        state = rng.bit_generator.state
        for point, budget in enumerate(budgets):
            rng.bit_generator.state = state
            eff = selected_redrawn(
                scheme, model.snr_matrix(draws, topology, budget), rng)
            tau = (np.log1p(scales[point] * eff)
                   / (2.0 * num_users * math.log(2.0)))
            for u in range(num_users):
                sums[point, u] += tau[:, u].sum()
                sq_sums[point, u] += np.square(tau[:, u]).sum()
    out = []
    for point in range(len(budgets)):
        row = []
        for u in range(num_users):
            mean = sums[point, u] / trials
            var = max(0.0, sq_sums[point, u] / trials - mean * mean)
            half = z * math.sqrt(var / trials)
            row.append(McEstimate(mean, max(0.0, mean - half), mean + half, trials))
        out.append(row)
    return out


def race_products(m: int, poi_a, poi_b, r, s):
    """``analytic._race`` with every binomial term a product
    C(n, k) r^k s^(n-k), summed pair by pair; C(n, k) leaves the float
    range from m = 516."""
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


def race_binom(m: int, poi_a, poi_b, r: float):
    """``analytic._race`` at one point from scipy's binomial pmf: for
    each n = 2m-i-j-1, the tail and head sums of ``binom.pmf(k, n, r)``
    at m-i, accumulated with ``math.fsum``."""
    win_a, win_b = [], []
    for n in range(1, 2 * m):
        pmf = binom.pmf(np.arange(n + 1), n, r)
        tails = np.cumsum(pmf[::-1])[::-1]  # tails[t]: k >= t
        heads = np.cumsum(pmf)  # heads[t]: k <= t
        i = np.arange(max(0, m - n), min(m, 2 * m - n))
        both = poi_a[i] * poi_b[2 * m - 1 - n - i]
        win_a.extend(both * tails[m - i])
        win_b.extend(both * heads[m - i - 1])
    return math.fsum(win_a), math.fsum(win_b)


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
    a, b, d = throughput_params(topology, budget)
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


def average_throughput_joined(topology: NetworkTopology, budgets, pk) -> list[float]:
    """``analytic.average_throughput`` of a sequence of budgets with every
    budget's trapezoid rule, the joined node array and its three
    node-length level arrays built up front, then read up to
    ``analytic._nodes_per_call`` nodes per kernel call: at a shape where
    no budget's rule is longer than that, the same calls on the same
    inputs, with memory that grows with the number of budgets."""
    budgets = list(budgets)
    if not budgets:
        return []
    num_users, num_relays = topology.num_users, topology.num_relays
    probs = _pk_vector(pk, num_users, num_relays)
    weights = np.concatenate(([0.0], np.cumsum(probs)))[::-1]
    per_call = analytic._nodes_per_call(topology)
    rules = [_log_trapezoid(1.0 / (topology.eff_gain_hop1 * b.source_snr)
                            + 1.0 / (topology.eff_gain_hop2 * b.relay_snr_cap),
                            topology.eff_gain_hop2 * b.interference_snr_cap
                            / topology.eff_gain_interf)
             for b in budgets]
    bounds = np.cumsum([0] + [len(x) for x, _ in rules])
    x = np.concatenate([x for x, _ in rules])
    levels = [np.repeat([getattr(b, name) for b in budgets], np.diff(bounds))
              for name in _Levels._fields]
    out = []
    start = 0
    while start < len(budgets):
        stop = start + 1
        while (stop < len(budgets)
               and bounds[stop + 1] - bounds[start] <= per_call):
            stop += 1
        nodes = slice(bounds[start], bounds[stop])
        terms = _binomial_terms(
            *_link_cdf(x[nodes], topology,
                       _Levels(*(level[nodes] for level in levels))),
            len(weights) - 1)
        for i in range(start, stop):
            rows = terms[bounds[i] - bounds[start]:bounds[i + 1] - bounds[start]]
            integral = rules[i][1] @ (rows @ weights)
            out.append(float(integral) / (2.0 * num_users * math.log(2.0)))
        start = stop
    return out


def rank_placement_sampled(num_users: int, num_relays: int, scheme: str,
                           trials: int, seed: int, block: int = 1 << 16):
    """Per-user rank-placement counts over ``trials`` matrices drawn from
    ``default_rng(seed)`` in blocks of ``block`` trials, each assigned
    by the batched scheme: how ``selection.rank_placement_probs``
    samples, with a block size that does not follow the shape."""
    rng = np.random.default_rng(seed)
    mn = num_users * num_relays
    counts = np.zeros((num_users, mn), dtype=np.int64)
    for start in range(0, trials, block):
        values = rng.random((min(block, trials - start), num_users, num_relays))
        eff = selection.assign_batch(scheme, values)[1]
        ranks = global_ranks(values, eff)
        for u in range(num_users):
            counts[u] += np.bincount(ranks[:, u] - 1, minlength=mn)
    return counts
