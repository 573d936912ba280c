"""Special functions used by the closed-form performance expressions.

Every gamma-type quantity in this package carries an integer shape
parameter m, so the regularized incomplete gammas are finite sums of
Poisson terms, Q(m, x) = e^-x sum_{k<m} x^k / k! and P = 1 - Q, with no
continued-fraction machinery.  Both incomplete gamma functions take a
float (and return a float) or a numpy array of points.
``exp_scaled_ei`` (the scaled exponential integral of the paper's
throughput closed form) and ``order_stat_coeff`` (the coefficient of its
alternating order-statistic sum) have no caller in the package;
``analytic`` imports them only because the benchmark tracer in
``perfbench/`` wraps those names.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lower_incomplete_gamma",
    "upper_incomplete_gamma",
    "exp_scaled_ei",
    "order_stat_coeff",
]

EULER_GAMMA = 0.5772156649015328606


def _check_shape(m) -> int:
    if m != int(m) or m < 1:
        raise ValueError(f"shape parameter must be an integer >= 1, got {m!r}")
    return int(m)


def _term_count(m: int) -> int:
    """The Poisson terms k < count kept at shape m: the tail falls
    slowest at x = m, so keep its terms above 1e-18 of the first."""
    count, fall = m, 1.0
    while fall > 1e-18:
        count += 1
        fall *= m / count
    return count


def _regularized_gamma(m: int, x):
    """(P(m, x), Q(m, x), terms) at every point of x >= 0, with terms the
    Poisson terms e^-x x^k / k!, k < m, along a last axis.  Q sums them,
    and P = 1 - Q >= 1/2 where x >= m; below, P sums the terms k >= m,
    which fall since x/(k+1) < 1 there, and Q = 1 - P.  Each term is the
    one before times x / k or, above x = 700, where e^-x underflows, the
    exponential of k ln x - x - ln k!; x is capped at 700 and 1e300 in
    these, so x = inf gives 0, never 0 * inf.  At m = 1 all are
    elementary."""
    if m == 1:
        q = np.exp(-x)
        return -np.expm1(-x), q, q[..., None]
    count = _term_count(m)
    x = np.asarray(x, dtype=float)
    near = np.minimum(x, 700.0)[..., None]
    terms = np.cumprod(np.concatenate(
        (np.exp(-near), near / np.arange(1, count)), axis=-1), axis=-1)
    far = x > 700.0
    if far.any():
        at = np.clip(x, 700.0, 1e300)[..., None]
        log_fact = [math.lgamma(k + 1.0) for k in range(count)]
        terms[far] = np.exp(np.arange(count) * np.log(at[far]) - at[far]
                            - log_fact)
    upper, lower = terms[..., :m].sum(axis=-1), terms[..., m:].sum(axis=-1)
    big = x >= m
    return (np.where(big, 1.0 - upper, lower),
            np.where(big, upper, 1.0 - lower), terms[..., :m])


def _log_scaled_gamma(m: int, x):
    """(log gamma(m, x), log Gamma(m, x)) at every point of x >= 0, each
    from a sum whose terms fall.  Below x = m, gamma(m, x) is
    x^m e^-x / m times sum_j prod_{i<=j} x / (m+i), over the tail of
    :func:`_term_count`; from x = m, Gamma(m, x)
    is x^(m-1) e^-x times sum_{j<m} prod_{i<=j} (m-i) / x.  The other one
    is (m-1)! minus it, its log lgamma(m) + log1p(-regularized).  x is
    capped at 1e300, so x = inf gives Gamma = 0, never inf - inf."""
    count = _term_count(m)
    x = np.minimum(np.asarray(x, dtype=float), 1e300)
    at = x[..., None]
    log_full = math.lgamma(m)
    # each branch is formed at every point and then picked, so the
    # branch not taken may divide by 0 or overflow
    with np.errstate(all="ignore"):
        log_x = np.log(x)
        tail = 1.0 + np.cumprod(at / (m + np.arange(1, count - m + 1)),
                                axis=-1).sum(axis=-1)
        head = 1.0 + np.cumprod((m - np.arange(1, m)) / at,
                                axis=-1).sum(axis=-1)
        log_lower = m * log_x - x - math.log(m) + np.log(tail)
        log_upper = (m - 1) * log_x - x + np.log(head)
        big = x >= m
        return (np.where(big, log_full + np.log1p(-np.exp(log_upper - log_full)),
                         log_lower),
                np.where(big, log_upper,
                         log_full + np.log1p(-np.exp(log_lower - log_full))))


def _scaled(m, x, which: int):
    """(m-1)! times P (``which`` 0) or Q (1) at a float or an array.
    From m = 172, where (m-1)! leaves the float range, the product is
    the exponential of its log (:func:`_log_scaled_gamma`): inf only
    beyond the float range, and 0 only below it."""
    m = _check_shape(m)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"x must be >= 0, got {x}")
    if m <= 171:
        value = math.factorial(m - 1) * _regularized_gamma(m, x)[which]
    else:
        with np.errstate(over="ignore"):
            value = np.exp(_log_scaled_gamma(m, x)[which])
    return float(value) if x.ndim == 0 else value


def lower_incomplete_gamma(m, x):
    """gamma(m, x) = integral of t^(m-1) e^-t from 0 to x, integer m >= 1."""
    return _scaled(m, x, 0)


def upper_incomplete_gamma(m, x):
    """Gamma(m, x) = (m-1)! - gamma(m, x) for integer m >= 1."""
    return _scaled(m, x, 1)


def exp_scaled_ei(p: float) -> float:
    """e^p * Ei(-p) for p > 0, computed without ever forming e^p.

    Below p = 1 the classic series for E1 is used (the e^p factor is
    harmless there); above it a modified-Lentz continued fraction yields
    e^p E1(p) directly.  The result is always negative and behaves like
    -1/p as p grows.
    """
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")
    if p <= 1.0:
        # E1(p) = -euler - ln p + sum_{k>=1} (-1)^(k+1) p^k / (k * k!)
        total = 0.0
        term = 1.0
        for k in range(1, 40):
            term *= p / k
            add = term / k
            total += add if k % 2 == 1 else -add
            if add < 1e-18 * abs(total):
                break
        e1 = -EULER_GAMMA - math.log(p) + total
        return -math.exp(p) * e1
    # e^p E1(p) = 1/(p+1 - 1/(p+3 - 4/(p+5 - 9/(p+7 - ...))))
    tiny = 1e-300
    b = p + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return -h


def order_stat_coeff(mn: int, k: int, i: int) -> float:
    """Magnitude of the i-th coefficient in the CDF of the k-th largest
    of mn i.i.d. variables:

        (mn)! C(k-1, i) / ((mn-k+i+1) (k-1)! (mn-k)!)

    Accumulated in log space so that large mn stays finite; the caller
    applies the alternating (-1)^i sign.
    """
    if mn < 1 or not 1 <= k <= mn:
        raise ValueError(f"need 1 <= k <= mn, got k={k}, mn={mn}")
    if not 0 <= i <= k - 1:
        raise ValueError(f"need 0 <= i <= k-1, got i={i}, k={k}")
    mu = mn - k + i + 1
    log_coeff = (
        math.lgamma(mn + 1)
        - math.lgamma(i + 1)
        - math.lgamma(k - i)
        - math.lgamma(mn - k + 1)
        - math.log(mu)
    )
    return math.exp(log_coeff)
