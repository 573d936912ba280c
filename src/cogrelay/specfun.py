"""Special functions used by the closed-form performance expressions.

Every gamma-type quantity in this package carries an integer shape
parameter, so the incomplete gamma functions reduce to exact finite sums
and no generic continued-fraction incomplete-gamma machinery is needed.
``exp_scaled_ei`` (the scaled exponential integral of the paper's
throughput closed form) and ``order_stat_coeff`` (the coefficient of its
alternating order-statistic sum) have no caller in the package;
``analytic`` imports them only because the benchmark tracer in
``perfbench/`` wraps those names.
"""

from __future__ import annotations

import math

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


def _regularized_upper(m: int, x: float) -> float:
    """Q(m, x) = e^-x * sum_{k<m} x^k / k!  (all terms positive)."""
    term = math.exp(-x)
    total = term
    for k in range(1, m):
        term *= x / k
        total += term
    return total


def _regularized_lower_tail(m: int, x: float) -> float:
    """P(m, x) = e^-x * sum_{k>=m} x^k / k!, summed directly.

    Used for x < m where evaluating 1 - Q(m, x) would cancel badly; the
    term ratio x/(k+1) < 1 there, so the series decreases monotonically.
    """
    log_first = m * math.log(x) - math.lgamma(m + 1) - x
    if log_first < -745.0:
        return 0.0
    term = math.exp(log_first)
    total = term
    k = m
    while True:
        k += 1
        term *= x / k
        total += term
        if term <= 1e-18 * total:
            return total


def lower_incomplete_gamma(m, x: float) -> float:
    """gamma(m, x) = integral of t^(m-1) e^-t from 0 to x, integer m >= 1.

    Evaluated through the finite-sum identity
    gamma(m, x) = (m-1)! * (1 - e^-x sum_{k<m} x^k/k!); for x < m the
    complementary series is summed instead so small values keep full
    relative accuracy.
    """
    m = _check_shape(m)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    fact = float(math.factorial(m - 1))
    if x >= m:
        return fact * (1.0 - _regularized_upper(m, x))
    return fact * _regularized_lower_tail(m, x)


def upper_incomplete_gamma(m, x: float) -> float:
    """Gamma(m, x) = (m-1)! - gamma(m, x) for integer m >= 1."""
    m = _check_shape(m)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    fact = float(math.factorial(m - 1))
    if x == 0:
        return fact
    if x >= m:
        return fact * _regularized_upper(m, x)
    return fact * (1.0 - _regularized_lower_tail(m, x))


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
