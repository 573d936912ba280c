"""Seeded, reproducible Monte Carlo engine.

Trials are processed in fixed-size blocks and each block draws from its
own generator seeded by (master seed, block index).  Results therefore
depend only on (seed, trials, configuration) -- never on how blocks
might be scheduled across workers -- and block outputs are integer
counts or compensated partial sums, so aggregation order cannot change
the answer either.

The outage and throughput estimators also score a sequence of outage
thresholds or SNR scales on the same trials.  A sweep whose SNRs are all
one level times a fixed unit-power matrix (a common-SNR sweep without
CSI) then needs a single pass: its points share one random stream, so
their estimates are correlated, and each block sorts its selected SNRs
once so that every threshold costs one binary search rather than a
pass over the trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, selection
from .model import CsiErrorModel, LinkBudget, NetworkTopology

__all__ = [
    "McEstimate",
    "wilson_interval",
    "two_proportion_z",
    "estimate_outage",
    "estimate_throughput",
    "estimate_cdf",
]

BLOCK = 1 << 16  # trials per derived random stream (fixed by design)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate with a confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _blocks(trials: int):
    start = 0
    index = 0
    while start < trials:
        yield index, min(BLOCK, trials - start)
        start += BLOCK
        index += 1


def _check_trials(trials: int, minimum: int = 1):
    if trials < minimum:
        raise ValueError(f"trials must be >= {minimum}, got {trials}")


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion; well behaved for
    the rare events met at high SNR."""
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    # the interval provably contains p; keep that under rounding too
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def two_proportion_z(successes_a: int, successes_b: int, trials: int) -> float:
    """z statistic for equality of two proportions on equal sample sizes."""
    pa = successes_a / trials
    pb = successes_b / trials
    pooled = (successes_a + successes_b) / (2 * trials)
    var = pooled * (1 - pooled) * 2 / trials
    if var == 0:
        return 0.0
    return (pa - pb) / math.sqrt(var)


def _trial_snrs(topology: NetworkTopology, budget: LinkBudget, rng, block: int,
                csi: CsiErrorModel | None) -> np.ndarray:
    if csi is None:
        draws = model.sample_realization(topology, rng, trials=block)
        return model.snr_matrix(draws, topology, budget)
    draws = model.sample_estimated_realization(topology, csi, rng, trials=block)
    return model.snr_matrix_imperfect(draws, csi, topology, budget)


def estimate_outage(topology: NetworkTopology, budget: LinkBudget, scheme: str,
                    gamma_th, trials: int, seed: int, z: float = 1.96,
                    csi: CsiErrorModel | None = None):
    """Per-user empirical outage probability with a Wilson interval.

    Each trial samples a channel realization, runs the selection scheme
    and records, per user, whether the selected SNR is at or below the
    threshold.  Pass ``csi`` to sample estimated channels and score the
    imperfect-CSI SNR matrix instead.

    ``gamma_th`` is one threshold, giving one estimate per user, or a
    sequence of thresholds, giving one such per-user list per threshold,
    all counted on the same trials.
    """
    _check_trials(trials)
    thresholds = np.atleast_1d(np.asarray(gamma_th, dtype=float))
    hits = np.zeros((thresholds.size, topology.num_users), dtype=np.int64)
    for index, block in _blocks(trials):
        rng = _block_rng(seed, index)
        snrs = _trial_snrs(topology, budget, rng, block, csi)
        _, eff, _ = selection.assign_batch(scheme, snrs, rng)
        # trials at or below a threshold = its right insertion point
        for user, column in enumerate(np.sort(eff.T, axis=1)):
            hits[:, user] += np.searchsorted(column, thresholds, side="right")
    out = [[McEstimate(int(h) / trials, *wilson_interval(int(h), trials, z),
                       trials, seed)
            for h in row]
           for row in hits]
    return out if np.ndim(gamma_th) else out[0]


def estimate_throughput(topology: NetworkTopology, budget: LinkBudget,
                        scheme: str, trials: int, seed: int,
                        z: float = 1.96, scales=1.0):
    """Per-user empirical average throughput (bits per channel use) with
    a normal-approximation interval.

    The rate of a trial is taken at ``scales`` times its selected SNR.
    One scale gives one estimate per user; a sequence of scales gives
    one such per-user list per scale, all averaged over the same trials.
    """
    _check_trials(trials)
    num_users = topology.num_users
    factors = np.atleast_1d(np.asarray(scales, dtype=float))
    blocks = list(_blocks(trials))
    sums = np.zeros((factors.size, num_users, len(blocks)))
    sq_sums = np.zeros_like(sums)
    for index, block in blocks:
        rng = _block_rng(seed, index)
        snrs = _trial_snrs(topology, budget, rng, block, None)
        _, eff, _ = selection.assign_batch(scheme, snrs, rng)
        for point, factor in enumerate(factors):
            tau = np.log2(1.0 + factor * eff) / (2.0 * num_users)
            for u in range(num_users):
                sums[point, u, index] = tau[:, u].sum()
                sq_sums[point, u, index] = np.square(tau[:, u]).sum()
    out = []
    for point in range(factors.size):
        row = []
        for u in range(num_users):
            mean = math.fsum(sums[point, u]) / trials
            var = max(0.0, math.fsum(sq_sums[point, u]) / trials - mean * mean)
            half = z * math.sqrt(var / trials)
            row.append(McEstimate(mean, max(0.0, mean - half), mean + half,
                                  trials, seed))
        out.append(row)
    return out if np.ndim(scales) else out[0]


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
