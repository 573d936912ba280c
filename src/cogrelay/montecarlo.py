"""Seeded, reproducible Monte Carlo engine.

Trials are processed in fixed-size blocks and each block draws from its
own generator seeded by (master seed, block index).  Results therefore
depend only on (seed, trials, configuration) -- never on how blocks
might be scheduled across workers -- and block outputs are integer
counts or compensated partial sums, so aggregation order cannot change
the answer either.

The outage and throughput estimators score a whole sweep in one call:
each point has a link budget and an outage threshold (or SNR scale).
Each block draws its channel gains once; then, once per distinct
budget, it builds the SNR matrix, assigns, and scores every point of
that budget.  All points thus share one random stream, so their
estimates are correlated.  A budget with one outage threshold counts
the selected SNRs at or below it in one pass; a budget with several
sorts them once per block, so every threshold costs one binary search
rather than a pass over the trials.

Max-min outage skips the trials that cannot be in outage.  A trial
whose SNR matrix holds an injective map with every entry above the
budget's largest threshold has its bottleneck above every threshold of
the budget, so it is served and counts nowhere; once the served trials
are an eighth or more of a budget's stack, they are dropped before it is
assigned.  Along a budget chain, each budget at every level at least the
one before and with a largest threshold at most the one before's, the
SNR matrix only grows, bit for bit, so a served trial stays served, and
dropping it also shrinks the block's draws.  Every ``lambda2`` sweep and
every ``lambda_all`` sweep with CSI is such a chain.

Throughput under max-min or naive selection runs a relay-cap chain,
where each budget has the source and interference levels of the one
before and a relay cap at least as large, in one pass per block.  The
block builds the parts of the SNR matrix that the cap leaves alone
once, and each budget applies only its cap to the trials left.  A trial
is settled once its SNR matrix equals, bit for bit, the matrix at an
infinite relay cap: the matrix only grows with the cap, so it is then
fixed for the rest of the chain, and so are the trial's selected SNRs,
whatever the scheme's tie-breaks.  Once they are an eighth or more of
the trials left, settled trials leave the parts and keep their selected
SNRs in a block-sized array; once none is left the block's later
budgets assign nothing.  The small stacks of consecutive budgets are
assigned in joined calls, and the rates of a run of points are summed
in one numpy call.  Every ``lambda2`` throughput sweep is such a chain.
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
]

BLOCK = 1 << 16  # trials per derived random stream (fixed by design)

# Max-min outage drops the served trials of a budget from its SNR stack
# (and, along a budget chain, from the draws), and throughput drops the
# settled trials of a relay-cap chain from the draws, once they are at
# least this share of the stack; fewer stay in it, where they count no
# outage, or are assigned the selected SNRs they already have.  Copying
# a 65536-trial 3x4 stack takes 2.5 ms, an eighth of the 21 ms of
# assigning it (one core of a shared Xeon), and copies made for the 0.7%
# served at fig3's 5 dB point raised its peak RSS by 2.5%.
_DROP_SHARE = 1 / 8

# Throughput along a relay-cap chain assigns consecutive budgets' stacks
# in one call while they hold at most this many SNR entries together
# (8192 trials at 2x4), and scores runs of points on at most this many
# rates at a time.
_JOIN_ELEMENTS = 1 << 16


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


def _per_point(budget, values):
    """Each point's budget and threshold (or scale); a single budget
    serves every point."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    budgets = ([budget] * values.size if isinstance(budget, LinkBudget)
               else list(budget))
    if len(budgets) != values.size:
        raise ValueError(f"{len(budgets)} budgets do not pair with "
                         f"{values.size} thresholds or scales")
    return budgets, values


def _groups(budgets) -> dict[LinkBudget, list[int]]:
    """The points of each distinct budget, budgets in order of first use."""
    groups: dict[LinkBudget, list[int]] = {}
    for point, budget in enumerate(budgets):
        groups.setdefault(budget, []).append(point)
    return groups


def _selected_snrs(topology: NetworkTopology, budgets, scheme: str,
                   trials: int, seed: int, csi: CsiErrorModel | None = None,
                   thresholds=None):
    """Yield ``(block index, points, selected SNRs)``, once per block and
    distinct budget, where ``points`` indexes the budgets equal to it.

    Each block draws its channel gains once; every budget then builds
    its own SNR matrix from those gains and assigns from the same
    generator state, so the points share their random numbers.

    Given each point's outage threshold, max-min drops the trials that
    cannot be in outage, once they are at least ``_DROP_SHARE`` of the
    stack: a trial is served at a budget when some map gives every user
    an entry above the budget's largest threshold
    (:func:`selection.saturated`), and its max-min SNRs are then above
    every threshold of the budget.  When every budget is at each level at
    least the one before and its largest threshold is at most the one
    before's, the SNR matrix only grows along the budgets, bit for bit,
    so a served trial stays served: the block's draws then shrink to the
    trials left.  (Throughput along a relay-cap chain takes
    :func:`_settled_chain` instead.)
    """
    groups = _groups(budgets)
    order = list(groups)
    last = order[-1]
    tops = chain = None
    if thresholds is not None and scheme == "maxmin":
        tops = {budget: max(thresholds[point] for point in points)
                for budget, points in groups.items()}
        chain = all(later.source_snr >= earlier.source_snr
                    and later.relay_snr_cap >= earlier.relay_snr_cap
                    and later.interference_snr_cap >= earlier.interference_snr_cap
                    and tops[later] <= tops[earlier]
                    for earlier, later in zip(order, order[1:]))

    def build(gains, budget):
        draws = model.ChannelRealization(*gains)
        if csi is None:
            return model.snr_matrix(draws, topology, budget)
        return model.snr_matrix_imperfect(draws, csi, topology, budget)

    for index, block in _blocks(trials):
        rng = _block_rng(seed, index)
        if csi is None:
            draws = model.sample_realization(topology, rng, trials=block)
        else:
            draws = model.sample_estimated_realization(topology, csi, rng,
                                                       trials=block)
        gains = [draws.hop1, draws.hop2, draws.interf]
        del draws
        state = rng.bit_generator.state
        for budget in order:
            rng.bit_generator.state = state
            snrs = build(gains, budget)
            if budget is last:
                del gains  # not held while the block's last budget assigns
            if tops is not None:
                unserved = ~selection.saturated(snrs, tops[budget])
                if np.count_nonzero(unserved) <= (1 - _DROP_SHARE) * len(snrs):
                    snrs = snrs[unserved]  # the full matrix is freed here
                    if chain and budget is not last:
                        _keep(gains, unserved)
            _, eff = selection.assign_batch(scheme, snrs, rng)
            del snrs  # not held while the caller scores
            yield index, groups[budget], eff


def _relay_cap_chain(order: list[LinkBudget], scheme: str) -> bool:
    """Whether distinct budgets differ only in a rising relay cap, under
    a scheme that draws nothing."""
    return (scheme != "random" and len(order) > 1
            and all(later.source_snr == earlier.source_snr
                    and later.interference_snr_cap == earlier.interference_snr_cap
                    and later.relay_snr_cap >= earlier.relay_snr_cap
                    for earlier, later in zip(order, order[1:])))


def _settled_chain(topology: NetworkTopology, groups: dict, scheme: str,
                   trials: int, seed: int):
    """:func:`_selected_snrs` for throughput along a relay-cap chain
    (:func:`_relay_cap_chain`); once every trial of a block is settled,
    the last yield also carries the points of every later budget.

    Each block builds the parts of the SNR matrix that the relay cap
    leaves alone once (:func:`model._snr_parts`), then the cap-free
    matrix and each budget's matrix from them (:func:`model._capped_snr`).
    A trial whose matrix equals the cap-free one bit for bit is settled:
    the matrix only grows with the cap, so it and the trial's selected
    SNRs are fixed for the rest of the chain, whatever the scheme's
    tie-breaks.  Once the settled trials are at least ``_DROP_SHARE`` of
    the stack, they leave the parts and keep their rows of the block's
    selected SNRs, of which each budget refreshes the rows left.

    A scheme that draws nothing treats each trial on its own, so the
    stacks of consecutive budgets are assigned in one call while they
    hold at most ``_JOIN_ELEMENTS`` entries together; a larger stack is
    assigned alone, before the next is built.  The selected SNRs are
    yielded whole and change in place at the next yield, so the caller
    reads them before it resumes the generator.
    """
    order = list(groups)
    entries = topology.num_users * topology.num_relays
    for index, block in _blocks(trials):
        draws = model.sample_realization(topology, _block_rng(seed, index),
                                         trials=block)
        hop1_snr, limit = model._snr_parts(draws, topology, order[0])
        parts = [hop1_snr, limit, draws.hop2]
        del draws, hop1_snr, limit
        free = model._capped_snr(*parts, math.inf, topology)
        live = np.arange(block)
        eff = np.empty((block, topology.num_users))
        stacks, pending = [], []  # awaiting one joined assignment
        held = 0
        for position, budget in enumerate(order):
            snrs = model._capped_snr(*parts, budget.relay_snr_cap, topology)
            rows = live
            if position < len(order) - 1:
                settled = (snrs == free).all(axis=(1, 2))
                if np.count_nonzero(settled) >= _DROP_SHARE * len(settled):
                    unsettled = ~settled
                    live = live[unsettled]
                    free = free[unsettled]
                    _keep(parts, unsettled)
            stacks.append(snrs)
            held += snrs.size
            del snrs
            done = position == len(order) - 1 or not len(live)
            # once every trial is settled, these selected SNRs are those
            # of every later budget too
            pending.append((rows, [point for later in order[position:]
                                   for point in groups[later]]
                            if done else groups[budget]))
            if not done and held + len(live) * entries <= _JOIN_ELEMENTS:
                continue
            joined = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
            stacks.clear()
            held = 0
            _, selected = selection.assign_batch(scheme, joined)
            del joined  # not held while the caller scores
            start = 0
            for rows, points in pending:
                eff[rows] = selected[start:start + len(rows)]
                start += len(rows)
                yield index, points, eff
            pending.clear()
            del selected
            if done:
                break


def _keep(gains: list, keep: np.ndarray):
    """Shrink each array of the list to the trials ``keep`` marks, in
    place, one at a time: each old array is freed before the next is
    copied."""
    for i in range(len(gains)):
        gains[i] = gains[i][keep]


def estimate_outage(topology: NetworkTopology, budget, scheme: str,
                    gamma_th, trials: int, seed: int, z: float = 1.96,
                    csi: CsiErrorModel | None = None):
    """Per-user empirical outage probability with a Wilson interval.

    Each trial samples a channel realization, runs the selection scheme
    and records, per user, whether the selected SNR is at or below the
    threshold.  Pass ``csi`` to sample estimated channels and score the
    imperfect-CSI SNR matrix instead.

    One threshold gives one estimate per user.  A sequence of thresholds
    gives one such per-user list per threshold, all counted on the same
    trials; ``budget`` is then one budget for all of them or a sequence
    of budgets paired with them point by point.
    """
    _check_trials(trials)
    budgets, thresholds = _per_point(budget, gamma_th)
    if np.isnan(thresholds).any():
        raise ValueError("outage thresholds must not be NaN")
    hits = np.zeros((len(budgets), topology.num_users), dtype=np.int64)
    for _, points, eff in _selected_snrs(topology, budgets, scheme, trials,
                                         seed, csi, thresholds):
        if len(points) == 1:
            # column by column: a count along axis 0 of the (trials,
            # users) array takes about 5x as long at three users
            hits[points[0]] += [np.count_nonzero(column <= thresholds[points[0]])
                                for column in eff.T]
            continue
        # several thresholds: each counts up to its right insertion point
        for user, column in enumerate(np.sort(eff.T, axis=1)):
            hits[points, user] += np.searchsorted(column, thresholds[points],
                                                  side="right")
    out = [[McEstimate(int(h) / trials, *wilson_interval(int(h), trials, z),
                       trials, seed)
            for h in row]
           for row in hits]
    return out if np.ndim(gamma_th) else out[0]


def estimate_throughput(topology: NetworkTopology, budget, scheme: str,
                        trials: int, seed: int, z: float = 1.96, scales=1.0):
    """Per-user empirical average throughput (bits per channel use) with
    a normal-approximation interval.

    The rate of a trial is taken at ``scales`` times its selected SNR.
    Budgets and scales pair up as the budgets and thresholds of
    :func:`estimate_outage` do.

    A block's rates are summed per user for a run of points in one numpy
    call, on a (points, users, trials) array of at most
    ``_JOIN_ELEMENTS`` entries (or one point), each row in the order of
    a column summed on its own; consecutive points of one budget and
    scale share a row.
    """
    _check_trials(trials)
    num_users = topology.num_users
    budgets, factors = _per_point(budget, scales)
    groups = _groups(budgets)
    if _relay_cap_chain(list(groups), scheme):
        source = _settled_chain(topology, groups, scheme, trials, seed)
    else:
        source = _selected_snrs(topology, budgets, scheme, trials, seed)
    sums = np.zeros((len(budgets), num_users, -(-trials // BLOCK)))
    sq_sums = np.zeros_like(sums)
    tau, runs = None, []  # rows of rates to sum, and each row's points

    def score(index):
        rows = tau[:len(runs)]
        rows += 1.0
        np.log2(rows, out=rows)
        rows /= 2.0 * num_users
        total = rows.sum(axis=2)
        np.square(rows, out=rows)
        square = rows.sum(axis=2)
        for row, points in enumerate(runs):
            sums[points, :, index] = total[row]
            sq_sums[points, :, index] = square[row]
        runs.clear()

    current = None
    for index, points, eff in source:
        if index != current:
            if runs:
                score(current)
            current = index
            tau = np.empty((max(1, _JOIN_ELEMENTS // eff.size), num_users,
                            len(eff)))
        factor = None
        for point in points:
            # a NaN scale equals none, and takes a row of its own
            if runs and factors[point] == factor:
                runs[-1].append(point)
                continue
            if len(runs) == len(tau):
                score(index)
            factor = factors[point]
            np.multiply(eff.T, factor, out=tau[len(runs)])
            runs.append([point])
    score(current)
    out = []
    for point in range(len(budgets)):
        row = []
        for u in range(num_users):
            mean = math.fsum(sums[point, u]) / trials
            var = max(0.0, math.fsum(sq_sums[point, u]) / trials - mean * mean)
            half = z * math.sqrt(var / trials)
            row.append(McEstimate(mean, max(0.0, mean - half), mean + half,
                                  trials, seed))
        out.append(row)
    return out if np.ndim(scales) else out[0]
