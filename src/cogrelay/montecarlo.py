"""Seeded, reproducible Monte Carlo engine.

Trials are processed in blocks of a fixed number of SNR entries
(``ENTRIES``), so a block holds fewer trials the more users and relays
each has, and each block draws from its own generator seeded by (master
seed, block index).  Results therefore depend only on (seed, trials,
configuration) -- never on how blocks might be scheduled across workers
-- and block outputs are integer counts or compensated partial sums, so
aggregation order cannot change the answer either.  Each block-sized
array (a gain, an SNR part, a stack) holds at most ``ENTRIES`` floats,
or one trial's entries where those alone are more.

The outage and throughput estimators score a whole sweep in one pass
(:func:`_selected_snrs`): each point has a link budget and an outage
threshold (or SNR scale).  Each block draws its channel gains, and under
``random`` each trial's relay map, once; then, budget by budget, it
builds the SNR matrix, assigns, and scores every point of that budget.
All points thus share one random stream, so their estimates are
correlated.  A budget with one outage threshold counts the selected SNRs
at or below it in one pass; a budget with several sorts them once per
block, so every threshold costs one binary search rather than a pass
over the trials.

A decided trial's outage is known at every point of a budget without
assigning it.  It is served when, under max-min, its SNR matrix holds
an injective map with every entry above the budget's largest outage
threshold: its bottleneck is then above every threshold of the budget,
so outage counts it nowhere.  It is doomed when, under any scheme, no
entry of its SNR matrix is above the budget's smallest threshold:
whatever map is picked, every user is then at or below every threshold
of the budget, so outage counts it everywhere.  Along a relay-cap chain,
where each budget has the source and interference levels of the one
before and a relay cap at least as large, a trial is settled once its
SNR matrix equals, bit for bit, the matrix at an infinite relay cap:
the matrix only grows with the cap, so it is then fixed for the rest of
the chain, and so are the trial's selected SNRs, whatever the scheme's
tie-breaks; throughput keeps them.  One pass serves both estimators,
with one rule for each decision, and assigns each stack in one call,
left with no trial in none:

- Build.  On a relay-cap chain without CSI, each block builds the parts
  of the SNR matrix that the cap leaves alone once
  (:func:`model._snr_parts`), in the buffers of the hop-1 and
  interference gains it drew, and each budget applies only its cap
  (:func:`model._capped_snr`).  Every other run builds each budget's
  matrix from the block's gains, which under CSI are the estimates,
  their interference gains checked once per block.  The last budget
  builds in a part's buffer (the interference limit, or under CSI the
  interference gains), which no later build reads, and the block drops
  its parts before that stack is decided and assigned.
- Leave.  Once the served, the doomed or the settled trials are an
  eighth or more of a stack, they leave it: served and doomed trials
  before it is assigned, settled trials after.  Along a chain the SNR
  matrix only grows, bit for bit, so a served or settled trial stays
  decided, and it also leaves the block's draws; once none is left,
  the block's later budgets assign nothing.  A doomed trial stays in
  the draws, since a later budget's larger matrix and lower threshold
  may lift it.  For max-min outage, a chain has each budget at every
  level at least the one before, with a largest threshold at most the
  one before's: every ``lambda2`` sweep and every ``lambda_all`` sweep
  with CSI.  Throughput settles trials only along a relay-cap chain:
  every ``lambda2`` sweep.
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

# SNR entries per block: a block holds as many trials as fill this many
# entries of its SNR matrix, and at least one (:func:`_block_trials`), so
# each block-sized float64 array (a gain, an SNR part, a stack) is at
# most 1 MiB below 2**17 entries per trial.  Fixed by design: the block
# size, and with it the random stream, follows from the shape alone.
ENTRIES = 1 << 17

# Decided trials (served for max-min outage, doomed for outage under
# every scheme, settled for throughput along a relay-cap chain) leave a
# stack, and served or settled ones along a chain the block's draws,
# once each kind is at least this share of the stack; fewer stay in it,
# where they count no outage, count it at every point, or are assigned
# the selected SNRs they already have.  Copying a whole 3x4 block's
# stack (10922 trials) takes 0.07 ms, a thirtieth of the 2.3 ms of
# assigning it (one core of a shared 2-CPU host); with 65536-trial
# blocks, copies made for the 0.7% served at fig3's 5 dB point raised
# its peak RSS 2.5%.
_DROP_SHARE = 1 / 8


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


def _block_trials(topology: NetworkTopology) -> int:
    """Trials per block: as many as fill ``ENTRIES`` SNR entries, at
    least one."""
    return max(1, ENTRIES // (topology.num_users * topology.num_relays))


def _blocks(trials: int, topology: NetworkTopology):
    """Each block's index and trial count; every block but the last
    holds :func:`_block_trials` trials."""
    size = _block_trials(topology)
    for index, start in enumerate(range(0, trials, size)):
        yield index, min(size, trials - start)


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


def _leaving(mask):
    """``mask`` (or None) when its trials are at least ``_DROP_SHARE``
    of the stack, else None."""
    if mask is not None and np.count_nonzero(mask) >= _DROP_SHARE * len(mask):
        return mask
    return None


def _selected_snrs(topology: NetworkTopology, budgets, scheme: str,
                   trials: int, seed: int, csi: CsiErrorModel | None = None,
                   thresholds=None):
    """Yield ``(block index, points, rows, selected SNRs)`` per block and
    distinct budget: ``points`` indexes the budgets equal to it, ``rows``
    the trials of the block it assigned, in order, and the selected SNRs
    are theirs, row for row.  Once no trial of a block is left, the last
    yield also carries the points of every later budget.  The doomed
    trials that leave a budget's stack come before its assigned trials,
    in a yield of their own whose selected SNRs are None: each of their
    users is in outage at every one of its ``points``.

    Stacks are built and left by the rules of the module docstring,
    under every scheme alike.  Given each point's outage threshold,
    doomed trials leave, and so do max-min's served trials; without
    thresholds, a relay-cap chain's settled trials do.  A trial of the
    block in neither kind of ``rows`` was decided earlier, and the
    caller decides what it contributes.
    """
    groups = _groups(budgets)
    order = list(groups)
    if not order:
        return
    steps = list(zip(order, order[1:]))
    capped = csi is None and all(
        later.source_snr == earlier.source_snr
        and later.interference_snr_cap == earlier.interference_snr_cap
        and later.relay_snr_cap >= earlier.relay_snr_cap
        for earlier, later in steps)
    # along a chain a decided trial stays decided: settled trials along a
    # relay-cap chain; served trials (above each budget's largest
    # threshold, ``tops``) under rising levels and falling thresholds.
    # Doomed trials (nothing above the smallest, ``bottoms``) stay.
    tops = bottoms = None
    chain = thresholds is None and capped and len(order) > 1
    if thresholds is not None:
        bottoms = {budget: min(thresholds[point] for point in points)
                   for budget, points in groups.items()}
    if thresholds is not None and scheme == "maxmin":
        tops = {budget: max(thresholds[point] for point in points)
                for budget, points in groups.items()}
        chain = all(later.source_snr >= earlier.source_snr
                    and later.relay_snr_cap >= earlier.relay_snr_cap
                    and later.interference_snr_cap >= earlier.interference_snr_cap
                    and tops[later] <= tops[earlier]
                    for earlier, later in steps)
    sampled = topology if csi is None else model._estimated(topology, csi)
    for index, block in _blocks(trials, topology):
        rng = _block_rng(seed, index)
        draws = model.sample_realization(sampled, rng, trials=block)
        maps = selection.relay_maps(scheme, rng, draws.hop1.shape)
        if capped:  # the parts overwrite the gains they are built from
            parts = [*model._snr_parts(draws, topology, order[0],
                                       out=(draws.hop1, draws.interf)),
                     draws.hop2]
        else:
            parts = [draws.hop1, draws.hop2, draws.interf]
            if csi is not None:  # once per block, not at every build
                parts[2] = model._checked_interference(parts[2])
        del draws
        free = (model._capped_snr(*parts, math.inf, topology)
                if chain and tops is None else None)
        live = np.arange(block)
        for position, budget in enumerate(order):
            last = position == len(order) - 1
            # the last budget builds in a part that no later build reads
            if capped:
                snrs = model._capped_snr(*parts, budget.relay_snr_cap, topology,
                                         out=parts[1] if last else None)
            elif csi is None:
                snrs = model.snr_matrix(model.ChannelRealization(*parts),
                                        topology, budget)
            else:
                snrs = model._imperfect_snr(*parts, csi, topology, budget,
                                            out=parts[2] if last else None)
            if last:  # not held while the block's last stacks decide and assign
                parts.clear()
                free = None
            rows, gone = live, None  # gone: decided trials that leave live
            if bottoms is not None:
                doomed, gone = (_leaving(mask) for mask in selection.decided(
                    snrs, bottoms[budget], None if tops is None else tops[budget]))
                if doomed is not None:  # in outage at every point
                    yield index, groups[budget], rows[doomed], None
                skipped = [mask for mask in (doomed, gone) if mask is not None]
                if skipped:  # assigned nowhere
                    kept = ~np.logical_or.reduce(skipped)
                    # frees the full stack; ``compress`` copies the kept
                    # matrices in about half the time of a boolean index
                    snrs, rows = snrs.compress(kept, axis=0), rows[kept]
            elif free is not None and not last:
                # entry-major, so the test runs over whole rows of trials:
                # an all() over each trial's 8 entries costs 2.7x as much
                # on a 1000-trial 2x4 stack
                gone = _leaving(np.logical_and.reduce(np.ascontiguousarray(
                    (snrs == free).reshape(len(snrs), -1).T)))
            if gone is not None and chain and not last:
                kept = ~gone
                live = live[kept]
                if free is not None:
                    free = free.compress(kept, axis=0)
                # one by one: each old part is freed before the next copy
                for i in range(len(parts)):
                    parts[i] = parts[i].compress(kept, axis=0)
            doomed = gone = skipped = kept = None  # not held through a build
            done = last or not len(live)
            if done:  # with no trial left, as at the last budget
                parts.clear()
                free = None
            # every trial of the stack served or doomed: nothing to assign
            selected = (selection.assign_batch(
                scheme, snrs, None if maps is None else maps[rows])[1]
                if len(snrs) else np.empty((0, topology.num_users)))
            del snrs  # not held while the caller scores
            # once no trial is left, these selected SNRs score every later
            # budget too
            points = ([point for later in order[position:]
                       for point in groups[later]] if done else groups[budget])
            yield index, points, rows, selected
            del selected, rows  # not held through the next build
            if done:
                break


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
    of budgets paired with them point by point, and empty sequences give
    an empty list.

    Max-min counts a trial nowhere at a budget where it is served: some
    injective map gives every user an SNR above the budget's largest
    threshold.  Every scheme counts a trial for every user at every
    point of a budget where it is doomed: no entry of its SNR matrix is
    above the budget's smallest threshold.  Neither kind is assigned once
    it is an eighth or more of the stack; along a budget chain served
    trials leave the block's draws, and doomed ones stay for the next
    budget (module docstring).
    """
    _check_trials(trials)
    budgets, thresholds = _per_point(budget, gamma_th)
    if np.isnan(thresholds).any():
        raise ValueError("outage thresholds must not be NaN")
    hits = np.zeros((len(budgets), topology.num_users), dtype=np.int64)
    # a served trial, which is in no rows, is in outage nowhere
    for _, points, rows, eff in _selected_snrs(topology, budgets, scheme,
                                               trials, seed, csi, thresholds):
        if eff is None:  # doomed: every user is in outage at every point
            hits[points] += len(rows)
        elif len(points) == 1:
            # column by column: a count along axis 0 of the (trials,
            # users) array takes about 5x as long at three users
            hits[points[0]] += [np.count_nonzero(column <= thresholds[points[0]])
                                for column in eff.T]
        else:
            # several thresholds: each counts up to its right insertion point
            for user, column in enumerate(np.sort(eff.T, axis=1)):
                hits[points, user] += np.searchsorted(column, thresholds[points],
                                                      side="right")
        del rows, eff  # not held while the next stack builds
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
    :func:`estimate_outage` do.  Along a relay-cap chain, under every
    scheme, a settled trial is assigned no more and keeps, in a
    block-sized array, the selected SNRs it last had (module docstring).
    Each point's rates are ``log1p`` of the scaled SNRs over
    ``2 M ln 2``, so a rate whose ``1 + SNR`` rounds to 1 stays above 0;
    they are summed per user in one numpy call, once per distinct scale
    among the points a stack scores.
    """
    _check_trials(trials)
    num_users = topology.num_users
    budgets, factors = _per_point(budget, scales)
    size = _block_trials(topology)
    sums = np.zeros((len(budgets), num_users, -(-trials // size)))
    sq_sums = np.zeros_like(sums)
    per_rate = 2.0 * num_users * math.log(2.0)
    current = None
    for index, points, rows, selected in _selected_snrs(
            topology, budgets, scheme, trials, seed):
        if index != current:
            current = index
            # a settled trial, in no later rows, keeps its selected SNRs
            eff = np.empty((num_users, min(size, trials - index * size)))
            rates = np.empty_like(eff)
        eff[:, rows] = selected.T
        del selected  # not held while the next stack builds
        # the points of one scale read the same rates: each scale is
        # scored once, and its sums go to all of its points (a one-point
        # stack skips np.unique, which costs about as much as a scoring)
        distinct, which = (np.unique(factors[points], return_inverse=True)
                           if len(points) > 1 else (factors[points], 0))
        scored = np.empty((2, len(distinct), num_users))
        for scale, total, sq_total in zip(distinct, *scored):
            np.multiply(eff, scale, out=rates)
            np.log1p(rates, out=rates)
            rates /= per_rate
            rates.sum(axis=1, out=total)
            np.square(rates, out=rates)
            rates.sum(axis=1, out=sq_total)
        sums[points, :, index], sq_sums[points, :, index] = scored[:, which]
    out = []
    # as lists, so that fsum reads Python floats rather than array items
    for point_sums, point_sq_sums in zip(sums.tolist(), sq_sums.tolist()):
        row = []
        for user_sums, user_sq_sums in zip(point_sums, point_sq_sums):
            mean = math.fsum(user_sums) / trials
            var = max(0.0, math.fsum(user_sq_sums) / trials - mean * mean)
            half = z * math.sqrt(var / trials)
            row.append(McEstimate(mean, max(0.0, mean - half), mean + half,
                                  trials, seed))
        out.append(row)
    return out if np.ndim(scales) else out[0]


# ---------------------------------------------------------------------------
# names the benchmark tracer in perfbench/ looks up on this module; none of
# them is on a path of the package, and they stay until the tracer drops them
# ---------------------------------------------------------------------------

# The tracer counts ceil(trials / BLOCK) blocks per estimator call.  Blocks
# are sized in SNR entries, not trials, so that count is right for a 1x1
# shape only: a 100000-trial 3x4 call reads 1 block, and draws 10.
BLOCK = ENTRIES
