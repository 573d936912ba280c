"""Seeded, reproducible Monte Carlo engine.

Trials are processed in blocks of half the package's memory budget
(``_SHARE``, ``model.ENTRIES // 2`` SNR entries), so a block holds
``max(1, ENTRIES // (2 M N))`` trials, fewer the more users and relays
each has: 10922 at 2x3, 5461 at 3x4.  Each block draws from its own
generator seeded by (master seed, block index), and the block rule
follows the shape alone, never the CPU count.  On two or more CPUs a
call with two or more blocks forks one worker process, which runs every
second block while the caller runs the others (:func:`_in_pairs`):
each process holds one block at a time, so the two hold what one block
of the whole budget would.  A block is thousands of numpy calls of a
few microseconds each, which two threads would serialise on the GIL.
The worker shares the caller's pages copy-on-write and owns only what
its blocks write.  Each process faults its working set in once: under
glibc, ``model`` raises malloc's mmap and trim thresholds at import,
which the worker inherits, so a block's freed arrays stay in a heap
that the next block, and the next call, reuses (``model``'s residency
comment).  Each block turns its trials into a result of its
own, outage's integer hits or throughput's sums of rates per point and
user, and the results are added in block order.  Results therefore
depend only on (seed, trials, configuration), bit for bit on one CPU or
several, and a call holds nothing per block beyond the blocks in
flight.  Each block-sized array (a gain, an SNR part, a stack) holds at
most ``_SHARE`` floats, or one trial's entries where those alone are
more.

The outage and throughput estimators score a whole sweep in one pass,
block by block (:func:`_selected_snrs`): each point has a link budget
(three power levels) and an outage threshold (or SNR scale).  Each
block draws its channel gains, and under ``random`` each trial's relay
map, once; then, budget by budget, it builds the SNR matrix, assigns,
and scores every point of that budget.  All points thus share one random stream, so their
estimates are correlated.  A budget with one outage threshold counts the selected SNRs
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

- Build.  Each hop's SNR is h / (σ² + dᵇ/λ), σ² = 0 without CSI, on
  the gains a block drew (under CSI, the estimates), each budget's
  matrix in one call (:func:`model._snr`) from the gains and hop 2's
  noise at an infinite relay cap (:func:`model._hop2_floor`), the
  interference gains checked once per block.  A relay-cap chain, with
  CSI or without, leaves that noise alone and builds it once per block,
  in the interference gains' buffer; every other run builds it per
  budget, and each matrix in it.  The last budget builds in that buffer
  too, and the block drops its gains and noise before that stack is
  decided and assigned.
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
import os
import pickle
import signal
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import model, selection
from .model import ENTRIES, CsiErrorModel, LinkBudget, NetworkTopology

__all__ = [
    "McEstimate",
    "wilson_interval",
    "two_proportion_z",
    "estimate_outage",
    "estimate_throughput",
]

# Decided trials (served for max-min outage, doomed for outage under
# every scheme, settled for throughput along a relay-cap chain) leave a
# stack, and served or settled ones along a chain the block's draws,
# once each kind is at least this share of the stack; fewer stay in it,
# where they count no outage, count it at every point, or are assigned
# the selected SNRs they already have.  Copying a 10922-trial 3x4 stack
# takes 0.07 ms, a thirtieth of the 2.3 ms of assigning it (one core of
# a shared 2-CPU host); with 65536-trial blocks, copies made for the
# 0.7% served at fig3's 5 dB point raised its peak RSS 2.5%.
_DROP_SHARE = 1 / 8

# Two blocks are in flight at once, one in the caller and one in its
# worker process (:func:`_in_pairs`), so each holds half of the
# package's memory budget: a block as many trials as fill this many SNR
# entries, and a throughput scoring tile this many floats.
_SHARE = ENTRIES // 2


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate with a confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    trials: int


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _block_trials(topology: NetworkTopology) -> int:
    """Trials per block: as many as fill ``_SHARE`` SNR entries, at least
    one."""
    return max(1, _SHARE // (topology.num_users * topology.num_relays))


def _blocks(trials: int, topology: NetworkTopology):
    """Each block's index and trial count; every block but the last
    holds :func:`_block_trials` trials."""
    size = _block_trials(topology)
    for index, start in enumerate(range(0, trials, size)):
        yield index, min(size, trials - start)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_pairs(run, blocks):
    """Yield ``run(block)`` for each block, in block order.

    On two or more CPUs the blocks run in pairs: a worker process forked
    for the call runs every second block, and the caller the others.
    The worker sends each block's result down a pipe as soon as it is
    done, and after each of its own blocks the caller yields its result,
    then reads and yields the worker's next one, so each process holds
    one block at a time and the results come in block order.  An
    exception raised in a worker's block is raised again in the caller,
    of the same type and with the same message.  On any exception, and
    when the generator is closed early, the caller kills the worker and
    reaps it, so no process outlives the call.  The blocks run one after
    another in the caller with fewer than two blocks, on one CPU, where
    ``os.fork`` is missing, or where a second thread is alive, which a
    forked child would not carry and whose locks it could find held.
    """
    blocks = list(blocks)
    if (len(blocks) < 2 or _cpu_count() < 2 or not hasattr(os, "fork")
            or len(sys._current_frames()) > 1):
        yield from map(run, blocks)
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the worker; it never returns to the caller's code
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                for block in blocks[1::2]:
                    try:
                        result, error = run(block), None
                    except BaseException as raised:  # raised again in the caller
                        result, error = None, raised
                    # pickled whole first, so the pipe never holds half a result
                    pipe.write(pickle.dumps((result, error)))
                    pipe.flush()
                    if error is not None:
                        break
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            for index, block in enumerate(blocks):
                if index % 2 == 0:
                    yield run(block)
                    continue
                try:
                    result, error = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError("the Monte Carlo worker process "
                                       "exited without a result") from None
                if error is not None:
                    raise error
                yield result
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


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
    """The points of each distinct budget (its levels), in order of first use."""
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


def _selected_snrs(topology: NetworkTopology, budgets, scheme: str, seed: int,
                   csi: CsiErrorModel | None = None, thresholds=None):
    """The pass over one block of a sweep of ``budgets``: a function of
    a block's index and trial count that yields ``(points, rows,
    selected SNRs)`` per distinct budget, in order of first use.
    ``points`` indexes the budgets equal to it, ``rows`` the trials of
    the block it assigned, in order, and the selected SNRs are theirs,
    row for row.  Once no trial of the block is left, the last yield
    also carries the points of every later budget.  The doomed trials
    that leave a budget's stack come before its assigned trials, in a
    yield of their own whose selected SNRs are None: each of their users
    is in outage at every one of its ``points``.

    Given each point's outage threshold, doomed trials leave, and so do
    max-min's served trials; without thresholds, a relay-cap chain's
    settled trials do (module docstring), under every scheme alike.  A
    trial of the block in neither kind of ``rows`` was decided earlier,
    and the caller decides what it contributes.
    """
    groups = _groups(budgets)
    order = list(groups)
    steps = list(zip(order, order[1:]))
    # a relay-cap chain: hop 2's cap-free noise is built once per block
    capped = all(
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
    # the topology drawn from: the estimates under CSI
    sampled = topology if csi is None else model._estimated(topology, csi)

    def block(index: int, trials: int):
        if not order:
            return
        rng = _block_rng(seed, index)
        draws = model.sample_realization(sampled, rng, trials=trials)
        maps = selection.relay_maps(scheme, rng, draws.hop1.shape)
        parts = [draws.hop1, draws.hop2, model._checked_interference(draws.interf)]
        del draws
        if capped:  # hop 2's cap-free noise, in the interference gains' buffer
            parts[2] = model._hop2_floor(parts[2], order[0], topology, out=parts[2])
        free = (model._snr(*parts, replace(order[0], relay_snr_cap=math.inf),
                           csi, topology) if chain and tops is None else None)
        live = np.arange(trials)
        for position, budget in enumerate(order):
            last = position == len(order) - 1
            floor2 = parts[2] if capped else model._hop2_floor(
                parts[2], budget, topology, out=parts[2] if last else None)
            # in hop 2's noise, a budget's own or the block's at its last
            snrs = model._snr(parts[0], parts[1], floor2, budget, csi, topology,
                              out=floor2 if last or not capped else None)
            del floor2  # else the full stack is held while it is cut
            if last:  # not held while the block's last stacks decide and assign
                parts.clear()
                free = None
            rows, gone = live, None  # gone: decided trials that leave live
            if bottoms is not None:
                doomed, gone = (_leaving(mask) for mask in selection.decided(
                    snrs, bottoms[budget], None if tops is None else tops[budget]))
                if doomed is not None:  # in outage at every point
                    yield groups[budget], rows[doomed], None
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
            yield points, rows, selected
            del selected, rows  # not held through the next build
            if done:
                break

    return block


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
    budget (module docstring).  Each block counts its own integer hits,
    and the counts are added in block order.
    """
    _check_trials(trials)
    budgets, thresholds = _per_point(budget, gamma_th)
    if np.isnan(thresholds).any():
        raise ValueError("outage thresholds must not be NaN")
    selected_snrs = _selected_snrs(topology, budgets, scheme, seed, csi,
                                   thresholds)
    shape = (len(budgets), topology.num_users)

    def count(block):
        hits = np.zeros(shape, dtype=np.int64)
        # a served trial, which is in no rows, is in outage nowhere
        for points, rows, eff in selected_snrs(*block):
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
        return hits

    hits = np.zeros(shape, dtype=np.int64)
    for block_hits in _in_pairs(count, _blocks(trials, topology)):
        hits += block_hits
    out = [[McEstimate(int(h) / trials, *wilson_interval(int(h), trials, z), trials)
            for h in row]
           for row in hits]
    return out if np.ndim(gamma_th) else out[0]


def _rate_sums(eff, scales, per_rate: float):
    """Each scale's per-user sums, over the trials of ``eff`` (users,
    trials), of the rates ``log1p(scale * SNR) / per_rate`` and of their
    squares, (2, scales, users).  The scales are scored together in
    (scales, users, trials) tiles of at most ``_SHARE`` floats."""
    step = max(1, _SHARE // eff.size)
    sums = np.empty((2, len(scales), len(eff)))
    for start in range(0, len(scales), step):
        rates = np.multiply.outer(scales[start:start + step], eff)
        np.log1p(rates, out=rates)
        rates /= per_rate
        rates.sum(axis=2, out=sums[0, start:start + step])
        np.square(rates, out=rates)
        rates.sum(axis=2, out=sums[1, start:start + step])
    return sums


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
    ``2 M ln 2``, so a rate whose ``1 + SNR`` rounds to 1 stays above 0.
    A stack scores each distinct scale among its points once
    (:func:`_rate_sums`); each block sums every point once, and the
    blocks' sums are added to running totals in block order.
    """
    _check_trials(trials)
    num_users = topology.num_users
    budgets, factors = _per_point(budget, scales)
    selected_snrs = _selected_snrs(topology, budgets, scheme, seed)
    per_rate = 2.0 * num_users * math.log(2.0)
    # each point's and user's sums of rates and of squared rates
    shape = (2, len(budgets), num_users)

    def score(block):
        sums = np.zeros(shape)
        # a settled trial, in no later rows, keeps its selected SNRs
        eff = np.empty((num_users, block[1]))
        for points, rows, selected in selected_snrs(*block):
            eff[:, rows] = selected.T
            del selected  # not held while the next stack builds
            # the points of one scale read the same rates (a one-point
            # stack skips np.unique, which costs about as much as a scoring)
            distinct, which = (np.unique(factors[points], return_inverse=True)
                               if len(points) > 1 else (factors[points], [0]))
            sums[:, points] = _rate_sums(eff, distinct, per_rate)[:, which]
        return sums

    totals = np.zeros(shape)
    for sums in _in_pairs(score, _blocks(trials, topology)):
        totals += sums
    out = []
    for point_sums, point_sq_sums in zip(*totals.tolist()):
        row = []
        for total, sq_total in zip(point_sums, point_sq_sums):
            mean = total / trials
            var = max(0.0, sq_total / trials - mean * mean)
            half = z * math.sqrt(var / trials)
            row.append(McEstimate(mean, max(0.0, mean - half), mean + half, trials))
        out.append(row)
    return out if np.ndim(scales) else out[0]


# ---------------------------------------------------------------------------
# names the benchmark tracer in perfbench/ looks up on this module; none of
# them is on a path of the package, and they stay until the tracer drops them
# ---------------------------------------------------------------------------

# The tracer counts ceil(trials / BLOCK) blocks per estimator call, right
# for no shape: a 100000-trial 3x4 call reads 1 block, and draws 19.
BLOCK = ENTRIES
