"""Monte Carlo engine checks: determinism, interval calibration against
known truth, and agreement with the closed forms."""

import math
import os
import platform
import select
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogrelay import model, montecarlo, selection
from cogrelay.analytic import _link_cdf, average_throughput, outage_probability
from cogrelay.model import CsiErrorModel, LinkBudget, NetworkTopology, db_to_linear
from cogrelay.montecarlo import (
    ENTRIES,
    _SHARE,
    _block_rng,
    _block_trials,
    _blocks,
    _in_pairs,
    _selected_snrs,
    estimate_outage,
    estimate_throughput,
    two_proportion_z,
    wilson_interval,
)
from cogrelay.selection import maxmin_assign_batch, rank_placement_probs
from oracles import (
    budget_db,
    estimate_cdf,
    estimate_outage_unfiltered,
    estimate_throughput_unsettled,
)

GAMMA_TH = db_to_linear(5.0)

# every model function that builds an SNR matrix: the public builders and
# the one builder under them, which the Monte Carlo pass calls
BUILDERS = ("snr_matrix", "snr_matrix_imperfect", "_snr")


def topo(num_users=2, num_relays=3, m=2):
    return NetworkTopology(num_users, num_relays, m, path_loss_exp=0.0)


def selected_snrs(t, budgets, scheme, trials, seed, csi=None, thresholds=None):
    """The pass's yields over every block of a run, in block order, each
    led by its block's index."""
    block = _selected_snrs(t, budgets, scheme, seed, csi, thresholds)
    for index, size in _blocks(trials, t):
        for points, rows, selected in block(index, size):
            yield index, points, rows, selected


def cpus(monkeypatch, count):
    """Have the pass see ``count`` CPUs."""
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: count)


def process_peak(monkeypatch, run):
    """The larger traced peak of ``run()`` in this process on one CPU,
    with its blocks one after another, and on two, where the blocks of
    the worker process are not traced here: what one process holds."""
    peaks = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks)


# the trials of one 3x4 block, and of a 3x4 run over a full block and
# 4464 trials of a second
BLOCK_3X4 = _block_trials(topo(3, 4, 1))
TWO_BLOCKS = BLOCK_3X4 + 4464


class TestBlockRule:
    """A block holds as many trials as fill half of ``ENTRIES`` SNR
    entries, and at least one (on any CPU count: TestThreads); the blocks
    of a run cover its trials in order."""

    @pytest.mark.parametrize("shape, trials", [
        ((2, 3), 10922), ((3, 4), 5461), ((2, 4), 8192), ((1, 1), 65536),
        ((1, ENTRIES // 2 + 1), 1), ((1, ENTRIES + 1), 1),
    ], ids=["2x3", "3x4", "2x4", "1x1", "wider_than_share", "wider_than_entries"])
    def test_trials_per_block(self, shape, trials):
        assert _SHARE == ENTRIES // 2
        assert _block_trials(topo(*shape)) == trials

    def test_blocks_cover_the_trials(self):
        assert list(_blocks(25_000, topo(3, 4))) == [
            (0, 5461), (1, 5461), (2, 5461), (3, 5461), (4, 3156)]


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for successes, trials in [(0, 100), (3, 100), (50, 100), (100, 100)]:
            lo, hi = wilson_interval(successes, trials, z=3.0)
            assert lo <= successes / trials <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_shrinks_with_trials(self):
        w1 = np.diff(wilson_interval(20, 100))[0]
        w2 = np.diff(wilson_interval(2000, 10_000))[0]
        assert w2 == pytest.approx(w1 / 10, rel=0.15)


class TestDeterminism:
    def test_outage_bit_identical(self):
        t, b = topo(), budget_db(10, 10, 10)
        a = estimate_outage(t, b, "maxmin", GAMMA_TH, trials=70_000, seed=3)
        c = estimate_outage(t, b, "maxmin", GAMMA_TH, trials=70_000, seed=3)
        assert a == c

    def test_seed_changes_result(self):
        t, b = topo(), budget_db(10, 10, 10)
        a = estimate_outage(t, b, "maxmin", GAMMA_TH, trials=20_000, seed=3)
        c = estimate_outage(t, b, "maxmin", GAMMA_TH, trials=20_000, seed=4)
        assert a != c

    def test_random_scheme_deterministic(self):
        t, b = topo(), budget_db(10, 10, 10)
        a = estimate_outage(t, b, "random", GAMMA_TH, trials=20_000, seed=5)
        c = estimate_outage(t, b, "random", GAMMA_TH, trials=20_000, seed=5)
        assert a == c

    def test_throughput_bit_identical(self):
        t, b = topo(m=1), budget_db(15, 10, 5)
        a = estimate_throughput(t, b, "maxmin", trials=30_000, seed=6)
        c = estimate_throughput(t, b, "maxmin", trials=30_000, seed=6)
        assert a == c


class TestSharedTrials:
    """A sequence of thresholds or scales is scored on one set of trials:
    each entry equals the single-value call on the same seed."""

    def test_threshold_sequence_matches_single_calls(self):
        # 70000 trials span seven blocks
        t, b = topo(), budget_db(10, 10, 10)
        thresholds = [0.5 * GAMMA_TH, GAMMA_TH, 4.0 * GAMMA_TH]
        many = estimate_outage(t, b, "maxmin", thresholds, trials=70_000, seed=3)
        assert many == [estimate_outage(t, b, "maxmin", x, trials=70_000, seed=3)
                        for x in thresholds]

    def test_one_point_count_matches_sorted_group_with_ties(self):
        # a one-point budget counts its hits; a budget with several
        # points sorts and searches.  Thresholds taken from the selected
        # SNRs tie with a trial, and a tie counts as an outage.
        t, b = topo(), budget_db(10, 10, 10)
        blocks = [eff for _, _, _, eff in selected_snrs(t, [b], "maxmin",
                                                        70_000, 3)]
        first = np.sort(blocks[0], axis=0)
        for x, tied in ((float(first[0, 0]), True),
                        (float(first[len(first) // 2, 1]), True),
                        (GAMMA_TH, False)):
            counted = estimate_outage(t, b, "maxmin", x, trials=70_000, seed=3)
            sorted_ = estimate_outage(t, [b, b], "maxmin", [2.0 * x, x],
                                      trials=70_000, seed=3)[1]
            assert counted == sorted_
            at_or_below = sum((eff <= x).sum(axis=0) for eff in blocks)
            assert [round(e.mean * 70_000) for e in counted] == list(at_or_below)
            if tied:  # counting below x would miss the tied trial
                assert sum((eff < x).sum() for eff in blocks) < at_or_below.sum()

    def test_scale_sequence_matches_single_call(self):
        t, b = topo(m=1), budget_db(15, 10, 5)
        many = estimate_throughput(t, b, "maxmin", trials=70_000, seed=6,
                                   scales=[1.0, 10.0])
        assert many[0] == estimate_throughput(t, b, "maxmin", trials=70_000, seed=6)
        assert many[1][0].mean > many[0][0].mean

    def test_repeated_scales_match_single_calls(self):
        # the points of one stack that share a scale are scored once
        t, b = topo(m=1), budget_db(15, 10, 5)
        scales = [10.0, 1.0, 10.0, 0.5, 1.0]
        many = estimate_throughput(t, b, "maxmin", trials=70_000, seed=6,
                                   scales=scales)
        assert many == [estimate_throughput(t, b, "maxmin", trials=70_000,
                                            seed=6, scales=x) for x in scales]

    def test_budget_sequence_matches_single_calls(self):
        # each budget builds its SNR matrix from the same draws
        t = topo()
        budgets = [budget_db(10, 10, 10), budget_db(10, 20, 5)]
        many = estimate_outage(t, budgets, "maxmin", [GAMMA_TH, GAMMA_TH],
                               trials=70_000, seed=3)
        assert many == [estimate_outage(t, b, "maxmin", GAMMA_TH,
                                        trials=70_000, seed=3)
                        for b in budgets]

    def test_empty_sequences_give_no_points(self):
        # as analytic.average_throughput does for an empty budget list
        assert estimate_outage(topo(), [], "maxmin", [], 1000, 1) == []
        assert estimate_throughput(topo(), [], "maxmin", 1000, 1, scales=[]) == []

    def test_budgets_pair_with_thresholds(self):
        with pytest.raises(ValueError, match="pair"):
            estimate_outage(topo(), [budget_db(10, 10, 10)] * 2, "maxmin",
                            [GAMMA_TH] * 3, trials=1000, seed=3)


class TestOutageEstimates:
    def test_zero_threshold_gives_zero(self):
        t, b = topo(), budget_db(10, 10, 10)
        ests = estimate_outage(t, b, "maxmin", 0.0, trials=5_000, seed=1)
        assert all(e.mean == 0.0 for e in ests)

    def test_ci_calibration_on_known_truth(self):
        # 95% Wilson interval must cover the exact single-link value in
        # 93..97% of 200 independent repetitions
        t, b = topo(1, 1, 1), budget_db(10, 10, 10)
        truth = _link_cdf(GAMMA_TH, t, b)[0]
        covered = sum(
            (lambda e: e.ci_low <= truth <= e.ci_high)(
                estimate_outage(t, b, "maxmin", GAMMA_TH, trials=4000,
                                seed=1000 + rep)[0])
            for rep in range(200))
        assert 186 <= covered <= 194, covered

    def test_brackets_multi_user_closed_form(self):
        t, b = topo(), budget_db(10, 10, 10)
        pk = rank_placement_probs(2, 3, "maxmin")
        exact = outage_probability(GAMMA_TH, t, b, pk)
        for est in estimate_outage(t, b, "maxmin", GAMMA_TH, trials=200_000,
                                   seed=7, z=3.0):
            assert est.ci_low <= exact <= est.ci_high

    def test_brackets_closed_form_in_cap_limited_regime(self):
        # three-user square network, shape 3, relay cap below the rest
        t = topo(3, 3, 3)
        b = budget_db(25, 20, 10)
        pk = rank_placement_probs(3, 3, "maxmin")
        exact = outage_probability(GAMMA_TH, t, b, pk)
        for est in estimate_outage(t, b, "maxmin", GAMMA_TH, trials=300_000,
                                   seed=13, z=3.0):
            assert est.ci_low <= exact <= est.ci_high

    def test_user_fairness_z_statistic(self):
        t, b = topo(), budget_db(10, 10, 10)
        ests = estimate_outage(t, b, "maxmin", GAMMA_TH, trials=500_000, seed=8)
        hits = [round(e.mean * e.trials) for e in ests]
        assert abs(two_proportion_z(hits[0], hits[1], 500_000)) < 3

    def test_infinite_source_level(self):
        # hop 1's noise is 0 at an infinite source level: its SNR is +inf,
        # not a divide-by-zero warning, and hop 2 alone decides
        t, b = topo(), LinkBudget(math.inf, 10.0, 10.0)
        pk = rank_placement_probs(2, 3, "maxmin")
        exact = outage_probability(GAMMA_TH, t, b, pk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = estimate_outage(t, b, "maxmin", GAMMA_TH, trials=50_000,
                                   seed=9, z=3.0)
        for est in ests:
            assert est.ci_low <= exact <= est.ci_high

    @pytest.mark.parametrize("gamma_th", [np.nan, [GAMMA_TH, np.nan]],
                             ids=["one", "sequence"])
    def test_rejects_nan_threshold(self, gamma_th):
        # no trial is at or below NaN, but a sorted search would count all
        with pytest.raises(ValueError, match="NaN"):
            estimate_outage(topo(), budget_db(10, 10, 10), "maxmin", gamma_th,
                            trials=1000, seed=1)

    def test_trial_floor(self):
        with pytest.raises(ValueError, match="trials"):
            estimate_outage(topo(), budget_db(10, 10, 10), "maxmin",
                            GAMMA_TH, trials=0, seed=1)


def block_draws(t, trials, seed, csi=None):
    """Yield, per block of a run, its index and the draws the engine
    makes for it."""
    for index, block in _blocks(trials, t):
        rng = _block_rng(seed, index)
        if csi is None:
            yield index, model.sample_realization(t, rng, trials=block)
        else:
            yield index, model.sample_estimated_realization(t, csi, rng,
                                                            trials=block)


def build(t, draws, budget, csi=None):
    """The SNR matrix of every trial of ``draws`` at ``budget``."""
    if csi is None:
        return model.snr_matrix(draws, t, budget)
    return model.snr_matrix_imperfect(draws, csi, t, budget)


def block_bottlenecks(t, budget, trials, seed, csi=None):
    """Per block of a run, the max-min bottleneck of each of its trials
    at ``budget``."""
    return [maxmin_assign_batch(build(t, draws, budget, csi))[1].min(axis=1)
            for _, draws in block_draws(t, trials, seed, csi)]


def tied_thresholds(t, budgets, trials, seed, csi=None):
    """One threshold per budget, each equal to the bottleneck of a trial
    of block 0 at its budget and none above the one before: the median
    bottleneck at the first budget, then at each next budget the largest
    bottleneck not above the threshold before."""
    thresholds = []
    for budget in budgets:
        values = np.sort(block_bottlenecks(t, budget, trials, seed, csi)[0])
        if thresholds:
            values = values[values <= thresholds[-1]]
            thresholds.append(float(values[-1]))
        else:
            thresholds.append(float(values[len(values) // 2]))
    return thresholds


def expected_stacks(t, budgets, thresholds, chain, trials, seed, csi=None,
                    scheme="maxmin"):
    """Yield, per block and distinct budget in the engine's order, the
    block index, the trials the budget's SNR matrix is built on and the
    stack assigned.  ``budgets`` and ``thresholds`` pair point by point.
    A trial is doomed at a budget when no entry of its SNR matrix is
    above the budget's smallest threshold, and, under max-min, served
    when its bottleneck is above the largest.  Each kind leaves the stack
    once it is an eighth or more of it; along a chain served trials also
    leave the trials the next budget builds on, and doomed trials do
    not.  Once none is left, the block's later budgets build nothing."""
    groups = {}
    for budget, threshold in zip(budgets, thresholds):
        groups.setdefault(budget, []).append(threshold)
    for index, draws in block_draws(t, trials, seed, csi):
        alive = np.ones(len(draws.hop1), dtype=bool)
        for budget, points in groups.items():
            if not alive.any():
                break
            snrs = build(t, draws, budget, csi)
            stack = int(np.count_nonzero(alive))
            doomed = alive & (snrs.max(axis=(1, 2)) <= min(points))
            served = alive & (scheme == "maxmin") & (
                maxmin_assign_batch(snrs)[1].min(axis=1) > max(points))
            kept = alive.copy()
            for mask in (doomed, served):
                if 8 * np.count_nonzero(mask) >= stack:
                    kept &= ~mask
            yield index, stack, snrs[kept]
            if chain and 8 * np.count_nonzero(served) >= stack:
                alive &= ~served


def expected_stacks_every(t, budgets, trials, seed, csi=None):
    """Yield, per block and budget, the block index, its trial count and
    the SNR matrix of every trial."""
    for index, draws in block_draws(t, trials, seed, csi):
        for budget in budgets:
            yield index, len(draws.hop1), build(t, draws, budget, csi)


def spy_assignments(monkeypatch, expected):
    """Check each assignment call against the next stack of ``expected``
    (block index, trials built on, stack) as it is made: every call
    holds exactly one stack, bit for bit.  Returns the rows of each
    call.  The pass runs on one thread, so that its calls come in block
    order (on two, a pair's blocks interleave theirs; TestThreads shows
    that the estimates are the same)."""
    cpus(monkeypatch, 1)
    calls = []

    def assign_spy(scheme, gammas, maps=None, original=selection.assign_batch):
        _, _, stack = next(expected)
        assert gammas.shape == stack.shape
        assert np.array_equal(gammas.view(np.int64), stack.view(np.int64))
        calls.append(len(gammas))
        # random's maps come with the stack, one per trial
        assert (maps is None) == (scheme != "random")
        assert maps is None or maps.shape == gammas.shape[:2]
        return original(scheme, gammas, maps)
    monkeypatch.setattr(selection, "assign_batch", assign_spy)
    return calls


class TestSaturationFilter:
    """Max-min skips the trials whose bottleneck clears every threshold
    of a budget, and along a budget chain drops them from the draws: the
    estimates equal those of the oracle that assigns every trial at
    every point, each SNR matrix covers the trials that
    :func:`expected_stacks` leaves, and the assignment calls, in order,
    hold its stacks one per call (:func:`spy_assignments`)."""

    T = topo(3, 4, 1)
    CSI = CsiErrorModel(0.05, 0.05, 0.05)
    # common SNR rising, and the relay cap rising at fixed other levels
    LAMBDA_ALL = [budget_db(x, x, x) for x in (0, 2, 4, 6)]
    LAMBDA2 = [budget_db(25, x, 10) for x in (0, 2, 4, 6)]

    @staticmethod
    def spy(monkeypatch, expected):
        """Record the trial count of every SNR matrix built (a build
        through ``snr_matrix``, which builds through ``_snr``, counts
        once), and
        check every assignment call against ``expected``."""
        built, inside = [], []
        for name in BUILDERS:
            def build_spy(first, *args, original=getattr(model, name), **kwargs):
                if not inside:
                    built.append(len(getattr(first, "hop1", first)))
                inside.append(name)
                try:
                    return original(first, *args, **kwargs)
                finally:
                    inside.pop()
            monkeypatch.setattr(model, name, build_spy)
        spy_assignments(monkeypatch, expected)
        return built

    @pytest.mark.parametrize("trials", [1000, TWO_BLOCKS], ids=["1block", "2blocks"])
    @pytest.mark.parametrize("csi", [False, True], ids=["perfect", "csi"])
    @pytest.mark.parametrize("sweep", ["lambda_all", "lambda2"])
    @pytest.mark.parametrize("order", ["chain", "levels_fall", "thresholds_rise"])
    def test_matches_unfiltered_oracle(self, monkeypatch, order, sweep, csi, trials):
        csi = self.CSI if csi else None
        budgets = self.LAMBDA_ALL if sweep == "lambda_all" else self.LAMBDA2
        # rising levels and falling thresholds, each tied to a trial
        thresholds = tied_thresholds(self.T, budgets, trials, 3, csi)
        # either half of the chain condition broken: no chain
        if order == "levels_fall":
            budgets = budgets[::-1]
        elif order == "thresholds_rise":
            thresholds = thresholds[::-1]
        # the first budget also scores two lower thresholds, so it sorts
        budgets = budgets + [budgets[0]] * 2
        thresholds = thresholds + [thresholds[0] / 2, thresholds[0] / 4]
        expected = list(expected_stacks(self.T, budgets, thresholds,
                                        order == "chain", trials, 3, csi))
        want = estimate_outage_unfiltered(self.T, budgets, "maxmin", thresholds,
                                          trials, 3, csi=csi)
        stacks = iter(expected)
        built = self.spy(monkeypatch, stacks)
        got = estimate_outage(self.T, budgets, "maxmin", thresholds, trials, 3,
                              csi=csi)
        assert got == want
        assert next(stacks, None) is None  # every stack was assigned
        assert built == [trials for _, trials, _ in expected]
        # the first budget of each block drops trials; along a chain the
        # next one builds on fewer
        assert all(len(stack) < trials for _, trials, stack in expected[::4])
        assert (expected[1][1] < expected[0][1]) == (order == "chain")

    @pytest.mark.parametrize("scheme", ["naive", "random"])
    @pytest.mark.parametrize("csi", [False, True], ids=["perfect", "csi"])
    def test_other_schemes_assign_every_trial(self, monkeypatch, scheme, csi):
        # no trial is served under naive or random, and at thresholds
        # tied to max-min bottlenecks fewer than an eighth of any stack
        # is doomed (TestDoomedTrials), so every trial is assigned at
        # every budget
        csi = self.CSI if csi else None
        thresholds = tied_thresholds(self.T, self.LAMBDA_ALL, TWO_BLOCKS, 3, csi)
        want = estimate_outage_unfiltered(self.T, self.LAMBDA_ALL, scheme,
                                          thresholds, TWO_BLOCKS, 3, csi=csi)
        expected = list(expected_stacks(self.T, self.LAMBDA_ALL, thresholds,
                                        False, TWO_BLOCKS, 3, csi, scheme))
        assert ([len(stack) for _, _, stack in expected]
                == [BLOCK_3X4] * 4 + [4464] * 4)
        stacks = iter(expected)
        built = self.spy(monkeypatch, stacks)
        got = estimate_outage(self.T, self.LAMBDA_ALL, scheme, thresholds,
                              TWO_BLOCKS, 3, csi=csi)
        assert got == want
        assert next(stacks, None) is None
        assert built == [BLOCK_3X4] * 4 + [4464] * 4

    @pytest.mark.parametrize("order", ["chain", "levels_fall"])
    def test_rows_name_the_trials_assigned(self, order):
        # outage reads only the count of a doomed yield's rows, so they
        # are checked here: each yield's rows pick its stack out of the
        # block's full matrix, and its selected SNRs are that stack's
        # assignment
        thresholds = tied_thresholds(self.T, self.LAMBDA2, TWO_BLOCKS, 3)
        budgets = self.LAMBDA2 if order == "chain" else self.LAMBDA2[::-1]
        expected = expected_stacks(self.T, budgets, thresholds,
                                   order == "chain", TWO_BLOCKS, 3)
        draws = dict(block_draws(self.T, TWO_BLOCKS, 3))
        for index, points, rows, selected in selected_snrs(
                self.T, budgets, "maxmin", TWO_BLOCKS, 3, thresholds=thresholds):
            assert selected is not None  # no stack is an eighth doomed
            _, _, stack = next(expected)
            full = model.snr_matrix(draws[index], self.T, budgets[points[0]])
            assert np.array_equal(full[rows], stack)
            assert np.array_equal(selected, maxmin_assign_batch(stack)[1])
        assert next(expected, None) is None

    @pytest.mark.parametrize("csi", [False, True], ids=["relay_cap", "csi"])
    def test_gains_checked_once_per_block(self, monkeypatch, csi):
        # a block's interference gains are checked where it draws them,
        # not again at each of its builds; on one CPU, block by block
        cpus(monkeypatch, 1)
        checked, original = [], model._checked_interference

        def check_spy(f_gain):
            checked.append(len(f_gain))
            return original(f_gain)

        monkeypatch.setattr(model, "_checked_interference", check_spy)
        budgets = self.LAMBDA_ALL if csi else self.LAMBDA2
        estimate_outage(self.T, budgets, "maxmin", [GAMMA_TH] * 4,
                        trials=TWO_BLOCKS, seed=3,
                        csi=self.CSI if csi else None)
        assert checked == [BLOCK_3X4, 4464]

    @staticmethod
    def spy_floors(monkeypatch):
        """Record the trial count of every build of hop 2's cap-free
        noise, on one CPU, block by block."""
        cpus(monkeypatch, 1)
        floors, original = [], model._hop2_floor

        def spy(f, *args, **kwargs):
            floors.append(len(f))
            return original(f, *args, **kwargs)

        monkeypatch.setattr(model, "_hop2_floor", spy)
        return floors

    @pytest.mark.parametrize("csi", [False, True], ids=["perfect", "csi"])
    def test_relay_cap_parts_built_once_per_block(self, monkeypatch, csi):
        # a relay-cap chain, with CSI or without, builds hop 2's cap-free
        # noise once per block, and each budget's matrix from it
        floors = self.spy_floors(monkeypatch)
        estimate_outage(self.T, self.LAMBDA2, "maxmin", [GAMMA_TH] * 4,
                        trials=TWO_BLOCKS, seed=3,
                        csi=self.CSI if csi else None)
        assert floors == [BLOCK_3X4, 4464]

    def test_csi_common_snr_builds_noise_per_budget(self, monkeypatch):
        # a CSI common-SNR chain moves the interference cap, so each
        # budget builds hop 2's cap-free noise of its own
        floors = self.spy_floors(monkeypatch)
        estimate_outage(self.T, self.LAMBDA_ALL, "maxmin", [GAMMA_TH] * 4,
                        trials=TWO_BLOCKS, seed=3, csi=self.CSI)
        assert floors == [BLOCK_3X4] * 4 + [4464] * 4

    def test_csi_sweep_block_memory(self, monkeypatch):
        # two 3x4 CSI blocks over a nine-budget common-SNR chain, in one
        # process or a pair: each block's gains are three 512 KiB arrays,
        # held with a stack while max-min assigns it in one chunk (2.57
        # MiB measured per process).  A build holds only hop 2's noise,
        # which its matrix is built in, and a tile of the hop-1 SNR beside
        # the gains, and one more block-sized array (a budget's noise
        # still held while its stack is cut, say) fails this bound.
        budgets = [budget_db(x, x, x) for x in range(0, 41, 5)]
        peak = process_peak(monkeypatch, lambda: estimate_outage(
            self.T, budgets, "maxmin", [GAMMA_TH] * 9, trials=2 * BLOCK_3X4,
            seed=1, csi=self.CSI))
        assert peak < 2.75 * 2**20

    def test_fig1_block_memory(self, monkeypatch):
        # two 2x3, m = 2 blocks on fig1's unit budget with its nine
        # thresholds, in one process or a pair, whose gains are 512 KiB
        # arrays.  A block peaks drawing its third gain (two gains and a
        # tile of its second draw) and again at the build: hop 2's
        # cap-free noise is built in the interference gains' buffer and
        # the matrix in the noise's, so the budget adds no array beside a
        # tile (1.84 MiB measured per process).  A sampler tile of a whole
        # gain (``model._TILE`` at ``ENTRIES // 2``: 2.01 MiB for one
        # block), or the noise in a new array, fails this bound.
        t = topo(2, 3, 2)
        thresholds = [GAMMA_TH / db_to_linear(x) for x in range(0, 41, 5)]
        peak = process_peak(monkeypatch, lambda: estimate_outage(
            t, LinkBudget(1.0, 1.0, 1.0), "maxmin", thresholds,
            trials=2 * _block_trials(t), seed=1))
        assert peak < 3.75 / 2 * 2**20

    def test_fig2_block_memory(self, monkeypatch):
        # two 3x3, m = 3 blocks over fig2's 13 relay caps, in one process
        # or a pair, whose gains are 512 KiB arrays.  Each block builds
        # hop 2's cap-free noise once, in the interference gains' buffer,
        # and each cap's matrix in one new array (2.46 MiB measured per
        # process).  Building each cap's matrix from the gains with its
        # temporaries, or one more block-sized array held through a
        # build, fails this bound.
        t = topo(3, 3, 3)
        budgets = [budget_db(25, x, 10) for x in range(0, 61, 5)]
        peak = process_peak(monkeypatch, lambda: estimate_outage(
            t, budgets, "maxmin", [GAMMA_TH] * 13,
            trials=2 * _block_trials(t), seed=1))
        assert peak < 2.75 * 2**20


class TestDoomedTrials:
    """A trial with no SNR entry above its budget's smallest threshold is
    in outage for every user at every point of the budget, under every
    scheme.  Once such trials are an eighth or more of a stack they are
    assigned nowhere, but they stay in the block's draws: the estimates
    equal those of the oracle that assigns every trial at every point,
    and the assignment calls hold the stacks of :func:`expected_stacks`."""

    T, CSI = TestSaturationFilter.T, TestSaturationFilter.CSI
    # a common-SNR chain from low levels, where most trials are doomed
    LAMBDA_ALL = [budget_db(x, x, x) for x in (-5, 0, 5, 10)]

    @staticmethod
    def check(monkeypatch, t, budgets, scheme, thresholds, chain, trials,
              csi=None):
        """The estimates against the oracle and every stack assigned
        against :func:`expected_stacks`; returns the expected stacks."""
        want = estimate_outage_unfiltered(t, budgets, scheme, thresholds,
                                          trials, 3, csi=csi)
        expected = list(expected_stacks(t, budgets, thresholds, chain,
                                        trials, 3, csi, scheme))
        # a stack left with no trials is assigned in no call
        stacks = iter([stack for stack in expected if len(stack[2])])
        built = TestSaturationFilter.spy(monkeypatch, stacks)
        got = estimate_outage(t, budgets, scheme, thresholds, trials, 3,
                              csi=csi)
        assert got == want
        assert next(stacks, None) is None
        assert built == [trials for _, trials, _ in expected]
        return expected

    @pytest.mark.parametrize("points", ["one", "several"])
    @pytest.mark.parametrize("csi", [False, True], ids=["perfect", "csi"])
    @pytest.mark.parametrize("scheme", ["maxmin", "naive", "random"])
    def test_matches_unfiltered_oracle(self, monkeypatch, scheme, csi, points):
        csi = self.CSI if csi else None
        budgets, thresholds = list(self.LAMBDA_ALL), [GAMMA_TH] * 4
        if points == "several":
            # the first budget also scores a lower and a higher threshold:
            # the lower one decides which trials are doomed there
            budgets += [budgets[0]] * 2
            thresholds += [GAMMA_TH / 2, 2 * GAMMA_TH]
        expected = self.check(monkeypatch, self.T, budgets, scheme,
                              thresholds, scheme == "maxmin", TWO_BLOCKS, csi)
        # doomed trials leave the first stacks of each block, and stay for
        # the next budget's build (max-min serves under an eighth at -5 dB)
        for first, after in (expected[:2], expected[4:6]):
            assert 8 * len(first[2]) <= 7 * first[1]
            assert after[1] == first[1]

    @pytest.mark.parametrize("csi", [False, True], ids=["perfect", "csi"])
    def test_doomed_and_served_leave_one_stack(self, monkeypatch, csi):
        # at the first budget an eighth or more of the stack is doomed and
        # an eighth or more served: served trials leave the draws along
        # the chain, doomed ones stay, and the next budgets must pick
        # their trials out of the draws that are left, not of the stack.
        # At 2x3 a fifth of the largest entries lie below a fifth of the
        # bottlenecks (at 3x4 no eighth does)
        t = topo(2, 3, 1)
        csi = CsiErrorModel(0.05, 0.05, 0.05) if csi else None
        budgets = [budget_db(x, x, x) for x in (5, 10, 15)]
        draws = next(block_draws(t, 70_000, 3, csi))[1]
        snrs = build(t, draws, budgets[0], csi)
        largest = np.sort(snrs.max(axis=(1, 2)))
        bottleneck = np.sort(maxmin_assign_batch(snrs)[1].min(axis=1))
        low = float(largest[len(largest) // 5])
        high = float(bottleneck[len(bottleneck) * 4 // 5])
        assert low < high
        doomed = np.count_nonzero(largest <= low)
        served = np.count_nonzero(bottleneck > high)
        assert min(doomed, served) >= len(snrs) / 8
        expected = self.check(monkeypatch, t, [b for b in budgets
                                               for _ in (low, high)],
                              "maxmin", [low, high] * 3, True, 70_000, csi)
        assert len(expected[0][2]) == len(snrs) - doomed - served
        assert expected[1][1] == len(snrs) - served

    def test_largest_entry_at_threshold_is_doomed(self, monkeypatch):
        # the threshold is the largest entry of a trial of block 0, with
        # three tenths of the block's largest entries at or below it:
        # that trial is doomed (outage is at or below), and so appears in
        # no assignment; counting it as not doomed would assign it
        budget = budget_db(5, 5, 5)
        draws = next(block_draws(self.T, TWO_BLOCKS, 3))[1]
        largest = build(self.T, draws, budget).max(axis=(1, 2))
        tie = int(np.argsort(largest)[len(largest) * 3 // 10])
        threshold = float(largest[tie])
        rows = [rows for index, _, rows, selected in selected_snrs(
                    self.T, [budget], "naive", TWO_BLOCKS, 3,
                    thresholds=[threshold])
                if index == 0 and selected is None]
        expected = self.check(monkeypatch, self.T, [budget], "naive",
                              [threshold], False, TWO_BLOCKS)
        assert tie in rows[0]
        assert len(expected[0][2]) == len(largest) - len(rows[0])

    def test_doomed_trials_stay_for_the_next_build(self, monkeypatch):
        # over two blocks, naive serves none: at each budget every trial
        # of the block is built on, and is either doomed (in the rows
        # yielded without selected SNRs) or assigned, never both; trials
        # doomed at one budget are assigned at a later one
        stacks = iter([stack for stack in expected_stacks(
            self.T, self.LAMBDA_ALL, [GAMMA_TH] * 4, False, TWO_BLOCKS, 3,
            scheme="naive") if len(stack[2])])
        built = TestSaturationFilter.spy(monkeypatch, stacks)
        seen = {}
        for index, points, rows, selected in selected_snrs(
                self.T, self.LAMBDA_ALL, "naive", TWO_BLOCKS, 3,
                thresholds=[GAMMA_TH] * 4):
            kind = "assigned" if selected is not None else "doomed"
            seen.setdefault((index, points[0]), {}).setdefault(
                kind, []).append(rows)
        assert next(stacks, None) is None
        assert built == [BLOCK_3X4] * 4 + [4464] * 4
        for index, block in _blocks(TWO_BLOCKS, self.T):
            doomed = [np.concatenate(seen[index, point].get("doomed", [[]]))
                      for point in range(4)]
            for point in range(4):
                assigned = np.concatenate(seen[index, point]["assigned"])
                both = np.sort(np.concatenate([doomed[point], assigned]))
                assert np.array_equal(both, np.arange(block))
            assert len(doomed[0]) >= block / 8
            assert np.setdiff1d(doomed[0], doomed[2]).size > 0

    def test_fig3_low_point_assigns_few(self, monkeypatch):
        # 65536 3x4 CSI trials (twelve full blocks and 4 trials of a
        # thirteenth) at fig3's 0 dB point: 99% of the trials have every SNR
        # at or below the threshold
        budget = budget_db(0, 0, 0)
        want = estimate_outage_unfiltered(self.T, [budget], "maxmin",
                                          [GAMMA_TH], 65536, 1, csi=self.CSI)
        assigned = []

        def assign_spy(scheme, gammas, maps=None, original=selection.assign_batch):
            assigned.append(len(gammas))
            return original(scheme, gammas, maps)
        monkeypatch.setattr(selection, "assign_batch", assign_spy)
        got = estimate_outage(self.T, budget, "maxmin", GAMMA_TH, 65536, 1,
                              csi=self.CSI)
        assert [got] == want
        assert sum(assigned) < 0.01 * 65536


def knee_caps(t, l1, l3, trials, seed, picks):
    """Relay caps at the knee of picked entries of block 0: each equal to
    an entry's interference limit l3 d3^b / f, where the cap stops
    binding, and one ulp either side of it."""
    draws = model.sample_realization(t, _block_rng(seed, 0),
                                     trials=min(trials, _block_trials(t)))
    gains = draws.interf.reshape(-1)
    d3b = t.d3 ** t.path_loss_exp
    caps = []
    for pick in picks:
        knee = db_to_linear(l3) * d3b / gains[pick % len(gains)]
        caps += [np.nextafter(knee, 0.0), knee, np.nextafter(knee, np.inf)]
    return caps


def expected_stacks_settled(t, budgets, trials, seed):
    """Yield, per block and budget in the engine's order, the block index,
    the trials of the stack and the SNR stack the settled carry assigns:
    a trial leaves once its SNR matrix has equalled its cap-free matrix
    at an earlier budget, as soon as such trials are an eighth or more of
    those left.  A budget left with none assigns nothing."""
    for index, draws in block_draws(t, trials, seed):
        limit = model.snr_matrix(
            draws, t, replace(budgets[0], relay_snr_cap=math.inf))
        live = np.ones(len(draws.hop1), dtype=bool)
        for budget in budgets:
            if not live.any():
                break
            snrs = model.snr_matrix(draws, t, budget)
            yield index, int(np.count_nonzero(live)), snrs[live]
            settled = live & (snrs == limit).all(axis=(1, 2))
            if 8 * np.count_nonzero(settled) >= np.count_nonzero(live):
                live &= ~settled


class TestSettledCarry:
    """Along a relay-cap chain, throughput assigns a trial only until its
    SNR matrix reaches the cap-free one: the estimates equal those of the
    oracle that assigns every trial at every budget, and the assignment
    calls, in order, hold the stacks that :func:`expected_stacks_settled`
    gives (off a chain, :func:`expected_stacks_every`), one per call
    (:func:`spy_assignments`)."""

    T = NetworkTopology(3, 4, 1, d1=0.9, d2=1.2,
                        d3=1.3, path_loss_exp=2.7)

    def check(self, t, budgets, scheme, trials, seed, carried):
        want = estimate_throughput_unsettled(t, budgets, scheme, trials, seed)
        distinct = list(dict.fromkeys(budgets))
        expected = (expected_stacks_settled if carried
                    else expected_stacks_every)(t, distinct, trials, seed)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_assignments(patch, expected)
            got = estimate_throughput(t, budgets, scheme, trials, seed,
                                      scales=[1.0] * len(budgets))
        assert got == want
        assert next(expected, None) is None  # every stack was assigned
        return calls

    @settings(max_examples=25, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (1, 3), (2, 2), (2, 4), (3, 4)]),
           l1=st.floats(0.0, 40.0), l3=st.floats(-10.0, 20.0),
           caps_db=st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=6),
           picks=st.lists(st.integers(0, 10**6), max_size=3),
           scheme=st.sampled_from(["maxmin", "naive", "random"]),
           seed=st.integers(0, 2**16))
    def test_chain_matches_unsettled_oracle(self, shape, l1, l3, caps_db,
                                            picks, scheme, seed):
        t = replace(self.T, num_users=shape[0], num_relays=shape[1])
        caps = [db_to_linear(c) for c in caps_db]
        caps += knee_caps(t, l1, l3, 1000, seed, picks)
        budgets = [LinkBudget(db_to_linear(l1), cap, db_to_linear(l3))
                   for cap in sorted(set(caps))]
        # a repeated budget scores with the first of its kind
        budgets.append(budgets[0])
        # every scheme carries: random's map is drawn once per trial
        self.check(t, budgets, scheme, 1000, seed, len(set(budgets)) > 1)

    @pytest.mark.parametrize("scheme", ["maxmin", "naive", "random"])
    def test_two_blocks(self, scheme):
        # fig4's levels, with caps at knees of block 0 between them
        caps = sorted([db_to_linear(x) for x in range(0, 41, 5)]
                      + knee_caps(self.T, 25.0, 10.0, TWO_BLOCKS, 4, [3, 5000]))
        budgets = [LinkBudget(db_to_linear(25), cap, db_to_linear(10))
                   for cap in caps]
        calls = self.check(self.T, budgets, scheme, TWO_BLOCKS, 4, carried=True)
        # settled trials leave before the last budget
        assert sum(calls) < TWO_BLOCKS * len(caps)

    # a rising relay cap with a falling cap, or with the source or the
    # interference level moving either way: no relay-cap chain.  At 1x2
    # and a 5 dB source, hop 1 often binds both entries, so trials would
    # settle early
    CAPS = (0, 10, 20, 30)
    ORDERS = {
        "caps_fall": [(5, x, 20) for x in CAPS[::-1]],
        "source_rises": [(5 + 3 * i, x, 20) for i, x in enumerate(CAPS)],
        "source_falls": [(5 - 3 * i, x, 20) for i, x in enumerate(CAPS)],
        "interference_rises": [(5, x, 20 + 3 * i) for i, x in enumerate(CAPS)],
        "interference_falls": [(5, x, 30 - 10 * i) for i, x in enumerate(CAPS)],
    }

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("trials", [1000, 70_000], ids=["1block", "2blocks"])
    def test_other_orders_assign_every_trial(self, order, trials):
        t = replace(self.T, num_users=1, num_relays=2)
        budgets = [budget_db(*level) for level in self.ORDERS[order]]
        self.check(t, budgets, "maxmin", trials, 5, carried=False)

    def test_single_budget_assigns_every_trial(self):
        self.check(self.T, [budget_db(25, 10, 10)] * 3, "maxmin", 70_000, 5,
                   carried=False)

    # the throughput-fine benchmark workload: fig4's levels on 2x4, 241
    # relay caps at 1000 trials, where most stacks are small
    FINE = NetworkTopology(2, 4, 1)
    FINE_BUDGETS = [budget_db(25, x / 4, 10) for x in range(241)]

    @pytest.mark.parametrize("scheme", ["maxmin", "naive", "random"])
    def test_small_stacks_assign_one_call_per_budget(self, scheme):
        # the check holds each call to one budget's stack of the trials
        # left: 149 of the 241 budgets still have trials, whatever the
        # scheme, and once every trial has settled no budget makes a call
        calls = self.check(self.FINE, self.FINE_BUDGETS, scheme, 1000, 1,
                           carried=True)
        assert len(calls) == 149

    def test_small_stack_chain_memory(self):
        # one 1000-trial 2x4 block over 241 relay caps: a budget's stack
        # (64 KB), its assignment, the block's parts, the carried selected
        # SNRs and one point's rates (0.56 MiB measured; 2.22 MiB when
        # consecutive budgets' stacks were assigned in joined calls of up
        # to 65536 entries, and 10.2 MB joining the whole chain in one
        # call)
        tracemalloc.start()
        try:
            estimate_throughput(self.FINE, self.FINE_BUDGETS, "maxmin", 1000,
                                1, scales=[1.0] * 241)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_fig4_block_memory(self, monkeypatch):
        # two 3x4 blocks over fig4's nine relay caps, in one process or a
        # pair: in a block, three 512 KiB parts of the SNR matrix (hop-1
        # SNR, interference limit, hop-2 gain) and the cap-free matrix,
        # the matrix at one cap built in place, and the carried selected
        # SNRs, with max-min assigning the
        # first cap's whole stack in one chunk (3.80 MiB measured per
        # process).  One more block-sized array held through a build
        # fails this bound.  Smaller leaks pass it, such as the last
        # assignment's selected SNRs held through the next build
        # (TestHeldAtBuild catches it).
        budgets = [budget_db(25, x, 10) for x in range(0, 41, 5)]
        peak = process_peak(monkeypatch, lambda: estimate_throughput(
            self.T, budgets, "maxmin", 2 * BLOCK_3X4, 1, scales=[1.0] * 9))
        assert peak < 4.25 * 2**20

    @pytest.mark.parametrize("scheme", ["maxmin", "naive", "random"])
    def test_three_cap_block_memory(self, monkeypatch, scheme):
        # two 3x4 blocks over three relay caps, in one process or a pair:
        # in a block, the three parts of the SNR matrix, the matrix at one
        # cap and the carried selected SNRs, whatever the scheme, and
        # max-min's working set for a whole stack (per process 3.80 MiB
        # measured under max-min, 3.16 under naive, 3.07 under random).
        # One more 512 KiB block-sized array, such as naive marking taken
        # relays in a copy of the whole stack, fails each scheme's bound.
        budgets = [budget_db(25, x, 10) for x in (0, 20, 40)]
        peak = process_peak(monkeypatch, lambda: estimate_throughput(
            self.T, budgets, scheme, 2 * BLOCK_3X4, 1, scales=[1.0] * 3))
        bound = {"maxmin": 4.25, "naive": 3.5, "random": 3.375}[scheme]
        assert peak < bound * 2**20


def held_at_builds(monkeypatch, run):
    """Run ``run()`` under tracemalloc with the SNR builders and hop 2's
    cap-free noise patched to record the memory traced as each outermost
    build starts: at its part where it builds one, so a build of the
    noise and the matrix built on it record once, as does a build
    through ``snr_matrix``, which builds through ``_snr``; returns the
    records and the peak."""
    held, inside, last = [], [], [None]
    for name in BUILDERS + ("_hop2_floor",):
        def build_spy(*args, name=name, original=getattr(model, name), **kwargs):
            if not inside and not (name == "_snr" and last[0] == "_hop2_floor"):
                held.append(tracemalloc.get_traced_memory()[0])
            if not inside:
                last[0] = name
            inside.append(original)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(model, name, build_spy)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, peak


class TestHeldAtBuild:
    """What one 3x4 block (``BLOCK_3X4`` trials) holds as each SNR matrix
    of it starts to build, in block-sized matrices (``MATRIX``), (trials,
    users) arrays (``SELECTED``) and the block's index of live trials
    (``LIVE``), with half a ``SELECTED`` to spare: the pass or a scorer
    that holds one more selected-SNR array through a build (the last
    assignment's SNRs or relay choices, say) fails, which the peak
    bounds above do not catch."""

    MATRIX, SELECTED, LIVE = (BLOCK_3X4 * 12 * 8, BLOCK_3X4 * 3 * 8,
                              BLOCK_3X4 * 8)
    T = TestSettledCarry.T
    CSI = TestSaturationFilter.CSI

    @pytest.mark.parametrize("scheme", ["maxmin", "random"])
    def test_relay_cap_throughput(self, monkeypatch, scheme):
        # fig4's nine relay caps: the three parts and the cap-free matrix,
        # the carried selected SNRs and one point's rates (4.59 matrices
        # measured under max-min, 4.62 under random; holding the last
        # assignment's selected SNRs or its relay choices through the
        # next build adds a quarter matrix)
        budgets = [budget_db(25, x, 10) for x in range(0, 41, 5)]
        held, _ = held_at_builds(monkeypatch, lambda: estimate_throughput(
            self.T, budgets, scheme, BLOCK_3X4, 1, scales=[1.0] * 9))
        assert len(held) == 10  # the part with the cap-free matrix, then each cap
        assert max(held) < (4 * self.MATRIX + 2.5 * self.SELECTED
                            + self.LIVE)

    @pytest.mark.parametrize("scheme", ["maxmin", "random"])
    def test_csi_outage(self, monkeypatch, scheme):
        # a nine-budget common-SNR CSI chain: the three estimate gains
        # (3.09 matrices measured under max-min, 3.12 under random; a
        # quarter matrix more with the last stack's selected SNRs held
        # through the next build), and at the peak the gains, a stack and
        # max-min's working set as it assigns that stack in one chunk
        # (5.06 matrices under max-min at the 5 dB stack), or random's
        # stack and its kept copy (4.78)
        budgets = [budget_db(x, x, x) for x in range(0, 41, 5)]
        held, peak = held_at_builds(monkeypatch, lambda: estimate_outage(
            self.T, budgets, scheme, [GAMMA_TH] * 9, BLOCK_3X4, 1,
            csi=self.CSI))
        assert len(held) == 9
        spare = 0.5 * self.SELECTED + self.LIVE
        assert max(held) < 3 * self.MATRIX + spare
        assert peak < 5.25 * self.MATRIX + spare


class TestThroughputEstimates:
    def test_vanishes_without_power(self):
        t = topo(1, 1, 1)
        b = LinkBudget(1e-9, 1e-9, 1e-9)
        est = estimate_throughput(t, b, "maxmin", trials=5_000, seed=2)[0]
        assert est.mean < 1e-8

    def test_naive_user_one_beats_maxmin_mean(self):
        t, b = topo(m=1), budget_db(15, 10, 5)
        naive = estimate_throughput(t, b, "naive", trials=100_000, seed=9)
        fair = estimate_throughput(t, b, "maxmin", trials=100_000, seed=9)
        assert naive[0].mean >= fair[0].mean

    def test_interval_contains_mean(self):
        t, b = topo(m=1), budget_db(15, 10, 5)
        for est in estimate_throughput(t, b, "maxmin", trials=20_000, seed=10):
            assert est.ci_low <= est.mean <= est.ci_high

    def test_rates_below_rounding_of_one_plus_snr(self):
        # every SNR at a 1e-20 scale (a lambda_all sweep at -200 dB) is
        # far below the 1.1e-16 where 1 + SNR rounds to 1: a rate formed
        # as log2(1 + SNR) reads 0, with interval [0, 0]
        t, scale = topo(m=1), 1e-20
        pk = rank_placement_probs(2, 3, "maxmin")
        exact = average_throughput(t, LinkBudget(scale, scale, scale), pk)
        for est in estimate_throughput(t, LinkBudget(1.0, 1.0, 1.0),
                                       "maxmin", trials=10_000, seed=1,
                                       scales=scale):
            assert est.mean > 0
            assert est.ci_low <= exact <= est.ci_high


    def test_memory_does_not_grow_with_blocks(self, monkeypatch):
        # naive 1x2000 at 500 scales: a block holds 32 trials, and each
        # point's sums fold into running totals, so 64 blocks peak where
        # one does (1.5 MiB measured), on one CPU and in the caller's
        # process on two, which reads the worker's sums one block at a
        # time; sums kept per block grew the peak by 0.5 MiB
        t = topo(1, 2000, 1)
        budget, scales = budget_db(10, 10, 10), np.logspace(-3, 3, 500)
        block = _block_trials(t)
        peaks = []
        # the first one warms up
        for count, trials in ((1, block), (1, 64 * block), (1, block),
                              (2, 64 * block)):
            cpus(monkeypatch, count)
            tracemalloc.start()
            try:
                estimate_throughput(t, budget, "naive", trials, 1, scales=scales)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert block == 32
        assert peaks[1] < peaks[2] + 2**16
        assert peaks[3] < peaks[2] + 2**16

    def test_scales_scored_together_match_one_call_each(self):
        # 2x3 over two full blocks: a tile holds three of its scales
        # (65536 floats over 2 x 10922 selected SNRs), so ten scales of
        # one stack take four tiles, and each scale's estimates equal, bit
        # for bit, those of a call that scores it alone
        t, b = topo(m=1), budget_db(15, 10, 5)
        trials, scales = 2 * _block_trials(t), list(np.logspace(-2, 2, 10))
        assert _SHARE // (t.num_users * _block_trials(t)) == 3
        many = estimate_throughput(t, b, "maxmin", trials, 6, scales=scales)
        assert many == [estimate_throughput(t, b, "maxmin", trials, 6, scales=x)
                        for x in scales]


class TestThreads:
    """On two CPUs the blocks run in pairs, every second one in a worker
    process forked for the call: every estimate has the same bits as on
    one CPU, an error raised in a block of either process reaches the
    caller with its type and message, no child process or thread
    outlives a call, and where a fork is unsafe or missing the pass
    forks nothing."""

    T = TestSaturationFilter.T
    CSI = TestSaturationFilter.CSI
    TRIALS = 2 * BLOCK_3X4 + 1000  # a pair, then a block alone

    def run(self, kind, scheme):
        if kind == "throughput":  # a relay-cap chain, where trials settle
            budgets = [budget_db(25, x, 10) for x in (0, 20, 40)]
            return estimate_throughput(self.T, budgets, scheme, self.TRIALS, 4,
                                       scales=[1.0] * 3)
        budgets = [budget_db(x, x, x) for x in (0, 5, 10)]
        return estimate_outage(self.T, budgets, scheme, [GAMMA_TH] * 3,
                               self.TRIALS, 4,
                               csi=self.CSI if kind == "csi" else None)

    @staticmethod
    def spy_forks(monkeypatch):
        """Record the pid of every child the pass forks."""
        forks, fork = [], os.fork

        def fork_spy():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", fork_spy)
        return forks

    @staticmethod
    def assert_none_left(threads):
        with pytest.raises(ChildProcessError):  # no child, running or done
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kind", ["outage", "csi", "throughput"])
    @pytest.mark.parametrize("scheme", ["maxmin", "naive", "random"])
    def test_same_bits_on_one_cpu_and_two(self, monkeypatch, kind, scheme):
        drawn_here, sample = [], model.sample_realization

        def sample_spy(*args, **kwargs):
            drawn_here.append(True)  # a worker's appends stay in the worker
            return sample(*args, **kwargs)

        monkeypatch.setattr(model, "sample_realization", sample_spy)
        forks, threads = self.spy_forks(monkeypatch), threading.active_count()
        results = {}
        for count in (1, 2):
            cpus(monkeypatch, count)
            drawn_here.clear()
            results[count] = self.run(kind, scheme)
            self.assert_none_left(threads)
            # on two CPUs block 1 draws in the one worker forked
            assert len(drawn_here) == (3 if count == 1 else 2)
            assert len(forks) == count - 1
        assert results[1] == results[2]

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
    @pytest.mark.parametrize("kind", ["outage", "throughput"])
    def test_block_error_reaches_caller(self, monkeypatch, kind, failing):
        # assignment raises on one block of the first pair (block 1 runs in
        # the worker); the worker is killed and reaped before the error
        # leaves the pass
        cpus(monkeypatch, 2)
        current, block_rng = SimpleNamespace(), montecarlo._block_rng

        def rng_spy(seed, index):
            current.index = index
            return block_rng(seed, index)

        def assign_spy(scheme, gammas, maps=None, original=selection.assign_batch):
            if current.index == failing:
                raise LookupError(f"block {failing}")
            return original(scheme, gammas, maps)

        monkeypatch.setattr(montecarlo, "_block_rng", rng_spy)
        monkeypatch.setattr(selection, "assign_batch", assign_spy)
        forks, threads = self.spy_forks(monkeypatch), threading.active_count()
        with pytest.raises(LookupError, match=f"^block {failing}$"):
            self.run(kind, "maxmin")
        assert len(forks) == 1
        self.assert_none_left(threads)

    def test_pairs_run_together_in_block_order(self, monkeypatch):
        # each of blocks 0-3 signals the other process and waits for its
        # signal, so a block of the caller and one of the worker run at
        # once; block 4 runs alone
        cpus(monkeypatch, 2)
        forks, caller = self.spy_forks(monkeypatch), os.getpid()
        to_worker, to_caller = os.pipe(), os.pipe()

        def run(block):
            mine, theirs = ((to_worker, to_caller) if os.getpid() == caller
                            else (to_caller, to_worker))
            if block < 4:
                os.write(mine[1], b"x")
                assert select.select([theirs[0]], [], [], 30)[0]
                assert os.read(theirs[0], 1) == b"x"
            return block, os.getpid()

        try:
            results = list(_in_pairs(run, range(5)))
        finally:
            for end in (*to_worker, *to_caller):
                os.close(end)
        [worker] = forks
        assert results == [(0, caller), (1, worker), (2, caller), (3, worker),
                           (4, caller)]

    def test_pairs_closed_early_leave_no_thread(self, monkeypatch):
        # the worker's first block would take a minute: closing the pass
        # kills the worker rather than wait for it
        cpus(monkeypatch, 2)
        forks, threads = self.spy_forks(monkeypatch), threading.active_count()
        pairs = _in_pairs(lambda block: time.sleep(60 * (block % 2)) or 2 * block,
                          range(5))
        assert next(pairs) == 0
        assert len(forks) == 1
        start = time.monotonic()
        pairs.close()
        assert time.monotonic() - start < 30
        self.assert_none_left(threads)

    @pytest.mark.parametrize("why", ["thread", "one_cpu", "no_fork"])
    def test_no_fork_where_unsafe_or_missing(self, monkeypatch, why):
        # a second thread alive, one CPU, or no os.fork: the blocks run one
        # after another in the caller, with the same bits
        cpus(monkeypatch, 1)
        expected = self.run("csi", "maxmin")
        forks = self.spy_forks(monkeypatch)
        if why == "no_fork":
            monkeypatch.delattr(os, "fork")
        cpus(monkeypatch, 1 if why == "one_cpu" else 2)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        if why == "thread":
            helper.start()
        try:
            assert self.run("csi", "maxmin") == expected
        finally:
            release.set()
            if why == "thread":
                helper.join(timeout=30)
        assert not helper.is_alive()
        assert forks == []


# fig3's one-CPU estimator call, run twice in a fresh interpreter, which
# prints the minor page faults of the second call
SECOND_CALL_FAULTS = """
import resource, sys
from cogrelay import cli, montecarlo
montecarlo._cpu_count = lambda: 1
config = cli.load_config(sys.argv[1])
budgets, levels = cli._mc_points(config, config.sweep.points())
gamma_th = cli.db_to_linear(config.gamma_th_db)

def call():
    montecarlo.estimate_outage(
        config.topology(), budgets, config.scheme,
        [gamma_th / level for level in levels], config.trials,
        cli._point_seed(config.seed, 0), csi=config.csi)

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

call()
before = faults()
call()
print(faults() - before)
"""


class TestResidency:
    """Each process faults its Monte Carlo working set in once: a block
    reuses the heap that the block before it freed (``model``'s
    residency comment)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the residency rule acts on glibc's malloc")
    def test_warm_call_takes_no_faults(self):
        # in a fresh interpreter: this process may already have raised
        # glibc's thresholds by freeing a large array, which would pass
        # this check without the rule (a warm fig3 call took 7,200-11,400
        # faults where each block faulted its arrays in again)
        src = Path(model.__file__).resolve().parents[1]
        recipe = Path(__file__).resolve().parents[1] / "recipes" / "fig3.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", SECOND_CALL_FAULTS, str(recipe)],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        assert int(done.stdout) < 1000


class TestCdfEstimates:
    def test_grid_zero_and_monotone(self):
        t, b = topo(1, 1, 2), budget_db(10, 10, 10)
        grid = np.concatenate(([0.0], np.linspace(0.5, 30, 15)))
        ests = estimate_cdf(t, b, grid, trials=100_000, seed=11)
        assert ests[0].mean == 0.0
        means = [e.mean for e in ests]
        assert all(later >= earlier for earlier, later in zip(means, means[1:]))

    def test_brackets_closed_form_pointwise(self):
        t, b = topo(1, 1, 2), budget_db(10, 10, 10)
        grid = np.linspace(0.2, 25, 20)
        ests = estimate_cdf(t, b, grid, trials=1_000_000, seed=12, z=3.0)
        for x, est in zip(grid, ests):
            exact = _link_cdf(float(x), t, b)[0]
            assert est.ci_low <= exact <= est.ci_high, x

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            estimate_cdf(topo(), budget_db(10, 10, 10), [1.0, 0.5],
                         trials=1000, seed=1)
