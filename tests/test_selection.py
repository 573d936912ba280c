"""Selection-scheme checks: bottleneck optimality against brute force,
greedy and random behaviour, batch/single agreement, and the
rank-placement machinery."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assign_oracles import (
    enumerate_rank_counts,
    global_ranks,
    maxmin_assign,
    maxmin_assign_rowwise_batch,
    maxmin_assign_sorted_batch,
    naive_assign,
    prefix_leaf_rank_counts,
    random_assign,
    saturated_by_maps,
)
from cogrelay import selection
from cogrelay.analytic import outage_from_cdf, worst_case_rank_prob
from cogrelay.selection import (
    EXACT_MAXMIN_LIMIT,
    assign_batch,
    decided,
    _maxmin_rank_counts,
    maxmin_assign_batch,
    naive_assign_batch,
    rank_placement_probs,
    relay_maps,
    saturated,
)


def lex_bottleneck_oracle(g):
    """Brute force over every injective map: maximise the ascending
    profile of assigned values lexicographically."""
    g = np.asarray(g, dtype=float)
    num_users, num_relays = g.shape
    best_key, best = None, None
    for relays in itertools.permutations(range(num_relays), num_users):
        key = tuple(sorted(g[np.arange(num_users), relays]))
        if best_key is None or key > best_key:
            best_key, best = key, relays
    return best, best_key


SMALL_SHAPES = [(m, n) for m in range(1, 4) for n in range(m, 10) if m * n <= 9]


def shape_id(shape):
    return "x".join(map(str, shape))


class TestMaxminAssign:
    def test_single_user_takes_best_relay(self):
        a = maxmin_assign([[0.3, 2.0, 1.1]])
        assert a.relay_for_user == (1,)
        assert a.global_rank == (1,)

    def test_two_by_two_example(self):
        a = maxmin_assign([[4.0, 3.0], [2.0, 1.0]])
        assert a.relay_for_user == (1, 0)
        assert a.effective_snr == (3.0, 2.0)
        assert min(a.effective_snr) == 2.0  # beats the min(4, 1) = 1 pairing

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            num_users = rng.integers(1, 4)
            num_relays = rng.integers(num_users, 5)
            g = rng.random((num_users, num_relays))
            a = maxmin_assign(g)
            relays, key = lex_bottleneck_oracle(g)
            assert a.relay_for_user == relays
            assert min(a.effective_snr) == key[0]

    def test_rank_bound_over_many_matrices(self):
        rng = np.random.default_rng(12)
        for num_users, num_relays in [(2, 3), (3, 3), (3, 4)]:
            g = rng.random((1_000_000, num_users, num_relays))
            ranks = global_ranks(g, maxmin_assign_batch(g)[1])
            assert ranks.max() <= (num_users - 1) * num_relays + 1

    def test_rejects_more_users_than_relays(self):
        with pytest.raises(ValueError, match="relays"):
            maxmin_assign(np.ones((3, 2)))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        g = rng.random((10_000, 3, 4))
        chosen_a, eff_a = maxmin_assign_batch(g)
        chosen_b, eff_b = maxmin_assign_batch(np.log1p(g))
        assert np.array_equal(chosen_a, chosen_b)
        assert np.array_equal(global_ranks(g, eff_a),
                              global_ranks(np.log1p(g), eff_b))
        chosen_a, _ = naive_assign_batch(g)
        chosen_b, _ = naive_assign_batch(np.log1p(g))
        assert np.array_equal(chosen_a, chosen_b)


@st.composite
def snr_stacks(draw, tied):
    """A few SNR matrices of one small shape, M = 1 and M = N included.
    Tied stacks take values from {0, 1/4, 1/2, 3/4}; untied ones hold
    distinct entries."""
    num_users = draw(st.integers(1, 3))
    num_relays = draw(st.integers(num_users, 4))
    shape = (draw(st.integers(1, 4)), num_users, num_relays)
    if tied:
        return draw(hnp.arrays(float, shape,
                               elements=st.integers(0, 3).map(lambda k: k / 4)))
    return draw(hnp.arrays(float, shape, unique=True, elements=st.floats(
        0.0, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False)))


# Shapes on both sides of each type the batch picks from its shape:
# keys in int16 up to 2x11, int32 from 2x12 to 2x27, one int64 word from
# 2x28 up to 3x29, and two from 3x30; rank counts in uint8 up to
# M*N = 256 (1x256, 2x128) and in uint16 beyond (1x257, 2x129).
BOUNDARY_SHAPES = [(2, 11), (2, 12), (2, 27), (2, 28), (3, 29), (3, 30),
                   (1, 256), (2, 128), (1, 257), (2, 129)]


@st.composite
def boundary_stacks(draw, tied):
    """A few matrices of one boundary shape.  Tied stacks take values
    from {0, 1/4, 1/2, 3/4}; untied ones are a permutation of 0..size-1,
    which covers every rank order."""
    num_users, num_relays = draw(st.sampled_from(BOUNDARY_SHAPES))
    shape = (draw(st.integers(1, 3)), num_users, num_relays)
    if tied:
        return draw(hnp.arrays(float, shape,
                               elements=st.integers(0, 3).map(lambda k: k / 4)))
    order = draw(st.permutations(range(math.prod(shape))))
    return np.array(order, dtype=float).reshape(shape)


def assert_batches_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def scalar_maxmin_batch(g):
    picks = [maxmin_assign(m) for m in g]
    return (np.array([a.relay_for_user for a in picks], dtype=np.intp),
            np.array([a.effective_snr for a in picks]))


class TestMaxminBatchOracles:
    """The rank-keyed batch against the scalar bottleneck oracle on
    tie-free matrices, and against sorted-profile enumeration on tied
    ones (where the first map in table order must win)."""

    @settings(max_examples=150, deadline=None)
    @given(snr_stacks(tied=False))
    def test_tie_free_matches_scalar_oracle(self, g):
        assert_batches_equal(maxmin_assign_batch(g), scalar_maxmin_batch(g))

    @settings(max_examples=150, deadline=None)
    @given(snr_stacks(tied=True))
    def test_tied_matches_sorted_enumeration(self, g):
        assert_batches_equal(maxmin_assign_batch(g), maxmin_assign_sorted_batch(g))

    @pytest.mark.parametrize("shape", [(1, 70), (2, 64), (3, 30)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_wide_keys(self, shape):
        # M*N > 63: 1x70 fits one key word, 2x64 and 3x30 need two
        rng = np.random.default_rng(sum(shape))
        g = rng.random((4, *shape))
        assert_batches_equal(maxmin_assign_batch(g), scalar_maxmin_batch(g))
        tied = np.floor(4 * g) / 4
        assert_batches_equal(maxmin_assign_batch(tied),
                             maxmin_assign_sorted_batch(tied))

    def test_boundary_shapes_straddle_each_type(self):
        types = [(w.dtype, w.shape[0]) for w in
                 (selection._key_words(*shape) for shape in BOUNDARY_SHAPES[:6])]
        assert types == [(np.int16, 1), (np.int32, 1), (np.int32, 1),
                         (np.int64, 1), (np.int64, 1), (np.int64, 2)]
        counts = [selection._larger_counts(np.zeros((math.prod(shape), 1))).dtype
                  for shape in BOUNDARY_SHAPES[6:]]
        assert counts == [np.uint8, np.uint8, np.uint16, np.uint16]

    @settings(max_examples=40, deadline=None)
    @given(boundary_stacks(tied=False))
    def test_boundary_tie_free_matches_scalar_oracle(self, g):
        assert_batches_equal(maxmin_assign_batch(g), scalar_maxmin_batch(g))

    @settings(max_examples=40, deadline=None)
    @given(boundary_stacks(tied=True))
    def test_boundary_tied_matches_sorted_enumeration(self, g):
        assert_batches_equal(maxmin_assign_batch(g), maxmin_assign_sorted_batch(g))

    def test_memory_small_shape(self):
        # a 65536-trial 3x4 stack, one rank-placement block (six chunks):
        # the chunk's counts are uint8 and its keys int16 (3.6 MB
        # measured; 10.8 MB with sorted int64 counts and int64 keys)
        g = np.random.default_rng(18).random((65536, 3, 4))
        tracemalloc.start()
        try:
            maxmin_assign_batch(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_memory_bounded(self):
        # 1680 maps: a (trials, maps, users) float64 profile array of a
        # 65536-trial stack would take 3.5 GB
        g = np.random.default_rng(18).random((65536, 4, 8))
        tracemalloc.start()
        try:
            maxmin_assign_batch(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20


class TestRowwiseKernel:
    """The batch, with its per-shape plan, grouped larger-entry counts
    and packed first minimum, against the kernel that counts one row at
    a time and takes argmin (``maxmin_assign_rowwise_batch``), bit for
    bit, and the memory of the grouped counts at the widest uint16
    shape."""

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(boundary_stacks))
    def test_boundary_shapes(self, g):
        assert_batches_equal(maxmin_assign_batch(g), maxmin_assign_rowwise_batch(g))

    @pytest.mark.parametrize("shape", BOUNDARY_SHAPES + [(1, 1), (2, 4), (3, 4)],
                             ids=shape_id)
    def test_all_equal(self, shape):
        # every map ties, so the first in table order wins
        for value in (0.0, 0.5, np.inf):
            g = np.full((3, *shape), value)
            assert_batches_equal(maxmin_assign_batch(g),
                                 maxmin_assign_rowwise_batch(g))
            assert (maxmin_assign_batch(g)[0] == np.arange(shape[0])).all()

    @pytest.mark.parametrize("trials", [1, 2, 3, 100, 10922, 10923, 20000])
    @pytest.mark.parametrize("shape", [(2, 4), (3, 4)], ids=shape_id)
    def test_trials(self, shape, trials):
        # 10922 trials fill one 3x4 chunk, 10923 start a second
        g = np.random.default_rng(trials).random((trials, *shape))
        assert_batches_equal(maxmin_assign_batch(g), maxmin_assign_rowwise_batch(g))
        tied = np.floor(4 * g) / 4
        assert_batches_equal(maxmin_assign_batch(tied),
                             maxmin_assign_rowwise_batch(tied))

    def test_memory_widest_counts(self):
        # 1x257: a chunk of 1020 trials is a 2.0 MiB float copy, and
        # comparing every row with every row at once would make a 64 MiB
        # bool block; groups of at most 8 rows make 2.0 MiB (7.0 MiB
        # traced in all, for a 4096-trial stack)
        g = np.random.default_rng(19).random((4096, 1, 257))
        tracemalloc.start()
        try:
            maxmin_assign_batch(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


@st.composite
def stacks_and_thresholds(draw, stacks):
    """A stack from ``stacks`` (a function of ``tied``) and a threshold:
    one of its entries, so that entries tie with it, the float just below
    one, or a bound that every entry or none clears."""
    g = draw(st.booleans().flatmap(stacks))
    entry = draw(st.sampled_from(sorted(set(g.ravel().tolist()))))
    threshold = draw(st.sampled_from([entry, np.nextafter(entry, -np.inf),
                                      -1.0, np.inf]))
    return g, threshold


class TestSaturated:
    """Hall's test against a check of every injective map, and against
    what it stands for: a served matrix is one whose max-min bottleneck
    is above the threshold."""

    @staticmethod
    def check(g, threshold):
        served = saturated(g, threshold)
        assert served.dtype == bool and served.shape == (len(g),)
        np.testing.assert_array_equal(served, saturated_by_maps(g, threshold))
        bottleneck = maxmin_assign_batch(g)[1].min(axis=1)
        np.testing.assert_array_equal(served, bottleneck > threshold)

    @settings(max_examples=200, deadline=None)
    @given(stacks_and_thresholds(snr_stacks))
    def test_small_stacks(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(stacks_and_thresholds(boundary_stacks))
    def test_boundary_shapes(self, case):
        self.check(*case)

    def test_hall_needs_every_user_set(self):
        # every user and every pair of users has as many relays above 1
        # as users, but the three users share two such relays: only the
        # full set fails, until one user gets a relay of its own
        g = np.array([[[2.0, 2.0, 0.0, 0.0],
                       [2.0, 2.0, 0.0, 0.0],
                       [2.0, 2.0, 0.0, 0.0]]])
        assert saturated(g, 1.0).tolist() == [False]
        g[0, 2, 3] = 2.0
        assert saturated(g, 1.0).tolist() == [True]
        self.check(g, 1.0)

    def test_empty_stack(self):
        assert saturated(np.zeros((0, 3, 4)), 1.0).shape == (0,)


class TestDecided:
    """A doomed matrix is one with no entry above ``low``: every scheme
    then selects an SNR at or below ``low`` for every user.  ``served``
    is :func:`saturated` at ``high``, whether one comparison serves both
    tests (``high == low``) or not."""

    @settings(max_examples=200, deadline=None)
    @given(stacks_and_thresholds(snr_stacks),
           st.sampled_from(["none", "same", "largest"]))
    def test_small_stacks(self, case, high):
        g, low = case
        high = {"none": None, "same": low,
                "largest": float(g.max(initial=-1.0))}[high]
        doomed, served = decided(g, low, high)
        assert doomed.dtype == bool and doomed.shape == (len(g),)
        np.testing.assert_array_equal(doomed, (g <= low).all(axis=(1, 2)))
        maps = relay_maps("random", np.random.default_rng(0), g.shape)
        for scheme in ("maxmin", "naive", "random"):
            eff = assign_batch(scheme, g, maps)[1]
            assert (eff[doomed] <= low).all()
        if high is None:
            assert served is None
        else:
            np.testing.assert_array_equal(served, saturated(g, high))

    def test_largest_entry_at_low_is_doomed(self):
        # outage is at or below the threshold, so a tie dooms
        g = np.array([[[0.5, 2.0], [1.0, 0.25]]])
        assert decided(g, 2.0)[0].tolist() == [True]
        assert decided(g, np.nextafter(2.0, 0.0))[0].tolist() == [False]


class TestFirstMin:
    """The packed first minimum against argmin over the map axis, at map
    counts from 1 to 8!, on spread keys (few ties) and on keys of four
    values (many ties), of every type the batch holds: int16, int32 and
    int64 keys whose largest value leaves room for the index bits in
    int32 (packed), and wider int32 keys and full-width int64 words,
    such as a word holding the type's maximum for maps ruled out by a
    more significant word (argmin)."""

    @pytest.mark.parametrize("maps", [1, 2, 24, 360, 40320])
    @pytest.mark.parametrize("dtype, top", [
        (np.int16, np.iinfo(np.int16).max),
        (np.int32, None), (np.int32, np.iinfo(np.int32).max),
        (np.int64, None), (np.int64, np.iinfo(np.int64).max),
    ], ids=["int16", "int32-room", "int32-full", "int64-room", "int64-full"])
    @pytest.mark.parametrize("tied", [False, True], ids=["spread", "tied"])
    def test_matches_argmin(self, maps, dtype, top, tied):
        rng = np.random.default_rng(maps)
        if top is None:  # the largest key that still packs in int32
            top = (1 << (31 - (maps - 1).bit_length())) - 1
        low = top - 3 if tied else 0
        key = rng.integers(low, top, size=(maps, 64), dtype=dtype, endpoint=True)
        if tied:
            key[:, 0] = top  # every map ties
        index = np.arange(maps, dtype=np.int32)[:, None]
        np.testing.assert_array_equal(selection._first_min(key, index),
                                      key.argmin(axis=0))


class TestNaiveAssign:
    def test_greedy_definition(self):
        a = naive_assign([[4.0, 3.0], [2.0, 1.0]])
        assert a.relay_for_user == (0, 1)
        assert a.effective_snr == (4.0, 1.0)

    def test_single_user_equals_maxmin(self):
        g = np.random.default_rng(14).random((1, 5))
        assert naive_assign(g).relay_for_user == maxmin_assign(g).relay_for_user

    def test_user_one_never_worse_than_maxmin(self):
        g = np.random.default_rng(15).random((20_000, 2, 3))
        _, eff_naive = naive_assign_batch(g)
        _, eff_maxmin = maxmin_assign_batch(g)
        assert np.all(eff_naive[:, 0] >= eff_maxmin[:, 0])


class TestRandomAssign:
    def test_uniform_over_matchings(self):
        g = np.ones((2, 2))
        rng = np.random.default_rng(16)
        picks = [random_assign(g, rng).relay_for_user for _ in range(20_000)]
        frac = sum(p == (0, 1) for p in picks) / len(picks)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_fixed_seed_deterministic(self):
        g = np.random.default_rng(0).random((3, 4))
        a = random_assign(g, np.random.default_rng(99))
        b = random_assign(g, np.random.default_rng(99))
        assert a == b

    def test_injective(self):
        g = np.random.default_rng(1).random((5000, 3, 4))
        maps = relay_maps("random", np.random.default_rng(2), g.shape)
        chosen, eff = assign_batch("random", g, maps)
        assert all(len(set(row)) == 3 for row in chosen)
        # the first three columns of the keys' argsort, in the narrowest
        # type that holds relay 3, and the SNRs they pick
        keys = np.random.default_rng(2).random((5000, 4))
        assert maps.dtype == np.uint8
        assert np.array_equal(chosen, np.argsort(keys, axis=1)[:, :3])
        assert np.array_equal(eff, [row[range(3), pick]
                                    for row, pick in zip(g, chosen)])
        # every one of the 24 maps, about equally often
        counts = Counter(map(tuple, chosen.tolist()))
        assert len(counts) == 24
        assert all(abs(c - 5000 / 24) < 5 * math.sqrt(5000 / 24)
                   for c in counts.values())

    def test_maps_drawn_by_random_alone(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        for scheme in ("maxmin", "naive"):
            assert relay_maps(scheme, rng, (10, 2, 3)) is None
        assert rng.bit_generator.state == state  # nothing drawn
        with pytest.raises(ValueError, match="relay maps"):
            assign_batch("random", np.zeros((10, 2, 3)))
        assert relay_maps("random", rng, (10, 2, 300)).dtype == np.uint16


class TestBatchAgreement:
    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(17)
        for num_users, num_relays in [(1, 1), (2, 2), (2, 3), (3, 4)]:
            g = rng.random((200, num_users, num_relays))
            chosen, eff = maxmin_assign_batch(g)
            ranks = global_ranks(g, eff)
            nchosen, neff = naive_assign_batch(g)
            nranks = global_ranks(g, neff)
            for i in range(200):
                a = maxmin_assign(g[i])
                assert tuple(chosen[i]) == a.relay_for_user
                assert tuple(ranks[i]) == a.global_rank
                np.testing.assert_allclose(eff[i], a.effective_snr)
                b = naive_assign(g[i])
                assert tuple(nchosen[i]) == b.relay_for_user
                assert tuple(nranks[i]) == b.global_rank


class TestRankPlacement:
    def test_single_user_always_top_rank(self):
        d = rank_placement_probs(1, 4, "maxmin")
        assert d.probs[0] == 1.0
        assert d.probs[1:].sum() == 0.0

    def test_square_two_by_two_worst_case(self):
        d = rank_placement_probs(2, 2, "maxmin")
        # 24 rank permutations split the three reachable ranks evenly
        assert d.probs[2] == 1 / 3
        np.testing.assert_allclose(d.probs[:3], [1 / 3, 1 / 3, 1 / 3])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_two_by_three_matches_product_formula(self):
        d = rank_placement_probs(2, 3, "maxmin")
        assert d.probs[d.worst_rank - 1] == worst_case_rank_prob(2, 3)
        assert d.probs[d.worst_rank:].sum() == 0.0

    def test_per_user_symmetry_exact(self):
        for shape in [(2, 3), (3, 3)]:
            d = rank_placement_probs(*shape, "maxmin")
            for u in range(1, shape[0]):
                assert np.array_equal(d.per_user[0], d.per_user[u])

    def test_probabilities_sum_to_one(self):
        for scheme in ("maxmin", "naive", "random"):
            d = rank_placement_probs(2, 3, scheme)
            assert d.per_user.sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_naive_user_order_bias(self):
        d = rank_placement_probs(2, 3, "naive")
        # user 0 grabs the global best half the time; user 1 never sees it
        # unless it sits in their own row and survives, so user 0's top-rank
        # mass must strictly exceed user 1's
        assert d.per_user[0, 0] > d.per_user[1, 0]

    def test_monte_carlo_agrees_with_exact(self, monkeypatch):
        exact = rank_placement_probs(2, 3, "maxmin")
        monkeypatch.setattr(selection, "EXACT_MAXMIN_LIMIT", 0)
        mc = rank_placement_probs(2, 3, "maxmin", trials=200_000, rng=21)
        assert mc.method == "monte-carlo"
        assert np.max(np.abs(mc.probs - exact.probs)) < 0.005
        assert mc.per_user.sum() == pytest.approx(2.0, abs=1e-9)

    def test_monte_carlo_deterministic_for_seed(self, monkeypatch):
        monkeypatch.setattr(selection, "EXACT_MAXMIN_LIMIT", 0)
        a = rank_placement_probs(3, 4, "maxmin", trials=50_000, rng=5)
        b = rank_placement_probs(3, 4, "maxmin", trials=50_000, rng=5)
        assert a.trials == 50_000
        assert np.array_equal(a.per_user, b.per_user)

    def test_one_user_exact_at_every_width(self):
        # the one user's max-min pick is its largest entry: rank 1, where
        # 1x25 and wider sampled 1e6 matrices
        for num_relays in (1, 24, 30):
            d = rank_placement_probs(1, num_relays, "maxmin", trials=1000, rng=3)
            assert d.trials == 0
            assert d.probs.tolist() == [1.0] + [0.0] * (num_relays - 1)

    def test_enumeration_size_guard(self):
        # 5x5 is the first max-min shape beyond the exact limit, so it
        # falls back to Monte Carlo on the given trials; naive is exact
        # at every shape
        assert 5 * 5 > EXACT_MAXMIN_LIMIT
        d = rank_placement_probs(5, 5, "maxmin", trials=1000, rng=3)
        assert (d.method, d.trials) == ("monte-carlo", 1000)
        assert d.per_user.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
        d = rank_placement_probs(3, 4, "naive")
        assert (d.method, d.trials) == ("exact-closed-form", 0)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)], ids=shape_id)
    def test_unknown_scheme_refused_by_name(self, shape):
        with pytest.raises(ValueError, match="unknown scheme 'greedy'"):
            rank_placement_probs(*shape, "greedy")

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)], ids=shape_id)
    def test_probs_is_the_common_row(self, shape):
        # the mean of the equal max-min rows rounds differently in the
        # last bit at these shapes
        d = rank_placement_probs(*shape, "maxmin")
        assert d.probs.tobytes() == d.per_user[0].tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 8)], ids=["3x4", "2x8"])
    def test_random_exact_beyond_enumeration(self, shape):
        # the random pick ignores the values, so its rank is uniform
        d = rank_placement_probs(*shape, "random")
        mn = shape[0] * shape[1]
        assert (d.method, d.trials) == ("exact-closed-form", 0)
        assert d.per_user.shape == (shape[0], mn)
        assert np.all(d.per_user == 1.0 / mn)

    def test_invalid_trials(self):
        with pytest.raises(ValueError, match="trials"):
            rank_placement_probs(5, 5, "maxmin", trials=0)


class TestExactMaxminPk:
    """The set recursion against enumeration of every rank order (float
    rows bit for bit), enumeration of fixing prefixes (integer counts)
    and Monte Carlo beyond both."""

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
    def test_bit_identical_to_full_enumeration(self, shape):
        d = rank_placement_probs(*shape, "maxmin")
        want = enumerate_rank_counts(*shape) / float(math.factorial(shape[0] * shape[1]))
        assert d.trials == 0
        np.testing.assert_array_equal(d.per_user, want)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 8)], ids=shape_id)
    def test_equals_prefix_leaf_enumeration(self, shape):
        counts = _maxmin_rank_counts(*shape)
        assert counts == prefix_leaf_rank_counts(*shape)
        total = shape[0] * math.factorial(shape[0] * shape[1])
        d = rank_placement_probs(*shape, "maxmin")
        assert d.per_user[0].tolist() == [float(Fraction(c, total)) for c in counts]

    @pytest.mark.parametrize("shape", [(3, 5), (4, 4)], ids=shape_id)
    def test_within_monte_carlo(self, monkeypatch, shape):
        exact = rank_placement_probs(*shape, "maxmin")
        monkeypatch.setattr(selection, "EXACT_MAXMIN_LIMIT", 0)
        mc = rank_placement_probs(*shape, "maxmin", trials=200_000, rng=sum(shape))
        # binomial sigma at the exact value, which is 0 where no rank is
        # reachable; at most one user takes each rank, so it is conservative
        p = exact.probs
        sigma = np.sqrt(p * (1 - p) / (mc.trials * shape[0]))
        assert np.all(np.abs(mc.probs - p) <= 5 * sigma)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4), (3, 5), (4, 4), (2, 8), (4, 5)],
                             ids=shape_id)
    def test_rows_equal_normalised_and_bounded(self, shape):
        num_users, num_relays = shape
        counts = _maxmin_rank_counts(*shape)
        assert sum(counts) == num_users * math.factorial(num_users * num_relays)
        worst = (num_users - 1) * num_relays + 1
        assert counts[worst - 1] > 0 and not any(counts[worst:])
        d = rank_placement_probs(*shape, "maxmin")
        assert np.all(d.per_user == d.per_user[0])
        assert d.per_user[0, worst - 1] == pytest.approx(
            worst_case_rank_prob(*shape), rel=1e-12)


class TestNaiveClosedFormPk:
    """The naive closed form against enumeration of every rank order
    (float rows bit for bit), against the distribution of the largest of
    a user's free entries, and against Monte Carlo."""

    @pytest.mark.parametrize("shape", [(m, n) for m in range(1, 4)
                                       for n in range(m, 11) if m * n <= 10],
                             ids=shape_id)
    def test_bit_identical_to_full_enumeration(self, shape):
        d = rank_placement_probs(*shape, "naive")
        counts = enumerate_rank_counts(*shape, batch=naive_assign_batch)
        want = counts / float(math.factorial(shape[0] * shape[1]))
        assert (d.method, d.trials) == ("exact-closed-form", 0)
        np.testing.assert_array_equal(d.per_user, want)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 8)], ids=shape_id)
    @pytest.mark.parametrize("cdf", [1e-3, 0.3, 0.99])
    def test_mixture_is_largest_free_entry(self, shape, cdf):
        # user u's entry is the largest of its N - u free entries, so its
        # outage is F**(N - u)
        num_users, num_relays = shape
        d = rank_placement_probs(*shape, "naive")
        for u, row in enumerate(d.per_user):
            assert outage_from_cdf(cdf, *shape, row) == pytest.approx(
                cdf ** (num_relays - u), rel=1e-10)

    def test_within_monte_carlo(self):
        shape, trials = (3, 4), 200_000
        mn = shape[0] * shape[1]
        rng = np.random.default_rng(34)
        counts = np.zeros((shape[0], mn), dtype=np.int64)
        for lo in range(0, trials, 1 << 16):
            g = rng.random((min(1 << 16, trials - lo), *shape))
            ranks = global_ranks(g, naive_assign_batch(g)[1])
            for u in range(shape[0]):
                counts[u] += np.bincount(ranks[:, u] - 1, minlength=mn)
        p = rank_placement_probs(*shape, "naive").per_user
        sigma = np.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) <= 5 * sigma)
