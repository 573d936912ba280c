"""Relay-selection schemes and rank-placement statistics.

Three schemes operate on the user-by-relay SNR matrix:

* max-min fair: maximise the smallest assigned SNR, then (recursively,
  after fixing the bottleneck pair) the next smallest, and so on;
* naive: users grab their best free relay in fixed user order;
* random: a uniformly random injective user-to-relay map.

All schemes depend only on the ordering of the matrix entries, never on
their magnitudes, so the global rank a user's selected entry occupies is
distributed like the outcome of the scheme on a uniformly random rank
permutation.  :func:`rank_placement_probs` computes that per-user
distribution, choosing the method from the scheme and shape: in closed
form for ``random`` and ``naive`` at every shape and for max-min with
one user, by a recursion over sets of revealed cells for max-min while
M*N <= ``EXACT_MAXMIN_LIMIT``, and by Monte Carlo for max-min beyond.

Batched max-min counts each entry's strictly larger entries by comparing
every pair of entries, in whole-array comparisons of a group of rows
with every row, so tied entries share one count.  That is (M*N)**2
comparisons per trial: cheaper than sorting each trial at every shipped
shape (M*N <= 12), dearer from M*N of about 40.  The chosen map is the
first minimum of the summed keys, which a min over keys that carry
their map index in the low bits finds without a per-trial argmin.  What
a shape needs for that (its map table, flat entries, key words and
packed index) is built once per shape, so a call on a small stack pays
little beyond its numpy calls.

:func:`decided` tells, per matrix, whether some injective map has
every entry above a threshold (Hall's condition over the user sets),
which is whether the max-min bottleneck is above it, and whether no
entry is above a lower threshold, so that every scheme leaves every
user at or below it; the Monte Carlo engine skips the trials where
either holds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ENTRIES

__all__ = [
    "RankPlacementDistribution",
    "maxmin_assign_batch",
    "naive_assign_batch",
    "relay_maps",
    "assign_batch",
    "decided",
    "rank_placement_probs",
]

# Batched assignment enumerates every injective user->relay map; cap
# the table size so a pathological shape fails loudly instead of running
# for hours.  P(N, M) for every configuration studied here is <= 24.
_MAX_ASSIGNMENT_TABLE = 40320

# Max-min: the exact set recursion runs only up to here.  On one core of
# a shared Xeon it beats the 1e6-trial Monte Carlo pk at every shape up
# to M*N = 24 (4x6: 1.5 s against 3.3 s; 3x4: 0.007 s against 0.87 s),
# and the first shape beyond, 5x5, takes 21 s against 2.3 s.
EXACT_MAXMIN_LIMIT = 24

# Max-min keys are computed for at most this many (trial, map) pairs at
# a time, so that memory is bounded for every shape.  A Monte Carlo
# block holds 10922 trials at 3x4 (24 maps), exactly one chunk, so each
# of its stacks is assigned in one chunk (2.25 MiB traced for a whole
# block's stack, beside its 1 MiB gain arrays).
_CHUNK_ELEMENTS = 2 * ENTRIES


# ---------------------------------------------------------------------------
# schemes, vectorised across a stack of trials (used by the Monte Carlo
# engine and the rank-placement estimators)
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """What max-min assignment needs of a (users, relays) shape, built
    once per shape (:func:`_plan`)."""

    table: np.ndarray    # (maps, users): each injective map's relays
    entries: np.ndarray  # (users, maps): the flat entry each map gives a user
    words: np.ndarray    # key words, as :func:`_key_words`
    index: np.ndarray    # (maps, 1) int32: the map index :func:`_first_min` packs


@lru_cache(maxsize=None)
def _plan(num_users: int, num_relays: int) -> _Plan:
    count = math.perm(num_relays, num_users)
    if count > _MAX_ASSIGNMENT_TABLE:
        raise ValueError(
            f"batched assignment enumerates {count} injective maps for "
            f"shape ({num_users}, {num_relays}); this exceeds the cap of "
            f"{_MAX_ASSIGNMENT_TABLE}"
        )
    table = np.array(list(itertools.permutations(range(num_relays), num_users)),
                     dtype=np.intp)
    entries = np.ascontiguousarray((table + num_relays * np.arange(num_users)).T)
    return _Plan(table, entries, _key_words(num_users, num_relays),
                 np.arange(count, dtype=np.int32)[:, None])


def _effective(g: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """The entry of each trial's (users, relays) matrix that ``chosen``
    gives each user, by one fancy index whose trial and user indices
    broadcast: no (trials, users) index array is formed."""
    trials, num_users, _ = g.shape
    return g[np.arange(trials)[:, None], np.arange(num_users), chosen]


def _larger_counts(entries: np.ndarray) -> np.ndarray:
    """Per entry of entry-major ``entries`` (one row per entry, one
    column per trial), the number of entries of its trial that are
    strictly larger: 0 for the largest, shared by tied entries.  Every
    row is compared with every row, (M*N)**2 comparisons per trial, in
    whole-array comparisons of up to 8 rows at a time, so that their
    bool block is no larger than the float ``entries``; counts are
    summed in the narrowest unsigned type that holds M*N - 1."""
    size = len(entries)
    dtype = np.min_scalar_type(size - 1)
    groups = -(-size // 8)
    group = -(-size // groups)  # rows split evenly among the groups
    larger = np.empty((group, *entries.shape), dtype=bool)
    counts = None
    for lo in range(0, size, group):
        block = larger[:min(group, size - lo)]
        np.greater(entries[lo:lo + group, None], entries, out=block)
        # summed as uint8, which needs no cast when the counts are uint8
        part = np.add.reduce(block.view(np.uint8), axis=0, dtype=dtype)
        counts = part if counts is None else np.add(counts, part, out=counts)
    return counts


def _key_words(num_users: int, num_relays: int) -> np.ndarray:
    """``words[w, d]``: the key bit, inside word w (0 = least
    significant), of an entry with d strictly larger entries."""
    size = num_users * num_relays
    # At most (M-1)N entries exceed the max-min bottleneck, or they would
    # hold a better matching (Koenig), so a selected entry has d <= (M-1)N
    # and M of them sum below 2**clip.  Clipping d at ``clip`` keeps every
    # map that uses a larger d losing, and bounds the word count.
    clip = (num_users - 1) * num_relays + num_users.bit_length()
    # A map's key is at most M * 2**clip: one word of the narrowest
    # signed type that holds it (int16 at every shipped shape, int32
    # from 2x12), else int64 words of M terms below 2**width each.
    for dtype in (np.int16, np.int32):
        if num_users << clip <= np.iinfo(dtype).max:
            width = clip + 1
            break
    else:
        dtype, width = np.int64, 63 - num_users.bit_length()
    words = np.zeros((clip // width + 1, size), dtype=dtype)
    for d in range(size):
        word, shift = divmod(min(d, clip), width)
        words[word, d] = 1 << shift
    return words


def _first_min(key: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``key.argmin(axis=0)`` for a non-negative integer ``key`` with one
    row per map; ``index`` is the int32 column 0..maps-1.  numpy's argmin
    reduces such an entry-major array one column at a time, about 90 ns
    per trial at 3x4, while its min runs over whole rows.  So each key
    is shifted left by the bits of the largest map index and ORs in its
    own index, one min picks the smallest key and, among equal keys, the
    first map, and the low bits give that map back.  The packed keys are
    int32, which always holds an int16 key and holds an int32 one at
    shapes such as 2x12 and 4x5.  A key too wide for that (at 4x6 or
    2x20, say, or a word holding the type's maximum for maps that a more
    significant word ruled out) uses argmin: packing it in int64 costs
    more than argmin saves (4x5 keys packed in int64 assign a
    16384-trial stack in 19.7 ms against 15.3 ms by argmin, on one core
    of a shared Xeon)."""
    shift = (len(key) - 1).bit_length()
    # a key type whose largest value packs (int16 up to 65536 maps) needs
    # no look at the keys
    if 8 * key.itemsize - 1 + shift > 31 and int(key.max()) >> (31 - shift):
        return key.argmin(axis=0)
    packed = key.astype(np.int32)
    packed <<= shift
    packed |= index
    return packed.min(axis=0) & ((1 << shift) - 1)


def maxmin_assign_batch(gammas: np.ndarray):
    """Vectorised max-min fair assignment for a stack of SNR matrices.

    Keeps, per matrix, the injective map whose ascending profile of
    assigned SNRs is lexicographically largest: the bottleneck is
    maximised, then the next smallest SNR, and so on; among equal
    profiles the first map in table order wins.

    The profile depends only on the rank order of the entries.  An entry
    with d strictly larger entries gets the key bit ``1 << d`` (tied
    entries share it, and the d gap below the next smaller value leaves
    room for their multiplicity), so the best map is the first minimum
    of its summed key bits, and equal sums mean equal profiles.  Keys are
    held in the narrowest integer type that holds a map's sum; keys too
    wide for one int64 are split into words compared most significant
    first.  Trials are processed in chunks of at most ``_CHUNK_ELEMENTS``
    map keys, so memory is bounded for every shape.  Each chunk is
    transposed to one row per entry: d is counted by comparing groups
    of rows with every row, the keys are summed from whole rows, and the
    first minimum is found by a min over whole rows of keys packed with
    their map index (see :func:`_first_min`).  The map table, its flat
    entries, the key words and the packed index are built once per
    shape (:func:`_plan`).

    Returns ``(relay_for_user, effective_snr)`` arrays of shape
    (trials, num_users).
    """
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    size = num_users * num_relays
    table, entries, key_words, index = _plan(num_users, num_relays)
    chunk = max(1, _CHUNK_ELEMENTS // max(len(table), size))
    chosen = np.empty((trials, num_users), dtype=np.intp)
    for lo in range(0, trials, chunk):
        flat = g[lo:lo + chunk].reshape(-1, size)
        larger = _larger_counts(np.ascontiguousarray(flat.T))
        key = None
        for bits_of in key_words[::-1]:
            bits = bits_of.take(larger)
            total = bits.take(entries[0], axis=0)
            for u in range(1, num_users):
                total += bits.take(entries[u], axis=0)
            if key is not None:
                total[key != key.min(axis=0)] = np.iinfo(total.dtype).max
            key = total
        table.take(_first_min(key, index), axis=0, out=chosen[lo:lo + chunk])
    return chosen, _effective(g, chosen)


def naive_assign_batch(gammas: np.ndarray):
    """Vectorised greedy assignment in fixed user order: user u takes its
    best relay among those not already taken by users 0..u-1, which one
    (trials, relays) mask marks."""
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    taken = np.zeros((trials, num_relays), dtype=bool)
    chosen = np.empty((trials, num_users), dtype=np.intp)
    rows = np.arange(trials)
    for u in range(num_users):
        chosen[:, u] = np.where(taken, -np.inf, g[:, u, :]).argmax(axis=1)
        taken[rows, chosen[:, u]] = True
    return chosen, _effective(g, chosen)


def relay_maps(scheme: str, rng: np.random.Generator, shape):
    """Under ``random``, a uniform injective relay map for each trial of a
    (trials, users, relays) ``shape``, in the narrowest int type; else None."""
    if scheme != "random":
        return None
    trials, num_users, num_relays = shape
    order = np.argsort(rng.random((trials, num_relays)), axis=1)
    return order[:, :num_users].astype(np.min_scalar_type(num_relays - 1))


def assign_batch(scheme: str, gammas: np.ndarray, maps: np.ndarray | None = None):
    """Dispatch a batched scheme by name ('maxmin', 'naive', 'random');
    returns ``(relay_for_user, effective_snr)``.  ``random`` takes each
    trial's relay map from ``maps`` (:func:`relay_maps`)."""
    if scheme == "maxmin":
        return maxmin_assign_batch(gammas)
    if scheme == "naive":
        return naive_assign_batch(gammas)
    if scheme == "random":
        if maps is None:
            raise ValueError("random scheme needs the relay maps of its trials")
        return maps, _effective(np.asarray(gammas, dtype=float), maps)
    raise ValueError(f"unknown scheme {scheme!r}")


def _hall(above, served, union, first: int, size: int):
    """Clear ``served`` where a set of users fails Hall's condition: each
    set that adds a user from ``first`` on to the set of ``size`` users
    whose relays are ``union`` (None for the empty set), and, depth first,
    each set that extends it."""
    for u in range(first, len(above)):
        joined = above[u] if union is None else union | above[u]
        met = joined.sum(axis=0, dtype=np.min_scalar_type(len(joined)))
        np.logical_and(served, met > size, out=served)
        _hall(above, served, joined, u + 1, size + 1)


def _above(g: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each entry of a (trials, users, relays) stack is above
    ``threshold``, transposed to (users, relays, trials): one row of
    trials per entry, so each test on it runs over whole rows."""
    trials, num_users, num_relays = g.shape
    return np.ascontiguousarray(
        (g > threshold).reshape(trials, num_users * num_relays).T
    ).reshape(num_users, num_relays, trials)


def decided(gammas: np.ndarray, low: float, high: float | None = None):
    """Per matrix of a stack, ``(doomed, served)``.  A matrix is doomed
    when no entry is above ``low``: whatever injective map a scheme
    picks, every user's entry is at or below ``low``.  It is served (None
    without ``high``) when some injective user->relay map gives every
    user an entry above ``high``, as the max-min bottleneck then is.

    Such a map exists iff every set X of users has entries above the
    threshold in at least |X| relays (Hall's theorem).  The 2**M - 1 sets
    are visited depth first, each as the union of its parent set's relays
    and one more user's, so memory holds at most M unions whatever the
    number of maps.  Entries are compared once per threshold
    (:func:`_above`), so each union and count runs over whole rows of
    trials; at ``high == low`` one comparison serves both tests."""
    g = np.asarray(gammas, dtype=float)
    above = _above(g, low)
    doomed = ~above.any(axis=(0, 1))
    if high is None:
        return doomed, None
    if high != low:
        above = _above(g, high)
    served = np.ones(len(g), dtype=bool)
    _hall(above, served, None, 0, 0)
    return doomed, served


# ---------------------------------------------------------------------------
# rank-placement distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RankPlacementDistribution:
    """Probability that a user's selected SNR is the k-th largest entry.

    ``per_user[u, k-1]`` is the probability for user u; ``probs`` is the
    user average, and the first row itself when every row equals it (as
    under exact max-min, whose support never extends past rank
    (M-1)N + 1, and ``random``).  ``trials`` is 0 for an exact
    distribution (``method`` names how it was computed) and the sample
    count for a Monte Carlo one.
    """

    num_users: int
    num_relays: int
    method: str
    trials: int
    per_user: np.ndarray = field(repr=False)

    @property
    def probs(self) -> np.ndarray:
        # the mean of equal rows can differ from them in the last bit
        if np.all(self.per_user == self.per_user[0]):
            return self.per_user[0]
        return self.per_user.mean(axis=0)

    @property
    def worst_rank(self) -> int:
        return (self.num_users - 1) * self.num_relays + 1


# Exact max-min rank placement.  Reveal the cells of a matrix in uniform
# random order from the largest down.  The bottleneck is the first cell c
# whose arrival lets the revealed set P + c hold a matching that
# saturates every user; the rest of the map is max-min on the matrix
# without c's row and column, using only the cells of P.  No subset of a
# non-saturating P saturates, so the event "P comes first, then c" says
# nothing about the order inside P: a stage's state is the remaining
# rows and columns, the revealed cells T inside them and the number d of
# revealed cells outside them, all in uniform order.  With s = |T| + d,
# a bottleneck c after P (in T) and j of the outside cells has global
# rank t = |P| + j + 1 and probability C(d,j)(t-1)!(s-t)!/s!; the next
# state keeps the cells of P inside the smaller matrix and counts the
# rest of the t - 1 as outside.  A state is stored as the sorted row-bit
# patterns of its columns (a cell of row u in a column sets bit u), taken
# up to row and column permutations, with its weight as a count of the
# (MN)! orders.

def _hall_fields(rows: int, columns: int):
    """Hall's condition for all row sets X at once, packed in one int.

    ``hits[p]`` adds 1 to the field of every X that a column of pattern
    p meets, and ``base`` puts 2**(w-1) - |X| in the field of X, so a
    column multiset saturates the rows iff base + sum(hits) has the top
    bit ``top`` of every field set: every X meets at least |X| columns.
    """
    width = (columns + 1).bit_length() + 1
    sets = range(1, 1 << rows)
    hits = [sum(1 << (width * x) for x in sets if p & x) for p in range(1 << rows)]
    base = sum(((1 << (width - 1)) - x.bit_count()) << (width * x) for x in sets)
    top = sum(1 << (width * x + width - 1) for x in sets)
    return hits, base, top


@lru_cache(maxsize=None)
def _relabellings(rows: int) -> list[list[int]]:
    """Each row permutation as a map of column patterns."""
    return [[sum(1 << perm[u] for u in range(rows) if p >> u & 1)
             for p in range(1 << rows)]
            for perm in itertools.permutations(range(rows))]


def _next_state(prefix: tuple[int, ...], kept: int, u: int, rows: int):
    """The revealed cells left when the bottleneck takes row u and a
    column whose cells in P are ``kept``: canonical column patterns
    (least sorted tuple over row permutations) and their cell count."""
    rest = list(prefix)
    rest.remove(kept)
    low = (1 << u) - 1
    sub = [(q & low) | ((q >> (u + 1)) << u) for q in rest]
    sub = [q for q in sub if q]
    canonical = min(tuple(sorted(relabel[q] for q in sub))
                    for relabel in _relabellings(rows - 1))
    return canonical, sum(q.bit_count() for q in sub)


def _subsets(columns):
    """Every way to keep a subset of each column's cells: a list of
    (column, kept, copies) and the number of cell sets it stands for.
    Equal columns keep a multiset of subsets, counted by its multinomial."""
    groups = []
    for column, copies in Counter(columns).items():
        subs = [s for s in range(column + 1) if s & column == s]
        group = []
        for combo in itertools.combinations_with_replacement(subs, copies):
            kept = Counter(combo)
            ways = math.factorial(copies)
            for k in kept.values():
                ways //= math.factorial(k)
            group.append(([(column, s, k) for s, k in kept.items()], ways))
        groups.append(group)
    for picks in itertools.product(*groups):
        yield [col for part, _ in picks for col in part], math.prod(w for _, w in picks)


def _stage(columns, rows: int, hall, after: dict) -> Counter:
    """Bottleneck choices from the revealed cells ``columns``: (next
    state, |P|, |P inside the next state|) -> number of (P, c) with P
    non-saturating and P + c saturating.  ``after`` caches next states."""
    hits, base, top = hall
    out = Counter()
    for kept, ways in _subsets(columns):
        met = base + sum(k * hits[s] for _, s, k in kept)
        if met & top == top:
            continue
        closing = [(s, u, k) for column, s, k in kept for u in range(rows)
                   if (column ^ s) >> u & 1
                   and (met - hits[s] + hits[s | 1 << u]) & top == top]
        if not closing:
            continue
        before = sum(k * s.bit_count() for _, s, k in kept)
        prefix = tuple(sorted(s for _, s, k in kept for _ in range(k)))
        for s, u, k in closing:
            key = (prefix, s, u)
            if key not in after:
                after[key] = _next_state(prefix, s, u, rows)
            nxt, inside = after[key]
            out[nxt, before, inside] += ways * k
    return out


def _maxmin_rank_counts(num_users: int, num_relays: int) -> list[int]:
    """Over all (MN)! rank orders and all users, how often a user's
    max-min entry has global rank t, for t = 1..MN (exact integers)."""
    size = num_users * num_relays
    fact = [math.factorial(i) for i in range(size + 1)]
    counts = [0] * size
    states = {(((1 << num_users) - 1,) * num_relays, 0): fact[size]}
    for rows in range(num_users, 0, -1):
        hall, after = _hall_fields(rows, num_relays), {}
        following = defaultdict(int)
        for (columns, outside), orders in states.items():
            revealed = outside + sum(c.bit_count() for c in columns)
            # every order of the revealed cells is equally likely, so
            # the count divides exactly
            per_order = orders // fact[revealed]
            for (nxt, before, inside), ways in _stage(columns, rows, hall, after).items():
                # j of the outside cells come before the bottleneck
                for j in range(outside + 1):
                    rank = before + j + 1
                    weight = (per_order * ways * math.comb(outside, j)
                              * fact[rank - 1] * fact[revealed - rank])
                    counts[rank - 1] += weight
                    if rows > 1:
                        following[nxt, rank - 1 - inside] += weight
        states = following
    return counts


def _naive_rank_row(num_users: int, num_relays: int, user: int) -> list[float]:
    """Naive rank placement of ``user``: the users before it pick from
    their own rows, so its entry is the largest of its n = N - user free
    entries and independent of the L = MN - n others, which are i.i.d.
    Its rank k has probability n C(L, k-1) (k-1)! (MN-k)! / (MN)!, zero
    for k > L + 1."""
    size = num_users * num_relays
    free = num_relays - user
    others = size - free
    total = math.factorial(size)
    return [free * math.comb(others, k - 1) * math.factorial(k - 1)
            * math.factorial(size - k) / total for k in range(1, size + 1)]


def rank_placement_probs(num_users: int, num_relays: int, scheme: str = "maxmin",
                         trials: int = 0,
                         rng: np.random.Generator | int | None = None,
                         ) -> RankPlacementDistribution:
    """Rank-placement distribution of a scheme, per user.

    The method follows from the scheme and shape.  ``random`` and
    ``naive`` are exact in closed form at every shape (the random rank
    is uniform on 1..M*N; see :func:`_naive_rank_row` for naive).
    ``maxmin`` with one user takes rank 1 at every N; with more it is
    exact while M*N <= ``EXACT_MAXMIN_LIMIT``, counting rank orders in
    Python integers by a recursion over sets of revealed cells, and
    beyond that it samples ``trials`` i.i.d. matrices from ``rng``, in
    blocks of ``ENTRIES`` entries drawn in turn from its one stream, so
    the counts do not depend on the block size.  All of them work on
    rank patterns only, which is exact because every scheme here is
    invariant to monotone transformations of the entries.
    """
    if num_users < 1 or num_relays < num_users:
        raise ValueError("need num_relays >= num_users >= 1")
    if scheme not in ("maxmin", "naive", "random"):
        raise ValueError(f"unknown scheme {scheme!r}")
    mn = num_users * num_relays

    def exact(method, rows):
        return RankPlacementDistribution(num_users, num_relays, method, 0,
                                         np.array(rows, dtype=float))

    if scheme == "random":
        # the pick is independent of the values, so the chosen entry is
        # a fixed i.i.d. entry: its rank is uniform on 1..mn
        return exact("exact-closed-form", np.full((num_users, mn), 1.0 / mn))
    if scheme == "naive":
        return exact("exact-closed-form", [_naive_rank_row(num_users, num_relays, u)
                                           for u in range(num_users)])
    if num_users == 1:
        # the one user takes its largest entry, the largest of all
        return exact("exact-closed-form", [[1.0] + [0.0] * (mn - 1)])
    if mn <= EXACT_MAXMIN_LIMIT:
        # users are exchangeable, so every row is the user average
        total = num_users * math.factorial(mn)
        row = [count / total for count in _maxmin_rank_counts(num_users, num_relays)]
        return exact("exact-recursion", [row] * num_users)

    if trials < 1:
        raise ValueError(f"monte-carlo max-min rank placement for M*N = {mn} "
                         f"(above {EXACT_MAXMIN_LIMIT}) needs trials >= 1, "
                         f"got {trials}")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    counts = np.zeros((num_users, mn), dtype=np.int64)
    size = max(1, ENTRIES // mn)
    for start in range(0, trials, size):
        block = min(size, trials - start)
        values = rng.random((block, num_users, num_relays))
        _, eff = assign_batch(scheme, values)
        flat = values.reshape(block, mn)
        for u in range(num_users):
            # rank - 1: the number of entries strictly larger
            counts[u] += np.bincount((flat > eff[:, u, None]).sum(axis=1),
                                     minlength=mn)
    return RankPlacementDistribution(num_users, num_relays, "monte-carlo", trials,
                                     counts / float(trials))
