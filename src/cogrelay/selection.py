"""Relay-selection schemes and rank-placement statistics.

Three schemes operate on the user-by-relay SNR matrix:

* max-min fair: maximise the smallest assigned SNR, then (recursively,
  after fixing the bottleneck pair) the next smallest, and so on;
* naive: users grab their best free relay in fixed user order;
* random: a uniformly random injective user-to-relay map.

All schemes depend only on the ordering of the matrix entries, never on
their magnitudes, so the global rank a user's selected entry occupies is
distributed like the outcome of the scheme on a uniformly random rank
permutation.  :func:`rank_placement_probs` exploits this to compute the
per-user rank-placement distribution exactly (by enumerating all
permutations) or by Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "RankPlacementDistribution",
    "maxmin_assign_batch",
    "naive_assign_batch",
    "random_assign_batch",
    "assign_batch",
    "rank_placement_probs",
]

# Batched assignment enumerates every injective user->relay map; cap
# the table size so a pathological shape fails loudly instead of running
# for hours.  P(N, M) for every configuration studied here is <= 24.
_MAX_ASSIGNMENT_TABLE = 40320

EXACT_ENUM_LIMIT = 10  # enumerate (M*N)! rank permutations only up to here

# Max-min keys are computed for at most this many (trial, map) pairs at
# a time (10922 trials at 3x4, 24 maps), so that assigning adds little
# to a Monte Carlo block's channel draws, which stay held across budgets.
_CHUNK_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# schemes, vectorised across a stack of trials (used by the Monte Carlo
# engine and the rank-placement estimators)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _assignment_table(num_users: int, num_relays: int) -> np.ndarray:
    count = math.perm(num_relays, num_users)
    if count > _MAX_ASSIGNMENT_TABLE:
        raise ValueError(
            f"batched assignment enumerates {count} injective maps for "
            f"shape ({num_users}, {num_relays}); this exceeds the cap of "
            f"{_MAX_ASSIGNMENT_TABLE}"
        )
    return np.array(list(itertools.permutations(range(num_relays), num_users)),
                    dtype=np.intp)


def _effective_and_ranks(g: np.ndarray, chosen: np.ndarray):
    trials, num_users, num_relays = g.shape
    eff = np.take_along_axis(g, chosen[:, :, None], axis=2)[:, :, 0]
    flat = g.reshape(trials, 1, num_users * num_relays)
    ranks = 1 + (flat > eff[:, :, None]).sum(axis=2)
    return eff, ranks


def _larger_counts(flat: np.ndarray) -> np.ndarray:
    """Per entry of each row, the number of entries of that row that are
    strictly larger: 0 for the largest, shared by tied entries."""
    order = np.argsort(-flat, axis=1)
    ordered = np.take_along_axis(flat, order, axis=1)
    group_start = np.empty(ordered.shape, dtype=bool)
    group_start[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=group_start[:, 1:])
    first = np.where(group_start, np.arange(flat.shape[1]), 0)
    counts = np.empty_like(order)
    np.put_along_axis(counts, order, np.maximum.accumulate(first, axis=1), axis=1)
    return counts


@lru_cache(maxsize=None)
def _key_words(num_users: int, num_relays: int) -> np.ndarray:
    """``words[w, d]``: the key bit, inside int64 word w (0 = least
    significant), of an entry with d strictly larger entries."""
    size = num_users * num_relays
    # Each word holds M terms below 2**width, so sums stay below 2**63.
    width = 63 - num_users.bit_length()
    # At most (M-1)N entries exceed the max-min bottleneck, or they would
    # hold a better matching (Koenig), so a selected entry has d <= (M-1)N
    # and M of them sum below 2**clip.  Clipping d at ``clip`` keeps every
    # map that uses a larger d losing, and bounds the word count.
    clip = (num_users - 1) * num_relays + num_users.bit_length()
    words = np.zeros((clip // width + 1, size), dtype=np.int64)
    for d in range(size):
        word, shift = divmod(min(d, clip), width)
        words[word, d] = 1 << shift
    return words


def maxmin_assign_batch(gammas: np.ndarray):
    """Vectorised max-min fair assignment for a stack of SNR matrices.

    Keeps, per matrix, the injective map whose ascending profile of
    assigned SNRs is lexicographically largest: the bottleneck is
    maximised, then the next smallest SNR, and so on; among equal
    profiles the first map in table order wins.

    The profile depends only on the rank order of the entries.  An entry
    with d strictly larger entries gets the key bit ``1 << d`` (tied
    entries share it, and the d gap below the next smaller value leaves
    room for their multiplicity), so the best map is the first argmin of
    its summed key bits, and equal sums mean equal profiles.  Keys too
    wide for one int64 are split into words compared most significant
    first.  Trials are processed in chunks of at most ``_CHUNK_ELEMENTS``
    map keys, so memory is bounded for every shape.

    Returns ``(relay_for_user, effective_snr, global_rank)`` arrays of
    shape (trials, num_users); ``global_rank`` is 1 + d.
    """
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    size = num_users * num_relays
    table = _assignment_table(num_users, num_relays)
    cols = table + num_relays * np.arange(num_users)  # flat entry per (map, user)
    key_words = _key_words(num_users, num_relays)
    chunk = max(1, _CHUNK_ELEMENTS // max(table.shape[0], size))
    chosen = np.empty((trials, num_users), dtype=np.intp)
    global_rank = np.empty((trials, num_users), dtype=np.intp)
    for lo in range(0, trials, chunk):
        larger = _larger_counts(g[lo:lo + chunk].reshape(-1, size))
        key = None
        for bits_of in key_words[::-1]:
            bits = bits_of.take(larger)
            total = bits.take(cols[:, 0], axis=1)
            for u in range(1, num_users):
                total += bits.take(cols[:, u], axis=1)
            if key is not None:
                total[key != key.min(axis=1, keepdims=True)] = np.iinfo(np.int64).max
            key = total
        best = key.argmin(axis=1)
        chosen[lo:lo + chunk] = table[best]
        global_rank[lo:lo + chunk] = 1 + np.take_along_axis(larger, cols[best], axis=1)
    eff = np.take_along_axis(g, chosen[:, :, None], axis=2)[:, :, 0]
    return chosen, eff, global_rank


def naive_assign_batch(gammas: np.ndarray):
    """Vectorised greedy assignment in fixed user order: user u takes its
    best relay among those not already taken by users 0..u-1."""
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    masked = g.copy()
    chosen = np.empty((trials, num_users), dtype=np.intp)
    rows = np.arange(trials)
    for u in range(num_users):
        r = masked[:, u, :].argmax(axis=1)
        chosen[:, u] = r
        masked[rows, :, r] = -np.inf
    eff, ranks = _effective_and_ranks(g, chosen)
    return chosen, eff, ranks


def random_assign_batch(gammas: np.ndarray, rng: np.random.Generator):
    """Vectorised uniform random injective assignment."""
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    chosen = np.argsort(rng.random((trials, num_relays)), axis=1)[:, :num_users]
    eff, ranks = _effective_and_ranks(g, chosen)
    return chosen, eff, ranks


def assign_batch(scheme: str, gammas: np.ndarray, rng: np.random.Generator | None = None):
    """Dispatch a batched scheme by name ('maxmin', 'naive', 'random')."""
    if scheme == "maxmin":
        return maxmin_assign_batch(gammas)
    if scheme == "naive":
        return naive_assign_batch(gammas)
    if scheme == "random":
        if rng is None:
            raise ValueError("random scheme needs a generator")
        return random_assign_batch(gammas, rng)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# rank-placement distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RankPlacementDistribution:
    """Probability that a user's selected SNR is the k-th largest entry.

    ``per_user[u, k-1]`` is the probability for user u; ``probs`` is the
    user average (identical to every row under the max-min scheme, whose
    support never extends past rank (M-1)N + 1).  ``trials`` is 0 for
    exact enumeration.
    """

    num_users: int
    num_relays: int
    scheme: str
    method: str
    trials: int
    per_user: np.ndarray = field(repr=False)

    @property
    def probs(self) -> np.ndarray:
        return self.per_user.mean(axis=0)

    @property
    def worst_rank(self) -> int:
        return (self.num_users - 1) * self.num_relays + 1

    def std_error(self) -> np.ndarray:
        """Binomial standard error of ``probs`` (zeros for exact mode)."""
        p = self.probs
        if self.trials == 0:
            return np.zeros_like(p)
        return np.sqrt(p * (1 - p) / (self.trials * self.num_users))


def _count_ranks(counts, ranks):
    num_users = counts.shape[0]
    for u in range(num_users):
        counts[u] += np.bincount(ranks[:, u] - 1, minlength=counts.shape[1])


def rank_placement_probs(num_users: int, num_relays: int, scheme: str = "maxmin",
                         method: str = "exact", trials: int = 0,
                         rng: np.random.Generator | int | None = None,
                         ) -> RankPlacementDistribution:
    """Rank-placement distribution of a scheme, per user.

    ``method='exact'`` enumerates all (M*N)! rank permutations (allowed
    only while M*N <= 10; under ``random`` the rank is uniform on 1..M*N
    at every shape); ``method='monte-carlo'`` samples ``trials``
    i.i.d. matrices instead.  Both run the scheme on rank patterns only,
    which is exact because every scheme here is invariant to monotone
    transformations of the entries.
    """
    if num_users < 1 or num_relays < num_users:
        raise ValueError("need num_relays >= num_users >= 1")
    mn = num_users * num_relays
    counts = np.zeros((num_users, mn), dtype=np.int64)

    if method == "exact":
        if scheme == "random":
            # the pick is independent of the values, so the chosen entry is
            # a fixed i.i.d. entry: its rank is uniform on 1..mn
            per_user = np.full((num_users, mn), 1.0 / mn)
            return RankPlacementDistribution(num_users, num_relays, scheme,
                                             "exact-enumeration", 0, per_user)
        if mn > EXACT_ENUM_LIMIT:
            raise ValueError(
                f"exact enumeration of {mn}! rank permutations is not "
                f"feasible (limit M*N <= {EXACT_ENUM_LIMIT}); use monte-carlo"
            )
        total = math.factorial(mn)
        chunk = 40960
        perms = itertools.permutations(range(mn))
        while True:
            block = list(itertools.islice(perms, chunk))
            if not block:
                break
            values = np.array(block, dtype=float).reshape(-1, num_users, num_relays)
            _, _, ranks = assign_batch(scheme, values)
            _count_ranks(counts, ranks)
        per_user = counts / float(total)
        return RankPlacementDistribution(num_users, num_relays, scheme,
                                         "exact-enumeration", 0, per_user)

    if method != "monte-carlo":
        raise ValueError(f"unknown method {method!r}")
    if trials < 1:
        raise ValueError(f"monte-carlo mode needs trials >= 1, got {trials}")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    done = 0
    while done < trials:
        block = min(trials - done, 1 << 16)
        values = rng.random((block, num_users, num_relays))
        _, _, ranks = assign_batch(scheme, values, rng)
        _count_ranks(counts, ranks)
        done += block
    per_user = counts / float(trials)
    return RankPlacementDistribution(num_users, num_relays, scheme,
                                     "monte-carlo", trials, per_user)
