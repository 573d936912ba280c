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
# the table size so a pathological shape fails loudly instead of eating
# memory.  P(N, M) for every configuration studied here is <= 24.
_MAX_ASSIGNMENT_TABLE = 40320

EXACT_ENUM_LIMIT = 10  # enumerate (M*N)! rank permutations only up to here


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


def maxmin_assign_batch(gammas: np.ndarray):
    """Vectorised max-min fair assignment for a stack of SNR matrices.

    Enumerates every injective map and keeps, per matrix, the one whose
    ascending profile of assigned SNRs is lexicographically largest:
    the bottleneck is maximised, then the next smallest SNR, and so on.

    Returns ``(relay_for_user, effective_snr, global_rank)`` arrays of
    shape (trials, num_users).
    """
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    table = _assignment_table(num_users, num_relays)
    vals = g[:, np.arange(num_users)[None, :], table]  # (trials, maps, users)
    sorted_vals = np.sort(vals, axis=2)
    alive = np.ones((trials, table.shape[0]), dtype=bool)
    for col in range(num_users):
        v = np.where(alive, sorted_vals[:, :, col], -np.inf)
        best = v.max(axis=1, keepdims=True)
        alive &= v == best
    chosen = table[alive.argmax(axis=1)]
    eff, ranks = _effective_and_ranks(g, chosen)
    return chosen, eff, ranks


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
    only while M*N <= 10); ``method='monte-carlo'`` samples ``trials``
    i.i.d. matrices instead.  Both run the scheme on rank patterns only,
    which is exact because every scheme here is invariant to monotone
    transformations of the entries.
    """
    if num_users < 1 or num_relays < num_users:
        raise ValueError("need num_relays >= num_users >= 1")
    mn = num_users * num_relays
    counts = np.zeros((num_users, mn), dtype=np.int64)

    if method == "exact":
        if mn > EXACT_ENUM_LIMIT:
            raise ValueError(
                f"exact enumeration of {mn}! rank permutations is not "
                f"feasible (limit M*N <= {EXACT_ENUM_LIMIT}); use monte-carlo"
            )
        if scheme == "random":
            # the pick is independent of the values, so the chosen entry is
            # a fixed i.i.d. entry: its rank is uniform on 1..mn
            per_user = np.full((num_users, mn), 1.0 / mn)
            return RankPlacementDistribution(num_users, num_relays, scheme,
                                             "exact-enumeration", 0, per_user)
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
