"""Reference relay-selection schemes.

Independent oracles for the batched schemes in ``cogrelay.selection``:
max-min fair assignment by bottleneck binary search over bipartite
matchings, greedy assignment in user order and a uniformly random
injective map, one SNR matrix at a time; a batched max-min that
compares sorted float profiles of every injective map, which fixes the
tie-breaking of the rank-keyed batch on matrices with tied entries;
the rank-keyed batch with its larger-entry counts formed one row at a
time, its map table built at every call and an argmin over the maps;
whether some injective map clears a threshold, by checking every map; the
global ranks of a batch's selected entries; and two counts of rank
placement, by enumerating every rank order (any batched scheme) and by
enumerating the shortest reveal prefixes that fix the max-min map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cogrelay.selection import _key_words, maxmin_assign_batch


@dataclass(frozen=True)
class Assignment:
    """Result of a relay-selection scheme on one SNR matrix.

    ``relay_for_user[u]`` is the relay serving user u (injective),
    ``effective_snr[u]`` the selected end-to-end SNR and
    ``global_rank[u]`` its 1-based rank among all matrix entries
    (1 = largest).
    """

    relay_for_user: tuple[int, ...]
    effective_snr: tuple[float, ...]
    global_rank: tuple[int, ...]


def _check_shape(gamma) -> tuple[np.ndarray, int, int]:
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"SNR matrix must be 2-D, got shape {g.shape}")
    num_users, num_relays = g.shape
    if num_users > num_relays:
        raise ValueError(
            f"need at least as many relays as users, got {num_users} users "
            f"and {num_relays} relays"
        )
    return g, num_users, num_relays


def _global_ranks(g: np.ndarray, values: np.ndarray) -> tuple[int, ...]:
    flat = g.ravel()
    return tuple(int(1 + np.sum(flat > v)) for v in values)


def _has_saturating_matching(g, users, relays, threshold) -> bool:
    """Can every listed user be matched to a distinct relay using only
    edges with SNR >= threshold?  Standard augmenting-path search."""
    relay_owner: dict[int, int] = {}

    def try_assign(u, visited):
        for r in relays:
            if r in visited or g[u, r] < threshold:
                continue
            visited.add(r)
            if r not in relay_owner or try_assign(relay_owner[r], visited):
                relay_owner[r] = u
                return True
        return False

    return all(try_assign(u, set()) for u in users)


def _bottleneck_value(g, users, relays) -> float:
    """Largest threshold at which all users can still be matched."""
    values = sorted({float(g[u, r]) for u in users for r in relays})
    lo, hi = 0, len(values) - 1
    # values[lo] always feasible (full bipartite graph, M <= N)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _has_saturating_matching(g, users, relays, values[mid]):
            lo = mid
        else:
            hi = mid - 1
    return values[lo]


def maxmin_assign(gamma) -> Assignment:
    """Max-min fair assignment of relays to users.

    Repeatedly binary-searches the bottleneck threshold with a bipartite
    matching feasibility test, pins the pair attaining it, and recurses
    on the reduced problem; ties (zero-probability under continuous
    fading) are broken toward the lower user, then lower relay index.
    """
    g, num_users, _ = _check_shape(gamma)
    users = list(range(num_users))
    relays = list(range(g.shape[1]))
    chosen = [-1] * num_users
    while users:
        value = _bottleneck_value(g, users, relays)
        pinned = None
        for u in users:
            for r in relays:
                if g[u, r] != value:
                    continue
                rest_users = [x for x in users if x != u]
                rest_relays = [x for x in relays if x != r]
                if _has_saturating_matching(g, rest_users, rest_relays, value):
                    pinned = (u, r)
                    break
            if pinned:
                break
        u, r = pinned
        chosen[u] = r
        users.remove(u)
        relays.remove(r)
    values = g[np.arange(num_users), chosen]
    return Assignment(tuple(chosen), tuple(map(float, values)),
                      _global_ranks(g, values))


def naive_assign(gamma) -> Assignment:
    """Greedy assignment in fixed user order: user u takes its best
    relay among those not already taken by users 0..u-1."""
    g, num_users, num_relays = _check_shape(gamma)
    taken = np.zeros(num_relays, dtype=bool)
    chosen = []
    for u in range(num_users):
        row = np.where(taken, -np.inf, g[u])
        r = int(np.argmax(row))
        chosen.append(r)
        taken[r] = True
    values = g[np.arange(num_users), chosen]
    return Assignment(tuple(chosen), tuple(map(float, values)),
                      _global_ranks(g, values))


def random_assign(gamma, rng: np.random.Generator) -> Assignment:
    """Uniformly random injective user-to-relay map, blind to the SNRs."""
    g, num_users, num_relays = _check_shape(gamma)
    chosen = rng.permutation(num_relays)[:num_users]
    values = g[np.arange(num_users), chosen]
    return Assignment(tuple(int(r) for r in chosen), tuple(map(float, values)),
                      _global_ranks(g, values))


def global_ranks(gammas, eff) -> np.ndarray:
    """``ranks[i, u]``: 1 + the number of entries of matrix i strictly
    larger than ``eff[i, u]`` (1 = largest; tied entries share a rank)."""
    g = np.asarray(gammas, dtype=float)
    flat = g.reshape(g.shape[0], 1, -1)
    return 1 + (flat > eff[:, :, None]).sum(axis=2)


def saturated_by_maps(gammas, threshold) -> np.ndarray:
    """Per matrix, whether some injective user->relay map has every
    assigned entry above ``threshold``: every map is checked, one at a
    time."""
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    users = np.arange(num_users)
    found = np.zeros(trials, dtype=bool)
    for relays in itertools.permutations(range(num_relays), num_users):
        found |= np.all(g[:, users, relays] > threshold, axis=1)
    return found


def maxmin_assign_sorted_batch(gammas):
    """Batched max-min by enumeration: sort each injective map's assigned
    SNRs and filter the maps column by column for the lexicographically
    largest ascending profile; the first such map in table order wins.
    Returns ``(relay_for_user, effective_snr)``."""
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    table = np.array(list(itertools.permutations(range(num_relays), num_users)),
                     dtype=np.intp)
    vals = g[:, np.arange(num_users)[None, :], table]  # (trials, maps, users)
    sorted_vals = np.sort(vals, axis=2)
    alive = np.ones((trials, table.shape[0]), dtype=bool)
    for col in range(num_users):
        v = np.where(alive, sorted_vals[:, :, col], -np.inf)
        alive &= v == v.max(axis=1, keepdims=True)
    chosen = table[alive.argmax(axis=1)]
    eff = np.take_along_axis(g, chosen[:, :, None], axis=2)[:, :, 0]
    return chosen, eff


def maxmin_assign_rowwise_batch(gammas):
    """The rank-keyed max-min batch as it was first written: each
    entry's count of strictly larger entries is summed over one
    comparison per entry row, the map table and its flat entry columns
    are built at every call, the key words are summed per map and the
    first minimum is numpy's argmin.  It keys the whole stack at once,
    so it is for small stacks.  Returns ``(relay_for_user,
    effective_snr)``."""
    g = np.asarray(gammas, dtype=float)
    trials, num_users, num_relays = g.shape
    size = num_users * num_relays
    table = np.array(list(itertools.permutations(range(num_relays), num_users)),
                     dtype=np.intp)
    cols = table + num_relays * np.arange(num_users)
    entries = g.reshape(trials, size).T
    larger = np.zeros(entries.shape, dtype=np.intp)
    for row in entries:
        larger += row > entries
    key = None
    for bits_of in _key_words(num_users, num_relays)[::-1]:
        total = bits_of[larger][cols].sum(axis=1, dtype=bits_of.dtype)
        if key is not None:
            total[key != key.min(axis=0)] = np.iinfo(total.dtype).max
        key = total
    chosen = table[key.argmin(axis=0)]
    return chosen, np.take_along_axis(g, chosen[:, :, None], axis=2)[:, :, 0]


def enumerate_rank_counts(num_users: int, num_relays: int,
                          batch=maxmin_assign_batch) -> np.ndarray:
    """``counts[u, t-1]``: how many of the (MN)! rank orders put user u's
    entry under the batched scheme ``batch`` at global rank t, from every
    permutation of 1..MN."""
    size = num_users * num_relays
    counts = np.zeros((num_users, size), dtype=np.int64)
    orders = itertools.permutations(range(size))
    while block := list(itertools.islice(orders, 40320)):
        values = np.array(block, dtype=float).reshape(-1, num_users, num_relays)
        ranks = global_ranks(values, batch(values)[1])
        for u in range(num_users):
            counts[u] += np.bincount(ranks[:, u] - 1, minlength=size)
    return counts


def prefix_leaf_rank_counts(num_users: int, num_relays: int) -> list[int]:
    """Summed over users, how many of the (MN)! rank orders put a user's
    max-min entry at global rank t, from the reveal prefixes that fix it.

    Reveal cells from the largest down.  A prefix fixes the map once
    ``maxmin_assign_batch``, run with the prefix at descending values and
    every other cell at -1, selects only revealed cells: every later cell
    is smaller, so no order of them changes the pick.  Each such leaf of
    length L stands for (MN - L)! orders.  Row and column permutations
    keep the multiset of selected ranks, so the first cell is fixed at
    (0, 0) and the counts are multiplied by MN.  Prefixes are expanded
    one level at a time in chunks.
    """
    size = num_users * num_relays
    counts = [0] * size
    level = np.zeros((1, 1), dtype=np.int8)
    while len(level):
        length = level.shape[1]
        orders = size * math.factorial(size - length)
        grown = []
        for lo in range(0, len(level), 1 << 15):
            prefix = level[lo:lo + (1 << 15)]
            values = np.full((len(prefix), size), -1.0)
            values[np.arange(len(prefix))[:, None], prefix] = np.arange(length, 0, -1)
            values = values.reshape(-1, num_users, num_relays)
            _, eff = maxmin_assign_batch(values)
            ranks = global_ranks(values, eff)
            leaf = (eff > 0).all(axis=1)
            leaves = np.bincount(ranks[leaf].ravel() - 1, minlength=size)
            for t, n in enumerate(leaves.tolist()):
                counts[t] += n * orders
            open_ = prefix[~leaf]
            free = np.ones((len(open_), size), dtype=bool)
            free[np.arange(len(open_))[:, None], open_] = False
            parent, cell = np.nonzero(free)
            grown.append(np.hstack([open_[parent], cell[:, None].astype(np.int8)]))
        level = np.concatenate(grown)
    return counts
