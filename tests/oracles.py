"""Test-side helpers and oracles that the package itself does not need:
link budgets given in dB, the compact Rayleigh link CDF, and a Monte
Carlo estimate of the single-link CDF."""

import math

import numpy as np

from cogrelay import model
from cogrelay.model import LinkBudget, NetworkTopology, db_to_linear
from cogrelay.montecarlo import (
    McEstimate,
    _block_rng,
    _blocks,
    _check_trials,
    wilson_interval,
)


def budget_db(l1, l2, l3, gth=5.0):
    """Source power, relay cap, interference cap and threshold in dB."""
    return LinkBudget(db_to_linear(l1), db_to_linear(l2), db_to_linear(l3),
                      db_to_linear(gth))


def cdf_min_snr_rayleigh(x: float, topology: NetworkTopology,
                         budget: LinkBudget) -> float:
    """Rayleigh-fading single-link CDF in the compact form
    1 - e^(-a x) (b + c/(x + d)); equal to ``cdf_min_snr`` with shape 1."""
    if topology.nakagami_m != 1:
        raise ValueError("compact Rayleigh CDF requires nakagami_m == 1")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0.0
    o1, o2, o3 = (topology.eff_gain_hop1, topology.eff_gain_hop2,
                  topology.eff_gain_interf)
    l1, l2, l3 = (budget.source_snr, budget.relay_snr_cap,
                  budget.interference_snr_cap)
    a = 1.0 / (o1 * l1) + 1.0 / (o2 * l2)
    b = 1.0 - math.exp(-l3 / (o3 * l2))
    d = o2 * l3 / o3
    c = d * (1.0 - b)
    return 1.0 - math.exp(-a * x) * (b + c / (x + d))


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
