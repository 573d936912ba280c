"""Network configuration, channel sampling and SNR-matrix construction.

All transmit powers are carried as ratios to the receiver noise power
(linear SNR-like quantities), so the absolute noise level never appears
at runtime.  Conversion from dB happens once, at the configuration
boundary (see :func:`db_to_linear`).

Both SNR-matrix builders are chains of correctly rounded steps, each
monotone in the budget levels, so a matrix is non-decreasing, bit for
bit, in every level; the Monte Carlo engine relies on that to carry a
trial that clears a threshold along a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NetworkTopology",
    "LinkBudget",
    "ChannelRealization",
    "CsiErrorModel",
    "db_to_linear",
    "sample_realization",
    "sample_estimated_realization",
    "relay_power",
    "snr_matrix",
    "snr_matrix_imperfect",
]

# entries per tile of the kernels that walk a gains-sized array in
# pieces (512 KiB of float64), so they hold no second array of its size.
# A Monte Carlo block's gains (1 MiB) are two tiles, and the tiles still
# pay in time as well: a 3x4 CSI build of one block, whose tile buffer
# is reused, took 0.58 ms, and 1.25 ms with the hop-1 SNR formed in a
# fresh block-sized temporary; a second m = 2 gamma draw, 1.6 against
# 2.3 ms (one core of a shared 2-CPU host)
_TILE = 1 << 16


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class NetworkTopology:
    """Static layout of the secondary network.

    ``num_users`` source-destination pairs communicate through
    ``num_relays`` decode-and-forward relays (no relay is shared, hence
    num_relays >= num_users).  Squared channel gains on the first hop,
    second hop and the relay-to-primary interference path are gamma
    distributed with integer shape ``nakagami_m`` and the given mean
    gains; hop distances enter through ``path_loss_exp``.
    """

    num_users: int
    num_relays: int
    nakagami_m: int = 1
    mean_gain_hop1: float = 1.0
    mean_gain_hop2: float = 1.0
    mean_gain_interf: float = 1.0
    dist_hop1: float = 1.0
    dist_hop2: float = 1.0
    dist_interf: float = 1.0
    path_loss_exp: float = 2.0

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_relays < self.num_users:
            raise ValueError(
                f"num_relays ({self.num_relays}) must be >= num_users "
                f"({self.num_users}); each user needs its own relay"
            )
        if self.nakagami_m != int(self.nakagami_m) or self.nakagami_m < 1:
            raise ValueError(
                f"nakagami_m must be an integer >= 1, got {self.nakagami_m!r}"
            )
        for name in ("mean_gain_hop1", "mean_gain_hop2", "mean_gain_interf",
                     "dist_hop1", "dist_hop2", "dist_interf"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.path_loss_exp < 0:
            raise ValueError(f"path_loss_exp must be >= 0, got {self.path_loss_exp}")

    # mean gains after distance-dependent path loss
    @property
    def eff_gain_hop1(self) -> float:
        return self.mean_gain_hop1 / self.dist_hop1 ** self.path_loss_exp

    @property
    def eff_gain_hop2(self) -> float:
        return self.mean_gain_hop2 / self.dist_hop2 ** self.path_loss_exp

    @property
    def eff_gain_interf(self) -> float:
        return self.mean_gain_interf / self.dist_interf ** self.path_loss_exp


@dataclass(frozen=True)
class LinkBudget:
    """Power levels normalised by noise power, all linear.

    ``source_snr``        fixed source transmit power / noise
    ``relay_snr_cap``     peak relay transmit power / noise
    ``interference_snr_cap``  peak tolerable interference at the primary
                          receiver / noise
    ``threshold_snr``     outage threshold
    """

    source_snr: float
    relay_snr_cap: float
    interference_snr_cap: float
    threshold_snr: float

    def __post_init__(self):
        for name in ("source_snr", "relay_snr_cap", "interference_snr_cap",
                     "threshold_snr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ChannelRealization:
    """Squared channel gains for every user-relay pair.

    Arrays have shape (..., num_users, num_relays); a leading axis holds
    independent trials when sampled in batch.
    """

    hop1: np.ndarray
    hop2: np.ndarray
    interf: np.ndarray


@dataclass(frozen=True)
class CsiErrorModel:
    """Channel-estimation error model (Rayleigh fading only).

    Estimated channels are complex Gaussian with the ``est_gain_*``
    variances and the independent estimation errors have the
    ``err_var_*`` variances; the true gain splits as est + err.
    """

    est_gain_hop1: float
    est_gain_hop2: float
    est_gain_interf: float
    err_var_hop1: float
    err_var_hop2: float
    err_var_interf: float

    def __post_init__(self):
        for name in ("est_gain_hop1", "est_gain_hop2", "est_gain_interf"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("err_var_hop1", "err_var_hop2", "err_var_interf"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_error_ratios(cls, topology: NetworkTopology,
                          ratio_hop1: float, ratio_hop2: float,
                          ratio_interf: float) -> "CsiErrorModel":
        """Split each true mean gain into estimate + error given the
        error-to-total variance ratios."""
        for name, r in (("ratio_hop1", ratio_hop1), ("ratio_hop2", ratio_hop2),
                        ("ratio_interf", ratio_interf)):
            if not 0 <= r < 1:
                raise ValueError(f"{name} must be in [0, 1), got {r}")
        return cls(
            est_gain_hop1=topology.mean_gain_hop1 * (1 - ratio_hop1),
            est_gain_hop2=topology.mean_gain_hop2 * (1 - ratio_hop2),
            est_gain_interf=topology.mean_gain_interf * (1 - ratio_interf),
            err_var_hop1=topology.mean_gain_hop1 * ratio_hop1,
            err_var_hop2=topology.mean_gain_hop2 * ratio_hop2,
            err_var_interf=topology.mean_gain_interf * ratio_interf,
        )


def _gamma_gains(rng: np.random.Generator, m: int, mean: float, shape) -> np.ndarray:
    # sum of m exponentials of mean mean/m == squared Nakagami-m amplitude;
    # avoids any rejection-sampling edge cases and is trivially verifiable.
    # Bit for bit rng.exponential(mean / m, (m,) + shape).sum(axis=0) on
    # the same stream: that scales each standard draw and adds the draws
    # one at a time, but holds all m of them.  The second and later draws
    # fill one tile of at most _TILE entries at a time, walking the
    # gains in order, so the generator gives the same stream and no
    # second gains-sized array is held
    scale = mean / m
    gains = rng.standard_exponential(size=shape)
    gains *= scale
    flat = gains.reshape(-1)  # a view: the gains are a new C-ordered array
    tile = np.empty(min(_TILE, flat.size) if m > 1 else 0)
    for _ in range(m - 1):
        for start in range(0, flat.size, _TILE):
            draw = tile[:flat.size - start]
            rng.standard_exponential(out=draw)
            draw *= scale
            flat[start:start + len(draw)] += draw
    return gains


def sample_realization(topology: NetworkTopology, rng: np.random.Generator,
                       trials: int | None = None) -> ChannelRealization:
    """Draw i.i.d. squared gains for every link; deterministic for a
    given generator state.  ``trials`` adds a leading batch axis."""
    base = (topology.num_users, topology.num_relays)
    shape = base if trials is None else (trials,) + base
    m = topology.nakagami_m
    return ChannelRealization(
        hop1=_gamma_gains(rng, m, topology.mean_gain_hop1, shape),
        hop2=_gamma_gains(rng, m, topology.mean_gain_hop2, shape),
        interf=_gamma_gains(rng, m, topology.mean_gain_interf, shape),
    )


def _estimated(topology: NetworkTopology, err: CsiErrorModel) -> NetworkTopology:
    """The topology with ``err``'s estimate gains as mean gains (Rayleigh
    only), all that imperfect-CSI statistics need beside the errors."""
    if topology.nakagami_m != 1:
        raise ValueError("imperfect-CSI model requires nakagami_m == 1")
    return replace(topology, mean_gain_hop1=err.est_gain_hop1,
                   mean_gain_hop2=err.est_gain_hop2,
                   mean_gain_interf=err.est_gain_interf)


def sample_estimated_realization(topology: NetworkTopology, err: CsiErrorModel,
                                 rng: np.random.Generator,
                                 trials: int | None = None) -> ChannelRealization:
    """Draw squared gains of the *estimated* channels (Rayleigh only),
    :func:`sample_realization` on the estimate gains (:func:`_estimated`)."""
    return sample_realization(_estimated(topology, err), rng, trials)


def _checked_interference(f_gain) -> np.ndarray:
    """The interference gains as a float array, checked once for every
    build on them: a negative or NaN gain raises ``ValueError``, and a
    -0.0 becomes +0.0 (in a copy), so every zero gain divides to +inf."""
    f = np.asarray(f_gain, dtype=float)
    low = f.min(initial=np.inf)
    if not low >= 0:  # false for NaN too, which the min propagates
        raise ValueError("interference gain must be >= 0")
    return f + 0.0 if low == 0 else f  # -0.0 + 0.0 is +0.0


def _interference_limit(f, budget: LinkBudget, topology: NetworkTopology,
                        out=None):
    """The relay power at which the interference at the primary receiver
    meets its cap, λ3·d3ᵇ/f, of gains checked by
    :func:`_checked_interference`, in ``out`` (which may be ``f``) or a
    new array: +inf at a zero gain, and wherever it overflows, where
    the cap cannot bind."""
    d3b = topology.dist_interf ** topology.path_loss_exp
    if out is None:
        out = np.empty(f.shape)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(budget.interference_snr_cap * d3b, f, out=out)


def relay_power(f_gain, budget: LinkBudget, topology: NetworkTopology):
    """Relay transmit power over noise: the peak-power cap or the level
    that meets the interference cap at the primary receiver, whichever
    binds.  A zero interference gain (+0.0 or -0.0) means the cap cannot
    bind, so the peak power is returned; a negative or NaN gain raises
    ``ValueError``."""
    out = _interference_limit(_checked_interference(f_gain), budget, topology)
    np.minimum(out, budget.relay_snr_cap, out=out)
    return float(out) if out.ndim == 0 else out


def _snr_parts(realization: ChannelRealization, topology: NetworkTopology,
               budget: LinkBudget, out=(None, None)):
    """The parts of :func:`snr_matrix` that the relay cap leaves alone:
    the hop-1 SNR λ1·h1/d1ᵇ and the interference limit λ3·d3ᵇ/f (see
    :func:`_interference_limit`), each in a new array or in its array of
    the pair ``out``.  A Monte Carlo block, which owns its gains and
    reads them no more, passes its hop-1 and interference gains; the
    steps, and so the bits, are the same."""
    f = _checked_interference(realization.interf)
    d1b = topology.dist_hop1 ** topology.path_loss_exp
    hop1_snr = np.multiply(budget.source_snr, realization.hop1, out=out[0])
    hop1_snr /= d1b
    return hop1_snr, _interference_limit(f, budget, topology, out=out[1])


def _capped_snr(hop1_snr, limit, hop2, relay_snr_cap: float,
                topology: NetworkTopology, out=None):
    """The SNR matrix from its parts at one relay cap:
    min(hop-1 SNR, min(limit, cap)·h2/d2ᵇ), in ``out`` or one new array.
    ``out`` may be ``limit``, which a Monte Carlo block passes at its
    last budget, where no later build reads the parts; never the hop-1
    SNR or ``hop2``, which a later step reads."""
    d2b = topology.dist_hop2 ** topology.path_loss_exp
    # in place in one array: a Monte Carlo block holds the parts and the
    # cap-free matrix while it builds each budget's matrix
    hop2_snr = np.minimum(limit, relay_snr_cap, out=out)
    hop2_snr *= hop2
    hop2_snr /= d2b
    # 0-d parts without out= give numpy scalars, which cannot take an
    # out= array
    return np.minimum(hop1_snr, hop2_snr,
                      out=hop2_snr if isinstance(hop2_snr, np.ndarray) else None)


def snr_matrix(realization: ChannelRealization, topology: NetworkTopology,
               budget: LinkBudget) -> np.ndarray:
    """End-to-end SNR of every user-relay pair: the smaller of the two
    decode-and-forward hop SNRs, λ1·h1/d1ᵇ and P·h2/d2ᵇ with P the relay
    power of :func:`relay_power`.  Shape matches the realization arrays,
    which it leaves unchanged.

    It is built from the parts that do not depend on the relay cap
    (:func:`_snr_parts`) and then the cap (:func:`_capped_snr`), the
    split along which a Monte Carlo block builds the parts once for a
    whole relay-cap chain; either way the steps and their bits are the
    same."""
    hop1_snr, limit = _snr_parts(realization, topology, budget)
    return _capped_snr(hop1_snr, limit, realization.hop2,
                       budget.relay_snr_cap, topology)


def _imperfect_snr(hop1, hop2, f, err: CsiErrorModel,
                   topology: NetworkTopology, budget: LinkBudget, out=None):
    """:func:`snr_matrix_imperfect` of the estimate gains, the
    interference gains ``f`` checked by :func:`_checked_interference`,
    in ``out`` or a new array.  Hop 2 is built in place in the relay
    power's array, then the hop-1 SNR is formed one tile of at most
    ``_TILE`` entries at a time and its minimum taken into that array,
    so no second array of the gains' size is held.  ``out`` may be
    ``f``, which a Monte Carlo block passes at its last budget; never
    ``hop1`` or ``hop2``."""
    d1b = topology.dist_hop1 ** topology.path_loss_exp
    d2b = topology.dist_hop2 ** topology.path_loss_exp
    hop2_snr = _interference_limit(f, budget, topology, out=out)
    np.minimum(hop2_snr, budget.relay_snr_cap, out=hop2_snr)
    np.divide(d2b, hop2_snr, out=hop2_snr)
    hop2_snr += err.err_var_hop2
    np.divide(hop2, hop2_snr, out=hop2_snr)
    noise1 = err.err_var_hop1 + d1b / budget.source_snr
    if hop2_snr.ndim == 0:  # 0-d: a numpy scalar without out=
        return np.minimum(np.divide(hop1, noise1), hop2_snr, out=out)
    # tiles of whole rows along the leading (trials) axis
    rows = max(1, _TILE // max(1, math.prod(hop2_snr.shape[1:])))
    tile = np.empty((min(rows, len(hop2_snr)),) + hop2_snr.shape[1:])
    for start in range(0, len(hop2_snr), rows):
        hop2_part = hop2_snr[start:start + rows]
        hop1_part = np.divide(hop1[start:start + rows], noise1,
                              out=tile[:len(hop2_part)])
        np.minimum(hop1_part, hop2_part, out=hop2_part)
    return hop2_snr


def snr_matrix_imperfect(estimates: ChannelRealization, err: CsiErrorModel,
                         topology: NetworkTopology,
                         budget: LinkBudget) -> np.ndarray:
    """End-to-end SNR built from estimated channels with the residual
    estimation error folded into the effective noise of each hop; the
    estimates are left unchanged.

    Each hop's SNR is h / (σ² + dᵇ/λ), with λ the source power on hop 1
    and the relay power on hop 2.  Every step of it rounds monotonically
    in λ, and λ in each budget level, so the matrix is non-decreasing,
    bit for bit, in every level, as :func:`snr_matrix` is."""
    if topology.nakagami_m != 1:
        raise ValueError("imperfect-CSI model requires nakagami_m == 1")
    return _imperfect_snr(estimates.hop1, estimates.hop2,
                          _checked_interference(estimates.interf), err,
                          topology, budget)
