"""Network configuration, channel sampling and SNR-matrix construction.

All transmit powers are carried as ratios to the receiver noise power
(linear SNR-like quantities), so the absolute noise level never appears
at runtime.  Conversion from dB happens once, at the configuration
boundary (see :func:`db_to_linear`).

Every hop's SNR is h / (σ² + dᵇ/λ), λ the source power on hop 1 and the
relay power on hop 2, σ² the hop's estimation-error variance: 0 under
perfect CSI, the zero-error case bit for bit.  One builder forms it
(:func:`_snr`).  Under imperfect CSI (:class:`CsiErrorModel`, the
config's three error ratios r) each estimate keeps Ω·(1 - r) of its
link's mean gain Ω: the hop ratios act as noise, σ² = Ω·r, and
``error_ratio_f`` only lowers the estimated interference gain that sets
the relay power.  The relay power is min(λ3·d3ᵇ/f, λ2), so hop 2's noise
is the larger of d2ᵇ/(λ3·d3ᵇ/f), which the relay cap leaves alone
(:func:`_hop2_floor`), and d2ᵇ/λ2, bit for bit, since a correctly
rounded division by a positive number is monotone.  Its steps round
each monotonically in the budget levels, so a matrix is non-decreasing,
bit for bit, in every level; the Monte Carlo engine relies on that to
carry a trial that clears a threshold along a sweep.
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
    "snr_matrix",
    "snr_matrix_imperfect",
]

# The package's one memory budget, in float64 entries (1 MiB), from
# which every array that grows with the work is sized: a sampled
# rank-placement block holds as many trials as fill this many SNR entries
# (at least one), a Monte Carlo block, two of which run at once, as many
# as fill half of it, and a closed-form throughput call as many nodes as
# keep its (M*N + 1)-wide term arrays to a quarter of it.  Fixed by
# design: the block size, and so the random stream, follows the shape.
ENTRIES = 1 << 17

# Residency: each process faults its Monte Carlo working set in once.
# glibc's malloc serves an array above its mmap threshold (128 KiB at
# start) from a fresh mapping, returned to the kernel when freed, and
# raises that threshold to the size of a mapped array it frees, and the
# heap's trim threshold to twice it (mallopt(3)).  Freed early, one
# unwritten array of 2 * ENTRIES floats (2 MiB) sets them to 2 and
# 4 MiB, so every block-sized array a block frees stays in a heap that
# the next block reuses, where each block faulted a block's 2.5 MiB in
# again (11,400 minor faults per warm 3x4 CSI fig3 estimator call, 0
# with it).  It runs at import, before any block and before the Monte
# Carlo worker is forked, which inherits the thresholds; 1 MiB was not
# enough.  Other allocators ignore it, and no result depends on it.
np.empty(2 * ENTRIES)

# entries per tile of the kernels that walk a gains-sized array in
# pieces (256 KiB of float64), so they hold no second array of its size:
# a Monte Carlo block's gains are two tiles.  A reused tile buffer pays
# in time too: a 3x4 CSI build took 0.58 ms, and 1.25 ms with a fresh
# block-sized temporary (one core of a shared 2-CPU host).  The tiles
# follow the stream in order, so their size never changes a draw.
_TILE = ENTRIES // 4


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _flow(compute) -> str | None:
    """"over" where ``compute()`` overflows a float (or divides by 0),
    "under" where it is 0 or subnormal, whose reciprocal overflows."""
    try:
        result = compute()
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    return ("over" if result == math.inf else
            "under" if result == 0.0 or 1 / result == math.inf else None)


def _check_range(key: str, value: float, compute, what: str, error=ValueError):
    """Refuse ``key`` with ``error`` unless ``compute()``, its ``what``,
    is a positive float whose reciprocal is finite too: neither 0 nor
    subnormal (:func:`_flow`)."""
    flow = _flow(compute)
    if flow is not None:
        size = "large" if flow == "over" else "small"
        raise error(f"{key}={value} is too {size}: its {what} "
                    f"{flow}flows a float")


@dataclass(frozen=True)
class NetworkTopology:
    """Static layout of the secondary network, under the config's keys.

    ``num_users`` source-destination pairs communicate through
    ``num_relays`` decode-and-forward relays (no relay is shared, hence
    num_relays >= num_users).  Squared channel gains on the first hop,
    second hop and the relay-to-primary interference path are gamma
    distributed with integer shape ``nakagami_m`` and mean gains
    ``omega_h1``, ``omega_h2`` and ``omega_f``; the hop distances ``d1``
    to ``d3`` enter through ``path_loss_exp``.  A refusal names the key.
    """

    num_users: int
    num_relays: int
    nakagami_m: int
    omega_h1: float = 1.0
    omega_h2: float = 1.0
    omega_f: float = 1.0
    d1: float = 1.0
    d2: float = 1.0
    d3: float = 1.0
    path_loss_exp: float = 2.0

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_relays < self.num_users:
            raise ValueError(
                f"num_relays must be >= num_users, got num_relays="
                f"{self.num_relays} and num_users={self.num_users}")
        if self.nakagami_m != int(self.nakagami_m) or self.nakagami_m < 1:
            raise ValueError(
                f"nakagami_m must be an integer >= 1, got {self.nakagami_m!r}"
            )
        for name in ("omega_h1", "omega_h2", "omega_f", "d1", "d2", "d3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.path_loss_exp >= 0:
            raise ValueError(f"path_loss_exp must be >= 0, got {self.path_loss_exp}")
        # each path loss and effective gain, and its reciprocal, is a finite float
        for dist_key, gain_key in (("d1", "omega_h1"), ("d2", "omega_h2"),
                                   ("d3", "omega_f")):
            dist, gain = getattr(self, dist_key), getattr(self, gain_key)
            _check_range(dist_key, dist, lambda: dist ** self.path_loss_exp,
                         f"path loss {dist_key}^path_loss_exp")
            _check_range(gain_key, gain, lambda: gain / dist ** self.path_loss_exp,
                         f"effective gain {gain_key}/{dist_key}^path_loss_exp")

    # mean gains after distance-dependent path loss
    @property
    def eff_gain_hop1(self) -> float:
        return self.omega_h1 / self.d1 ** self.path_loss_exp

    @property
    def eff_gain_hop2(self) -> float:
        return self.omega_h2 / self.d2 ** self.path_loss_exp

    @property
    def eff_gain_interf(self) -> float:
        return self.omega_f / self.d3 ** self.path_loss_exp


@dataclass(frozen=True)
class LinkBudget:
    """Power levels normalised by noise power, all linear.

    ``source_snr``        fixed source transmit power / noise
    ``relay_snr_cap``     peak relay transmit power / noise
    ``interference_snr_cap``  peak tolerable interference at the primary
                          receiver / noise
    """

    source_snr: float
    relay_snr_cap: float
    interference_snr_cap: float

    def __post_init__(self):
        for name in ("source_snr", "relay_snr_cap", "interference_snr_cap"):
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
    """Channel-estimation error model (Rayleigh fading only): the
    error-to-total variance ratio r of each channel estimate, the
    config's ``csi`` block.  An estimate's mean gain is Ω·(1 - r) of its
    link's Ω (:func:`_estimated`), and its independent error's variance
    Ω·r, which :func:`_snr` adds to its hop's noise."""

    error_ratio_h1: float
    error_ratio_h2: float
    error_ratio_f: float

    def __post_init__(self):
        for name in ("error_ratio_h1", "error_ratio_h2", "error_ratio_f"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    @property
    def error_rate(self) -> float:
        """e = r1/(1 - r1) + r2/(1 - r2), each hop's error variance over
        its estimate gain: the estimation errors scale a link's SNR CCDF
        at x by e^(-x e)."""
        r1, r2 = self.error_ratio_h1, self.error_ratio_h2
        return r1 / (1 - r1) + r2 / (1 - r2)


def _gamma_gains(rng: np.random.Generator, m: int, mean: float, shape) -> np.ndarray:
    # sum of m exponentials of mean mean/m == squared Nakagami-m amplitude
    # (no rejection sampling): bit for bit rng.exponential(mean / m, (m,) +
    # shape).sum(axis=0) on the same stream, without holding all m draws,
    # since the second and later draws fill one tile of at most _TILE
    # entries at a time, walking the gains in order
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
        hop1=_gamma_gains(rng, m, topology.omega_h1, shape),
        hop2=_gamma_gains(rng, m, topology.omega_h2, shape),
        interf=_gamma_gains(rng, m, topology.omega_f, shape),
    )


def _require_rayleigh(topology: NetworkTopology):
    """The imperfect-CSI model's one fading law: Rayleigh (m = 1)."""
    if topology.nakagami_m != 1:
        raise ValueError("imperfect-CSI model requires nakagami_m == 1")


def _estimated(topology: NetworkTopology, err: CsiErrorModel) -> NetworkTopology:
    """The topology with each mean gain Ω cut to its estimate's Ω·(1 - r)
    (Rayleigh only), all that imperfect-CSI statistics need beside the
    errors."""
    _require_rayleigh(topology)
    return replace(
        topology,
        omega_h1=topology.omega_h1 * (1 - err.error_ratio_h1),
        omega_h2=topology.omega_h2 * (1 - err.error_ratio_h2),
        omega_f=topology.omega_f * (1 - err.error_ratio_f))


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


def _hop2_floor(f, budget: LinkBudget, topology: NetworkTopology, out=None):
    """Hop 2's noise over its gain at an infinite relay cap, d2ᵇ/(λ3·d3ᵇ/f),
    of gains checked by :func:`_checked_interference`, in ``out`` (which
    may be ``f``) or a new array: 0 at a zero gain, and wherever λ3·d3ᵇ/f
    overflows, where the interference cap cannot bind."""
    if out is None:
        out = np.empty(np.shape(f))
    d3b = topology.d3 ** topology.path_loss_exp
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(budget.interference_snr_cap * d3b, f, out=out)
        return np.divide(topology.d2 ** topology.path_loss_exp, out,
                         out=out)


def _snr(hop1, hop2, floor2, budget: LinkBudget, err: CsiErrorModel | None,
         topology: NetworkTopology, out=None) -> np.ndarray:
    """The SNR matrix at one budget from the gains and hop 2's cap-free
    noise ``floor2`` (:func:`_hop2_floor`), each hop's σ² = Ω·r, Ω its
    true mean gain (0 under perfect CSI, ``err`` None), in ``out`` or a
    new array.  Hop 2's SNR is built in place, its noise max(floor2,
    d2ᵇ/λ2), then the hop-1 SNR is formed one tile of at most ``_TILE``
    entries at a time and its minimum taken into that array, so no
    second array of the gains' size is held.
    ``out`` may be ``floor2``, which a Monte Carlo block passes where no
    later build reads it; never ``hop1`` or ``hop2``."""
    if out is None:
        out = np.empty(np.shape(floor2))
    d2b = topology.d2 ** topology.path_loss_exp
    snrs = np.maximum(floor2, d2b / budget.relay_snr_cap, out=out)
    if err is not None:
        snrs += topology.omega_h2 * err.error_ratio_h2
    noise1 = ((0.0 if err is None else topology.omega_h1 * err.error_ratio_h1)
              + topology.d1 ** topology.path_loss_exp / budget.source_snr)
    # tiles of whole rows along the leading (trials) axis
    hop1, stack = np.atleast_1d(hop1), np.atleast_1d(snrs)
    rows = max(1, _TILE // max(1, math.prod(stack.shape[1:])))
    tile = np.empty((min(rows, len(stack)),) + stack.shape[1:])
    # +inf where a hop's noise is 0 (an infinite power without error), or
    # so small that the SNR overflows
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(hop2, snrs, out=snrs)
        for start in range(0, len(stack), rows):
            hop2_part = stack[start:start + rows]
            hop1_part = np.divide(hop1[start:start + rows], noise1,
                                  out=tile[:len(hop2_part)])
            np.minimum(hop1_part, hop2_part, out=hop2_part)
    return snrs


def snr_matrix(realization: ChannelRealization, topology: NetworkTopology,
               budget: LinkBudget) -> np.ndarray:
    """End-to-end SNR of every user-relay pair: the smaller of the two
    decode-and-forward hop SNRs, each h / (dᵇ/λ), λ the source power on
    hop 1 and on hop 2 the relay power, the peak-power cap or the level
    λ3·d3ᵇ/f that meets the interference cap at the primary receiver,
    whichever binds (the peak at a zero gain f of either sign; a
    negative or NaN f raises ``ValueError``).  Shape matches the
    realization arrays, which it leaves unchanged; 0-d gains give a
    numpy scalar."""
    floor2 = _hop2_floor(_checked_interference(realization.interf), budget,
                         topology)
    return _snr(realization.hop1, realization.hop2, floor2, budget, None,
                topology, out=floor2)[()]


def snr_matrix_imperfect(estimates: ChannelRealization, err: CsiErrorModel,
                         topology: NetworkTopology,
                         budget: LinkBudget) -> np.ndarray:
    """End-to-end SNR built from estimated channels with the residual
    estimation error folded into the effective noise of each hop, each
    hop's SNR h / (σ² + dᵇ/λ) (:func:`snr_matrix` is the case σ² = 0);
    the estimates are left unchanged.  Rayleigh fading only."""
    _require_rayleigh(topology)
    floor2 = _hop2_floor(_checked_interference(estimates.interf), budget,
                         topology)
    return _snr(estimates.hop1, estimates.hop2, floor2, budget, err, topology,
                out=floor2)[()]
