"""Channel model checks: sampling statistics, the relay power constraint
and SNR-matrix construction for perfect and imperfect CSI, perfect CSI
being the zero-error case of one formula."""

import math
import re
import warnings
from dataclasses import fields, replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from cogrelay.model import (
    ChannelRealization,
    CsiErrorModel,
    LinkBudget,
    NetworkTopology,
    db_to_linear,
    sample_estimated_realization,
    sample_realization,
    snr_matrix,
    snr_matrix_imperfect,
)
from cogrelay.model import (
    _TILE,
    _checked_interference,
    _estimated,
    _gamma_gains,
    _hop2_floor,
    _snr,
)
from oracles import csi_split, gamma_gains_summed, snr_matrix_imperfect_where


def topo(num_users=2, num_relays=3, m=1, **kw):
    kw.setdefault("path_loss_exp", 0.0)
    return NetworkTopology(num_users, num_relays, m, **kw)


# the error model of perfect CSI: every error ratio 0
ZERO_ERROR = CsiErrorModel(0.0, 0.0, 0.0)


def hop2_only(f_gain):
    """Gains that leave the relay cap alone to decide the SNR: hop 1 out
    of the way (an infinite gain), unit hop-2 gains and the interference
    gains ``f_gain``.  At unit distances each entry's SNR is then
    1 / (1 / P), the relay power P up to the rounding of two divisions."""
    f = np.asarray(f_gain, dtype=float)
    return ChannelRealization(np.full(f.shape, np.inf), np.ones(f.shape), f)


def relay_snr(f_gain, budget, t):
    """:func:`snr_matrix` on :func:`hop2_only` gains."""
    return snr_matrix(hop2_only(f_gain), t, budget)


# each hop's mean-gain and distance keys
HOP_KEYS = {"hop1": ("omega_h1", "d1"), "hop2": ("omega_h2", "d2"),
            "interf": ("omega_f", "d3")}


class TestTopologyValidation:
    def test_relay_count_constraint(self):
        with pytest.raises(ValueError, match="num_relays"):
            NetworkTopology(4, 3, 1)

    def test_positive_gains(self):
        with pytest.raises(ValueError, match="omega_h2"):
            NetworkTopology(1, 1, 1, omega_h2=-1.0)

    def test_integer_shape(self):
        with pytest.raises(ValueError, match="nakagami_m"):
            NetworkTopology(1, 1, 0)

    def test_effective_gains_apply_path_loss(self):
        t = NetworkTopology(1, 1, 1, omega_h1=2.0, d1=2.0, path_loss_exp=3.0)
        assert t.eff_gain_hop1 == pytest.approx(2.0 / 8.0)

    @pytest.mark.parametrize("hop", ["hop1", "hop2", "interf"])
    @pytest.mark.parametrize("dist, flow", [(1e200, "over"), (1e-200, "under"),
                                            (1e-160, "under")],
                             ids=["inf", "zero", "subnormal"])
    def test_path_loss_in_float_range(self, hop, dist, flow):
        # d^b at b = 2: an overflow raised a bare OverflowError from **,
        # and a 0 interference path loss gave NaN SNRs at a zero gain
        _, dist_key = HOP_KEYS[hop]
        size = "large" if flow == "over" else "small"
        with pytest.raises(ValueError, match=re.escape(
                f"{dist_key}={dist} is too {size}: its path loss "
                f"{dist_key}^path_loss_exp {flow}flows a float")):
            NetworkTopology(1, 3, 1, path_loss_exp=2.0, **{dist_key: dist})

    @pytest.mark.parametrize("hop", ["hop1", "hop2", "interf"])
    @pytest.mark.parametrize("gain, dist, flow", [(1e300, 1e-10, "over"),
                                                  (1e-300, 1e10, "under"),
                                                  (1e-300, 1e3, "under")],
                             ids=["inf", "zero", "subnormal"])
    def test_effective_gain_in_float_range(self, hop, gain, dist, flow):
        # omega / d^b at b = 4: 1e340, 1e-340 and 1e-312, while the
        # path loss itself, 1e-40, 1e40 or 1e12, is in range
        gain_key, dist_key = HOP_KEYS[hop]
        size = "large" if flow == "over" else "small"
        with pytest.raises(ValueError, match=re.escape(
                f"{gain_key}={gain} is too {size}: its effective gain "
                f"{gain_key}/{dist_key}^path_loss_exp {flow}flows a float")):
            NetworkTopology(1, 3, 1, path_loss_exp=4.0,
                            **{gain_key: gain, dist_key: dist})

    def test_range_edges_admitted(self):
        # the smallest normal path loss and effective gain are admitted,
        # and every SNR built on them is a number, with no warning
        tiny = np.finfo(float).tiny
        t = NetworkTopology(1, 3, 1, path_loss_exp=1.0, d3=tiny, omega_h2=tiny)
        draws = ChannelRealization(np.ones(3), np.ones(3),
                                   np.array([0.0, 1.0, np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snrs = snr_matrix(draws, t, LinkBudget(1.0, 1.0, 1.0))
        assert not np.isnan(snrs).any()


class TestSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_realization(topo(1, 1, 1), rng, trials=1_000_000)
        assert draws.hop1.mean() == pytest.approx(1.0, abs=0.01)

    def test_gamma_variance(self):
        # variance of a shape-m mean-omega gamma is omega^2 / m
        rng = np.random.default_rng(2)
        t = topo(1, 1, 3, omega_h1=2.0)
        draws = sample_realization(t, rng, trials=1_000_000)
        assert draws.hop1.var() == pytest.approx(4.0 / 3.0, rel=0.03)
        assert draws.hop1.mean() == pytest.approx(2.0, rel=0.01)

    def test_same_seed_identical(self):
        a = sample_realization(topo(), np.random.default_rng(7), trials=100)
        b = sample_realization(topo(), np.random.default_rng(7), trials=100)
        assert np.array_equal(a.hop1, b.hop1)
        assert np.array_equal(a.hop2, b.hop2)
        assert np.array_equal(a.interf, b.interf)

    @pytest.mark.parametrize("shape", [(3, 4), (1000, 2, 3), (70001, 2, 3)],
                             ids=["matrix", "trials", "tiles"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_gamma_gains_match_summed_draws(self, m, shape):
        # the same draws, bit for bit, and the generator left in the same
        # state, as m exponential draws summed over a leading axis; the
        # third shape spans several of the sampler's tiles and ends in a
        # ragged one
        for mean in (1.0, 0.95, 3.7e-3, 12345.6):
            got_rng, want_rng = (np.random.default_rng([m, 7]) for _ in range(2))
            got = _gamma_gains(got_rng, m, mean, shape)
            want = gamma_gains_summed(want_rng, m, mean, shape)
            assert got.shape == want.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert got_rng.random() == want_rng.random()

    def test_estimated_sampling_uses_estimate_variance(self):
        t = topo(1, 1, 1)
        err = CsiErrorModel(0.2, 0.2, 0.2)
        rng = np.random.default_rng(3)
        draws = sample_estimated_realization(t, err, rng, trials=500_000)
        assert draws.hop1.mean() == pytest.approx(0.8, rel=0.01)

    def test_estimated_sampling_rejects_nonrayleigh(self):
        t = topo(1, 1, 2)
        err = CsiErrorModel(0, 0, 0)
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            sample_estimated_realization(t, err, np.random.default_rng(0))


class TestRelayPower:
    """The relay power, the peak-power cap or the level that meets the
    interference cap at the primary receiver, whichever binds, seen
    through the SNR matrix of :func:`hop2_only` gains."""

    budget = LinkBudget(source_snr=10.0, relay_snr_cap=10.0,
                        interference_snr_cap=5.0)

    def test_deep_fade_gives_peak_power(self):
        assert relay_snr(0.0, self.budget, topo()) == 10.0

    def test_boundary_gain(self):
        # both arms equal at f = d3^beta * L3 / L2
        assert relay_snr(0.5, self.budget, topo()) == pytest.approx(10.0)

    def test_interference_limited(self):
        assert relay_snr(1.0, self.budget, topo()) == pytest.approx(5.0)
        assert relay_snr(2 * 0.5, self.budget, topo()) == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300], ids=["nan", "negative"])
    @pytest.mark.parametrize("wrap", [float, lambda f: np.array([0.3, f, 0.0])],
                             ids=["scalar", "array"])
    def test_rejects_negative_and_nan(self, bad, wrap):
        with pytest.raises(ValueError, match="interference gain must be >= 0"):
            relay_snr(wrap(bad), self.budget, topo())

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_signed_zero_gives_peak_power(self, zero):
        # a bare 5 / -0.0 is -inf, which would undercut the peak power
        q = relay_snr(zero, self.budget, topo())
        assert type(q) is np.float64 and q == 10.0
        np.testing.assert_array_equal(
            relay_snr(np.array([zero, 1.0, zero]), self.budget, topo()),
            [10.0, 5.0, 10.0])

    def test_range(self):
        rng = np.random.default_rng(4)
        f = rng.exponential(size=10_000)
        q = relay_snr(f, self.budget, topo())
        assert np.all(q > 0)
        assert np.all(q <= self.budget.relay_snr_cap)

    def test_cap_probability_matches_gamma_cdf(self):
        # P[power pinned at the cap] = F_{|f|^2}(d3^b * L3 / L2)
        m, omega = 2, 1.5
        t = topo(1, 1, m, omega_f=omega)
        rng = np.random.default_rng(5)
        trials = 1_000_000
        f = sample_realization(t, rng, trials=trials).interf.reshape(-1)
        q = relay_snr(f, self.budget, t)
        hit = np.sum(q == relay_snr(0.0, self.budget, t))
        expected = gammainc(m, m * 0.5 / omega)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hit / trials - expected) <= 3 * se


@st.composite
def interference_cases(draw, ndim):
    """A budget, a topology and interference gains of ``ndim`` axes
    (three: trials, M, N): exponential draws mixed with +0.0, -0.0 and
    the gain d3^b I / cap at which both arms of the relay cap meet."""
    budget = LinkBudget(1.0, draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6)))
    t = topo(2, 3, d3=draw(st.floats(0.1, 10.0)),
             path_loss_exp=draw(st.sampled_from([0.0, 2.0, 3.7])))
    shape = (draw(st.integers(1, 3)), 2, 3) if ndim == 3 else (7,) * ndim
    seed = draw(st.integers(0, 2**32 - 1))
    f = np.random.default_rng(seed).exponential(draw(st.floats(1e-3, 1e3)),
                                                size=shape)
    boundary = t.d3 ** t.path_loss_exp * budget.interference_snr_cap \
        / budget.relay_snr_cap
    kind = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    f = np.select([kind == 1, kind == 2, kind == 3], [0.0, -0.0, boundary], f)
    return budget, t, f


def assert_bits_equal(got, want):
    assert type(got) is type(want)
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


class TestRelayCapOracle:
    """The one-division relay cap and the SNR matrix built on it equal,
    bit for bit, the masked np.where form of ``tests/oracles.py``."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases))
    def test_relay_power_matches_where_form(self, case):
        budget, t, f = case
        gains = hop2_only(f)
        assert_bits_equal(snr_matrix(gains, t, budget),
                          snr_matrix_imperfect_where(gains, ZERO_ERROR, t,
                                                     budget))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_snr_matrix_imperfect_matches_where_form(self, case, r1, r2, seed):
        # 0-d estimates give a numpy scalar, as the where form does
        budget, t, f = case
        budget = LinkBudget(10.0, budget.relay_snr_cap,
                            budget.interference_snr_cap)
        err = CsiErrorModel(r1, r2, 0.0)
        rng = np.random.default_rng(seed)
        est = ChannelRealization(rng.exponential(size=f.shape),
                                 rng.exponential(size=f.shape), f)
        assert_bits_equal(snr_matrix_imperfect(est, err, t, budget),
                          snr_matrix_imperfect_where(est, err, t, budget))


@st.composite
def split_cases(draw, ndim):
    """A budget, a topology with hop distances, and gains of ``ndim``
    axes: :func:`interference_cases` with exponential hop gains.  With
    :func:`knee_caps`, what the relay-cap tests run on."""
    budget, t, f = draw(interference_cases(ndim))
    t = replace(t, d1=draw(st.floats(0.1, 10.0)),
                d2=draw(st.floats(0.1, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = ChannelRealization(rng.exponential(size=f.shape),
                               rng.exponential(size=f.shape), f)
    base = LinkBudget(draw(st.floats(1e-3, 1e6)), budget.relay_snr_cap,
                      budget.interference_snr_cap)
    return base, t, draws


def knee_caps(base, t, draws):
    """``base`` at its own relay cap, an infinite one, and, for up to
    three positive interference gains f, the knee I d3^b / f, where both
    arms of the relay power meet, and one ulp either side of it."""
    d3b = t.d3 ** t.path_loss_exp
    gains = np.asarray(draws.interf).reshape(-1)
    caps = [base.relay_snr_cap, math.inf]
    for gain in gains[gains > 0][:3]:
        knee = base.interference_snr_cap * d3b / gain
        caps += [np.nextafter(knee, 0.0), knee, np.nextafter(knee, np.inf)]
    return [replace(base, relay_snr_cap=float(cap)) for cap in caps]


class TestSnrSplit:
    """``snr_matrix``, and the builder that a Monte Carlo block runs per
    budget on hop 2's cap-free noise built once (``_hop2_floor``,
    ``_snr``), equal bit for bit the where form of ``tests/oracles.py``
    at zero error: at relay caps on an entry's knee I d3^b / f and one
    ulp either side of it, at +0.0 and -0.0 gains, at an infinite cap, at
    path-loss exponents 0, 2 and 3.7 and for 0-d, 1-d and (trials, M, N)
    gains."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(split_cases))
    def test_matches_direct_form(self, case):
        base, t, draws = case
        floor2 = _hop2_floor(_checked_interference(draws.interf), base, t)
        for capped in knee_caps(base, t, draws):
            want = snr_matrix_imperfect_where(draws, ZERO_ERROR, t, capped)
            assert_bits_equal(snr_matrix(draws, t, capped), want)
            assert_bits_equal(
                _snr(draws.hop1, draws.hop2, floor2, capped, None, t)[()], want)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300], ids=["nan", "negative"])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 1, 3)],
                             ids=["0d", "1d", "3d"])
    def test_rejects_negative_and_nan(self, bad, shape):
        f = np.full(shape, 0.5)
        f.reshape(-1)[-1] = bad
        draws = ChannelRealization(np.ones(shape), np.ones(shape), f)
        budget, t = LinkBudget(1.0, 1.0, 1.0), topo(1, 3)
        for build in (lambda: snr_matrix(draws, t, budget),
                      lambda: snr_matrix_imperfect(draws, ZERO_ERROR, t, budget),
                      lambda: _checked_interference(draws.interf)):
            with pytest.raises(ValueError, match="interference gain must be >= 0"):
                build()


class TestOutBuffers:
    """The builder and its part, which a Monte Carlo block runs in its
    own buffers, give with ``out=`` the bits they give without it, also
    where ``out`` is hop 2's cap-free noise, which a block's last budget
    overwrites, and the public builders leave the caller's gains as they
    were."""

    @staticmethod
    def case_gains(case, seed):
        budget, t, f = case
        rng = np.random.default_rng(seed)
        return budget, t, ChannelRealization(rng.exponential(size=f.shape),
                                             rng.exponential(size=f.shape), f)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(split_cases),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.booleans())
    def test_capped_snr(self, case, r1, r2, csi):
        # with and without CSI: hop 2's cap-free noise built once in the
        # interference gains' own buffer, as a relay-cap chain builds it,
        # and each relay cap, on a knee and one ulp either side, built in
        # a new array and, at the last cap, in that noise's buffer
        base, t, draws = case
        err = CsiErrorModel(r1, r2, 0.0) if csi else None
        f = np.array(_checked_interference(draws.interf))
        floor2 = _hop2_floor(f, base, t, out=f)
        assert floor2 is f
        caps = knee_caps(base, t, draws)
        for position, capped in enumerate(caps):
            want = snr_matrix_imperfect_where(draws, err or ZERO_ERROR, t,
                                              capped)
            out = floor2 if position == len(caps) - 1 else None
            got = _snr(draws.hop1, draws.hop2, floor2, capped, err, t, out=out)
            assert out is None or got is out
            assert_bits_equal(np.asarray(got), np.asarray(want))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_imperfect_snr(self, case, r1, r2, seed):
        # a budget's own noise and matrix, as a block builds them off a
        # relay-cap chain: both in new arrays, the matrix in the noise's
        # buffer, and both in the interference gains' buffer
        budget, t, est = self.case_gains(case, seed)
        err = CsiErrorModel(r1, r2, 0.0)
        want = snr_matrix_imperfect(est, err, t, budget)
        f = np.array(_checked_interference(est.interf))
        for into in ("new", "floor", "gains"):
            floor2 = _hop2_floor(f, budget, t, out=f if into == "gains" else None)
            out = None if into == "new" else floor2
            got = _snr(est.hop1, est.hop2, floor2, budget, err, t, out=out)
            assert out is None or got is out
            assert_bits_equal(np.asarray(got), np.asarray(want))

    @pytest.mark.parametrize("shape", [(2 * _TILE + 3,), (3 * (_TILE // 6) + 5, 2, 3)],
                             ids=["1d", "3d"])
    def test_imperfect_snr_tiles(self, shape):
        # the hop-1 SNR of several tiles, the last one ragged, equals the
        # where form, with and without out=
        t = topo(2, 3, path_loss_exp=3.7, d1=1.3, d3=0.7)
        err = CsiErrorModel(0.05, 0.1, 0.0)
        budget = LinkBudget(10.0, 4.0, 2.0)
        rng = np.random.default_rng(9)
        est = ChannelRealization(*(rng.exponential(size=shape) for _ in range(3)))
        want = snr_matrix_imperfect_where(est, err, t, budget)
        assert_bits_equal(snr_matrix_imperfect(est, err, t, budget), want)
        f = np.array(est.interf)
        floor2 = _hop2_floor(f, budget, t, out=f)
        assert_bits_equal(_snr(est.hop1, est.hop2, floor2, budget, err, t,
                               out=floor2), want)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.integers(0, 2**32 - 1))
    def test_public_builders_leave_gains(self, case, seed):
        # sign bits too: a -0.0 gain is read as +0.0 in a copy
        budget, t, draws = self.case_gains(case, seed)
        before = [np.array(gains) for gains in (draws.hop1, draws.hop2, draws.interf)]
        err = CsiErrorModel(0.05, 0.05, 0.0)
        snr_matrix(draws, t, budget)
        snr_matrix_imperfect(draws, err, t, budget)
        for old, new in zip(before, (draws.hop1, draws.hop2, draws.interf)):
            assert_bits_equal(new, old)


class TestSnrMonotone:
    """Both SNR builders are non-decreasing, bit for bit, in each budget
    level, since every step of them rounds monotonically: along a Monte
    Carlo budget chain a trial that clears a threshold keeps clearing it.
    One-ulp steps find where a form that is monotone only in exact
    arithmetic (such as q h / (q e + d)) rounds down."""

    @settings(max_examples=150, deadline=None)
    @given(interference_cases(3), st.floats(1e-3, 1e6), st.integers(0, 2),
           st.sampled_from(["ulp", "tiny", "large"]), st.floats(0.0, 0.9),
           st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_non_decreasing_in_each_level(self, case, source, level, step,
                                          r1, r2, seed):
        budget, t, f = case
        levels = [source, budget.relay_snr_cap, budget.interference_snr_cap]
        raised = list(levels)
        raised[level] = {"ulp": np.nextafter(levels[level], np.inf),
                         "tiny": levels[level] * (1 + 1e-12),
                         "large": levels[level] * 1.5}[step]
        low, high = LinkBudget(*levels), LinkBudget(*raised)
        rng = np.random.default_rng(seed)
        draws = ChannelRealization(rng.exponential(size=f.shape),
                                   rng.exponential(size=f.shape), f)
        err = CsiErrorModel(r1, r2, 0.0)
        assert np.all(snr_matrix(draws, t, high) >= snr_matrix(draws, t, low))
        assert np.all(snr_matrix_imperfect(draws, err, t, high)
                      >= snr_matrix_imperfect(draws, err, t, low))


class TestSnrMatrix:
    def test_zero_first_hop_gives_zero(self):
        t = topo(1, 1, 1)
        real = ChannelRealization(np.zeros((1, 1)), np.ones((1, 1)),
                                  np.ones((1, 1)))
        b = LinkBudget(10, 10, 10)
        assert snr_matrix(real, t, b)[0, 0] == 0.0

    def test_hand_evaluated_min(self):
        # all gains 1, unit distances: relay power min(10, 5) = 5, then
        # end-to-end min(10, 5) = 5
        t = topo(1, 1, 1)
        real = ChannelRealization(np.ones((1, 1)), np.ones((1, 1)),
                                  np.ones((1, 1)))
        b = LinkBudget(10, 10, 5)
        assert snr_matrix(real, t, b)[0, 0] == pytest.approx(5.0)

    def test_huge_relay_power_gives_inf_without_warning(self):
        # at an infinite relay cap, a zero interference gain leaves hop 2
        # no noise and a gain of 1e-307 so little that its SNR overflows:
        # both read +inf, with no warning (which this test raises)
        real = ChannelRealization(np.full((1, 3), np.inf), np.full((1, 3), 100.0),
                                  np.array([[0.0, 1e-307, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snr = snr_matrix(real, topo(1, 3), LinkBudget(1.0, math.inf, 10.0))
        assert snr[0, :2].tolist() == [math.inf, math.inf]
        assert snr[0, 2] == pytest.approx(1000.0)

    def test_min_contract(self):
        t = topo(2, 3, 2)
        rng = np.random.default_rng(6)
        real = sample_realization(t, rng, trials=1000)
        b = LinkBudget(db_to_linear(12), db_to_linear(9), db_to_linear(3))
        g = snr_matrix(real, t, b)
        assert np.all(g <= b.source_snr * real.hop1 + 1e-12)
        assert np.all(g <= b.relay_snr_cap * real.hop2 + 1e-12)

    def test_unconstrained_limit_matches_dual_hop_cdf(self):
        # with the interference cap out of the way the link CDF is the
        # plain dual-hop DF law 1 - (1-F1)(1-F2)
        m = 2
        t = topo(1, 1, m)
        b = LinkBudget(10.0, 8.0, 1e9)
        rng = np.random.default_rng(7)
        trials = 1_000_000
        real = sample_realization(t, rng, trials=trials)
        g = snr_matrix(real, t, b).reshape(-1)
        for x in (1.0, 3.0, 8.0, 20.0):
            f1 = gammainc(m, m * x / (t.eff_gain_hop1 * b.source_snr))
            f2 = gammainc(m, m * x / (t.eff_gain_hop2 * b.relay_snr_cap))
            expected = 1.0 - (1.0 - f1) * (1.0 - f2)
            se = math.sqrt(expected * (1 - expected) / trials)
            assert abs(np.mean(g <= x) - expected) <= 3 * se, x


class TestImperfectSnrMatrix:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(split_cases))
    def test_zero_error_reduces_to_perfect(self, case):
        # perfect CSI is the zero-error case, bit for bit: at m = 1, for
        # 0-d, 1-d and (trials, M, N) gains, at +0.0 and -0.0
        # interference gains, an infinite cap, and caps on a knee and
        # one ulp either side of it
        base, t, draws = case
        for capped in knee_caps(base, t, draws):
            assert_bits_equal(snr_matrix(draws, t, capped),
                              snr_matrix_imperfect(draws, ZERO_ERROR, t,
                                                   capped))

    def test_first_hop_ceiling_at_high_power(self):
        # raising the source power cannot push hop-1 SNR past |h|^2/err
        t = topo(1, 1, 1)
        err = CsiErrorModel(0.05, 0.05, 0.05)
        gain = 2.0
        real = ChannelRealization(np.array([[gain]]), np.array([[1e9]]),
                                  np.array([[1e-9]]))
        b = LinkBudget(1e8, 1e12, 1e12)
        g = snr_matrix_imperfect(real, err, t, b)
        assert g[0, 0] == pytest.approx(gain / 0.05, rel=1e-6)

    def test_scalar_hand_value(self):
        t = topo(1, 1, 1)
        err = CsiErrorModel(0.1, 0.2, 0.3)
        real = ChannelRealization(np.array([[0.5]]), np.array([[0.4]]),
                                  np.array([[0.6]]))
        b = LinkBudget(20.0, 8.0, 4.0)
        q = min(8.0, 4.0 / 0.6)
        hop1 = 20.0 * 0.5 / (20.0 * 0.1 + 1.0)
        hop2 = q * 0.4 / (q * 0.2 + 1.0)
        assert snr_matrix_imperfect(real, err, t, b)[0, 0] == pytest.approx(
            min(hop1, hop2), rel=1e-12)

    def test_rejects_nonrayleigh(self):
        t = topo(1, 1, 3)
        err = CsiErrorModel(0, 0, 0)
        real = ChannelRealization(np.ones((1, 1)), np.ones((1, 1)),
                                  np.ones((1, 1)))
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            snr_matrix_imperfect(real, err, t, LinkBudget(1, 1, 1))


class TestCsiErrorModel:
    def test_fields_are_the_config_ratios(self):
        assert [f.name for f in fields(CsiErrorModel)] == [
            "error_ratio_h1", "error_ratio_h2", "error_ratio_f"]

    def test_ratio_split(self):
        t = topo(1, 1, 1, omega_h1=2.0)
        err = CsiErrorModel(0.05, 0.05, 0.05)
        assert _estimated(t, err).omega_h1 == pytest.approx(1.9)
        assert csi_split(t, err)[1][0] == pytest.approx(0.1)

    def test_ratio_bounds(self):
        for ratio in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"error_ratio_h1 must be in [0, 1), got {ratio}")):
                CsiErrorModel(ratio, 0.0, 0.0)

    @pytest.mark.parametrize("omega", [0.25, 1.0, 2.0, 0.3, 1.7, 3.0])
    def test_error_rate_matches_split(self, omega):
        # r1/(1 - r1) + r2/(1 - r2) against the split's (Ω r)/(Ω (1 - r)):
        # bit for bit at a power-of-two Ω, within a few ulp otherwise
        t = topo(1, 1, 1, omega_h1=omega, omega_h2=omega)
        for r1, r2 in ((0.05, 0.1), (0.1, 0.1), (0.3, 0.7)):
            err = CsiErrorModel(r1, r2, 0.0)
            (e1, e2, _), (v1, v2, _) = csi_split(t, err)
            want = v1 / e1 + v2 / e2
            if math.frexp(omega)[0] == 0.5:
                assert err.error_rate == want
            else:
                assert abs(err.error_rate - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("gains", [(1.0, 1.0, 1.0), (1.7, 0.3, 3.0)])
    def test_estimates_and_snr_match_split(self, gains):
        # the estimates are drawn at the split's estimate gains and each
        # hop's SNR takes its error variance as noise, bit for bit, at
        # unit and non-unit gains
        t = topo(2, 3, omega_h1=gains[0], omega_h2=gains[1],
                 omega_f=gains[2], d1=1.5, d2=0.8,
                 d3=2.0, path_loss_exp=3.0)
        err = CsiErrorModel(0.05, 0.1, 0.2)
        (est1, est2, est3), _ = csi_split(t, err)
        got_rng, want_rng = (np.random.default_rng(11) for _ in range(2))
        est = sample_estimated_realization(t, err, got_rng, trials=50)
        want = sample_realization(
            replace(t, omega_h1=est1, omega_h2=est2,
                    omega_f=est3), want_rng, trials=50)
        for name in ("hop1", "hop2", "interf"):
            assert_bits_equal(getattr(est, name), getattr(want, name))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        for budget in (LinkBudget(10.0, 5.0, 2.0), LinkBudget(1e3, 1e4, 30.0),
                       LinkBudget(math.inf, math.inf, 30.0)):
            assert_bits_equal(snr_matrix_imperfect(est, err, t, budget),
                              snr_matrix_imperfect_where(est, err, t, budget))
