"""Channel model checks: sampling statistics, the relay power constraint
and SNR-matrix construction for perfect and imperfect CSI."""

import math
from dataclasses import replace

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
    relay_power,
    sample_estimated_realization,
    sample_realization,
    snr_matrix,
    snr_matrix_imperfect,
)
from cogrelay.model import (
    _TILE,
    _capped_snr,
    _checked_interference,
    _gamma_gains,
    _imperfect_snr,
    _snr_parts,
)
from oracles import (
    gamma_gains_summed,
    relay_power_where,
    snr_matrix_direct,
    snr_matrix_imperfect_where,
)


def topo(num_users=2, num_relays=3, m=1, **kw):
    kw.setdefault("path_loss_exp", 0.0)
    return NetworkTopology(num_users, num_relays, m, **kw)


class TestTopologyValidation:
    def test_relay_count_constraint(self):
        with pytest.raises(ValueError, match="num_relays"):
            NetworkTopology(4, 3, 1)

    def test_positive_gains(self):
        with pytest.raises(ValueError, match="mean_gain_hop2"):
            NetworkTopology(1, 1, 1, mean_gain_hop2=-1.0)

    def test_integer_shape(self):
        with pytest.raises(ValueError, match="nakagami_m"):
            NetworkTopology(1, 1, 0)

    def test_effective_gains_apply_path_loss(self):
        t = NetworkTopology(1, 1, 1, mean_gain_hop1=2.0, dist_hop1=2.0,
                            path_loss_exp=3.0)
        assert t.eff_gain_hop1 == pytest.approx(2.0 / 8.0)


class TestSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_realization(topo(1, 1, 1), rng, trials=1_000_000)
        assert draws.hop1.mean() == pytest.approx(1.0, abs=0.01)

    def test_gamma_variance(self):
        # variance of a shape-m mean-omega gamma is omega^2 / m
        rng = np.random.default_rng(2)
        t = topo(1, 1, 3, mean_gain_hop1=2.0)
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
        err = CsiErrorModel.from_error_ratios(t, 0.2, 0.2, 0.2)
        rng = np.random.default_rng(3)
        draws = sample_estimated_realization(t, err, rng, trials=500_000)
        assert draws.hop1.mean() == pytest.approx(0.8, rel=0.01)

    def test_estimated_sampling_rejects_nonrayleigh(self):
        t = topo(1, 1, 2)
        err = CsiErrorModel(1, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            sample_estimated_realization(t, err, np.random.default_rng(0))


class TestRelayPower:
    budget = LinkBudget(source_snr=10.0, relay_snr_cap=10.0,
                        interference_snr_cap=5.0, threshold_snr=1.0)

    def test_deep_fade_gives_peak_power(self):
        assert relay_power(0.0, self.budget, topo()) == 10.0

    def test_boundary_gain(self):
        # both arms equal at f = d3^beta * L3 / L2
        assert relay_power(0.5, self.budget, topo()) == pytest.approx(10.0)

    def test_interference_limited(self):
        assert relay_power(1.0, self.budget, topo()) == pytest.approx(5.0)
        assert relay_power(2 * 0.5, self.budget, topo()) == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300], ids=["nan", "negative"])
    @pytest.mark.parametrize("wrap", [float, lambda f: np.array([0.3, f, 0.0])],
                             ids=["scalar", "array"])
    def test_rejects_negative_and_nan(self, bad, wrap):
        with pytest.raises(ValueError, match="interference gain must be >= 0"):
            relay_power(wrap(bad), self.budget, topo())

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_signed_zero_gives_peak_power(self, zero):
        # a bare 5 / -0.0 is -inf, which would undercut the peak power
        q = relay_power(zero, self.budget, topo())
        assert type(q) is float and q == 10.0
        np.testing.assert_array_equal(
            relay_power(np.array([zero, 1.0, zero]), self.budget, topo()),
            [10.0, 5.0, 10.0])

    def test_range(self):
        rng = np.random.default_rng(4)
        f = rng.exponential(size=10_000)
        q = relay_power(f, self.budget, topo())
        assert np.all(q > 0)
        assert np.all(q <= self.budget.relay_snr_cap)

    def test_cap_probability_matches_gamma_cdf(self):
        # P[power pinned at the cap] = F_{|f|^2}(d3^b * L3 / L2)
        m, omega = 2, 1.5
        t = topo(1, 1, m, mean_gain_interf=omega)
        rng = np.random.default_rng(5)
        trials = 1_000_000
        f = sample_realization(t, rng, trials=trials).interf.reshape(-1)
        q = relay_power(f, self.budget, t)
        hit = np.sum(q == self.budget.relay_snr_cap)
        expected = gammainc(m, m * 0.5 / omega)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hit / trials - expected) <= 3 * se


@st.composite
def interference_cases(draw, ndim):
    """A budget, a topology and interference gains of ``ndim`` axes
    (three: trials, M, N): exponential draws mixed with +0.0, -0.0 and
    the gain d3^b I / cap at which both arms of the relay cap meet."""
    budget = LinkBudget(1.0, draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6)),
                        1.0)
    t = topo(2, 3, dist_interf=draw(st.floats(0.1, 10.0)),
             path_loss_exp=draw(st.sampled_from([0.0, 2.0, 3.7])))
    shape = (draw(st.integers(1, 3)), 2, 3) if ndim == 3 else (7,) * ndim
    seed = draw(st.integers(0, 2**32 - 1))
    f = np.random.default_rng(seed).exponential(draw(st.floats(1e-3, 1e3)),
                                                size=shape)
    boundary = t.dist_interf ** t.path_loss_exp * budget.interference_snr_cap \
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
        assert_bits_equal(relay_power(f, budget, t),
                          relay_power_where(f, budget, t))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_snr_matrix_imperfect_matches_where_form(self, case, r1, r2, seed):
        # 0-d estimates give a numpy scalar, as the where form does
        budget, t, f = case
        budget = LinkBudget(10.0, budget.relay_snr_cap,
                            budget.interference_snr_cap, 1.0)
        err = CsiErrorModel.from_error_ratios(t, r1, r2, 0.0)
        rng = np.random.default_rng(seed)
        est = ChannelRealization(rng.exponential(size=f.shape),
                                 rng.exponential(size=f.shape), f)
        assert_bits_equal(snr_matrix_imperfect(est, err, t, budget),
                          snr_matrix_imperfect_where(est, err, t, budget))


class TestSnrSplit:
    """``snr_matrix``, and the cap step that a Monte Carlo block runs per
    budget on parts it builds once (``_snr_parts``, ``_capped_snr``),
    equal bit for bit the one-expression form of ``tests/oracles.py``:
    at relay caps on an entry's knee I d3^b / f and one ulp either side
    of it, at +0.0 and -0.0 gains, at an infinite cap, at path-loss
    exponents 0, 2 and 3.7 and for 0-d, 1-d and (trials, M, N) gains."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.floats(1e-3, 1e6), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.integers(0, 2**32 - 1))
    def test_matches_direct_form(self, case, source, d1, d2, seed):
        budget, t, f = case
        t = replace(t, dist_hop1=d1, dist_hop2=d2)
        rng = np.random.default_rng(seed)
        draws = ChannelRealization(rng.exponential(size=f.shape),
                                   rng.exponential(size=f.shape), f)
        base = LinkBudget(source, budget.relay_snr_cap,
                          budget.interference_snr_cap, 1.0)
        d3b = t.dist_interf ** t.path_loss_exp
        gains = np.asarray(f).reshape(-1)
        caps = [base.relay_snr_cap, math.inf]
        for gain in gains[gains > 0][:3]:
            knee = base.interference_snr_cap * d3b / gain
            caps += [np.nextafter(knee, 0.0), knee, np.nextafter(knee, np.inf)]
        hop1_snr, limit = _snr_parts(draws, t, base)
        for cap in caps:
            capped = replace(base, relay_snr_cap=float(cap))
            want = snr_matrix_direct(draws, t, capped)
            assert_bits_equal(snr_matrix(draws, t, capped), want)
            assert_bits_equal(
                _capped_snr(hop1_snr, limit, draws.hop2, float(cap), t), want)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300], ids=["nan", "negative"])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 1, 3)],
                             ids=["0d", "1d", "3d"])
    def test_rejects_negative_and_nan(self, bad, shape):
        f = np.full(shape, 0.5)
        f.reshape(-1)[-1] = bad
        draws = ChannelRealization(np.ones(shape), np.ones(shape), f)
        budget = LinkBudget(1.0, 1.0, 1.0, 1.0)
        for build in (snr_matrix, snr_matrix_direct, _snr_parts):
            with pytest.raises(ValueError, match="interference gain must be >= 0"):
                build(draws, topo(1, 3), budget)


class TestOutBuffers:
    """The kernels that a Monte Carlo block runs in its own buffers give,
    with ``out=``, the bits they give without it, also where ``out`` is
    the part each overwrites at a block's last budget, and the public
    builders leave the caller's gains as they were."""

    @staticmethod
    def case_gains(case, seed):
        budget, t, f = case
        rng = np.random.default_rng(seed)
        return budget, t, ChannelRealization(rng.exponential(size=f.shape),
                                             rng.exponential(size=f.shape), f)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.floats(1e-3, 1e6), st.integers(0, 2**32 - 1))
    def test_capped_snr(self, case, source, seed):
        budget, t, draws = self.case_gains(case, seed)
        base = LinkBudget(source, budget.relay_snr_cap,
                          budget.interference_snr_cap, 1.0)
        want = _capped_snr(*_snr_parts(draws, t, base), draws.hop2,
                           base.relay_snr_cap, t)
        # the parts in the gains' own buffers, as a block builds them
        own = ChannelRealization(np.array(draws.hop1), draws.hop2,
                                 np.array(draws.interf))
        hop1_snr, limit = _snr_parts(own, t, base, out=(own.hop1, own.interf))
        assert hop1_snr is own.hop1 and limit is own.interf
        for out in (np.empty(np.shape(limit)), limit):  # the limit last
            got = _capped_snr(hop1_snr, limit, draws.hop2, base.relay_snr_cap,
                              t, out=out)
            assert got is out
            assert_bits_equal(np.asarray(got), np.asarray(want))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    def test_imperfect_snr(self, case, r1, r2, seed):
        budget, t, est = self.case_gains(case, seed)
        err = CsiErrorModel.from_error_ratios(t, r1, r2, 0.0)
        want = snr_matrix_imperfect(est, err, t, budget)
        f = np.array(_checked_interference(est.interf))
        for out in (np.empty(f.shape), f):  # the interference gains last
            got = _imperfect_snr(est.hop1, est.hop2, f, err, t, budget, out=out)
            assert got is out
            assert_bits_equal(np.asarray(got), np.asarray(want))

    @pytest.mark.parametrize("shape", [(2 * _TILE + 3,), (3 * (_TILE // 6) + 5, 2, 3)],
                             ids=["1d", "3d"])
    def test_imperfect_snr_tiles(self, shape):
        # the hop-1 SNR of several tiles, the last one ragged, equals the
        # where form, with and without out=
        t = topo(2, 3, path_loss_exp=3.7, dist_hop1=1.3, dist_interf=0.7)
        err = CsiErrorModel.from_error_ratios(t, 0.05, 0.1, 0.0)
        budget = LinkBudget(10.0, 4.0, 2.0, 1.0)
        rng = np.random.default_rng(9)
        est = ChannelRealization(*(rng.exponential(size=shape) for _ in range(3)))
        want = snr_matrix_imperfect_where(est, err, t, budget)
        assert_bits_equal(snr_matrix_imperfect(est, err, t, budget), want)
        f = np.array(est.interf)
        assert_bits_equal(_imperfect_snr(est.hop1, est.hop2, f, err, t, budget,
                                         out=f), want)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0, 1, 3]).flatmap(interference_cases),
           st.integers(0, 2**32 - 1))
    def test_public_builders_leave_gains(self, case, seed):
        # sign bits too: a -0.0 gain is read as +0.0 in a copy
        budget, t, draws = self.case_gains(case, seed)
        before = [np.array(gains) for gains in (draws.hop1, draws.hop2, draws.interf)]
        err = CsiErrorModel.from_error_ratios(t, 0.05, 0.05, 0.0)
        snr_matrix(draws, t, budget)
        snr_matrix_imperfect(draws, err, t, budget)
        relay_power(draws.interf, budget, t)
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
        low, high = LinkBudget(*levels, 1.0), LinkBudget(*raised, 1.0)
        rng = np.random.default_rng(seed)
        draws = ChannelRealization(rng.exponential(size=f.shape),
                                   rng.exponential(size=f.shape), f)
        err = CsiErrorModel.from_error_ratios(t, r1, r2, 0.0)
        assert np.all(snr_matrix(draws, t, high) >= snr_matrix(draws, t, low))
        assert np.all(snr_matrix_imperfect(draws, err, t, high)
                      >= snr_matrix_imperfect(draws, err, t, low))


class TestSnrMatrix:
    def test_zero_first_hop_gives_zero(self):
        t = topo(1, 1, 1)
        real = ChannelRealization(np.zeros((1, 1)), np.ones((1, 1)),
                                  np.ones((1, 1)))
        b = LinkBudget(10, 10, 10, 1)
        assert snr_matrix(real, t, b)[0, 0] == 0.0

    def test_hand_evaluated_min(self):
        # all gains 1, unit distances: relay power min(10, 5) = 5, then
        # end-to-end min(10, 5) = 5
        t = topo(1, 1, 1)
        real = ChannelRealization(np.ones((1, 1)), np.ones((1, 1)),
                                  np.ones((1, 1)))
        b = LinkBudget(10, 10, 5, 1)
        assert snr_matrix(real, t, b)[0, 0] == pytest.approx(5.0)

    def test_min_contract(self):
        t = topo(2, 3, 2)
        rng = np.random.default_rng(6)
        real = sample_realization(t, rng, trials=1000)
        b = LinkBudget(db_to_linear(12), db_to_linear(9), db_to_linear(3),
                       db_to_linear(5))
        g = snr_matrix(real, t, b)
        assert np.all(g <= b.source_snr * real.hop1 + 1e-12)
        assert np.all(g <= b.relay_snr_cap * real.hop2 + 1e-12)

    def test_unconstrained_limit_matches_dual_hop_cdf(self):
        # with the interference cap out of the way the link CDF is the
        # plain dual-hop DF law 1 - (1-F1)(1-F2)
        m = 2
        t = topo(1, 1, m)
        b = LinkBudget(10.0, 8.0, 1e9, 1.0)
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
    def test_zero_error_reduces_to_perfect(self):
        t = topo(2, 3, 1)
        err = CsiErrorModel.from_error_ratios(t, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(8)
        real = sample_realization(t, rng, trials=200)
        b = LinkBudget(db_to_linear(15), db_to_linear(10), db_to_linear(5),
                       db_to_linear(5))
        np.testing.assert_allclose(
            snr_matrix_imperfect(real, err, t, b), snr_matrix(real, t, b),
            rtol=1e-14)

    def test_first_hop_ceiling_at_high_power(self):
        # raising the source power cannot push hop-1 SNR past |h|^2/err
        t = topo(1, 1, 1)
        err = CsiErrorModel(0.95, 0.95, 0.95, 0.05, 0.05, 0.05)
        gain = 2.0
        real = ChannelRealization(np.array([[gain]]), np.array([[1e9]]),
                                  np.array([[1e-9]]))
        b = LinkBudget(1e8, 1e12, 1e12, 1.0)
        g = snr_matrix_imperfect(real, err, t, b)
        assert g[0, 0] == pytest.approx(gain / 0.05, rel=1e-6)

    def test_scalar_hand_value(self):
        t = topo(1, 1, 1)
        err = CsiErrorModel(0.9, 0.8, 0.7, 0.1, 0.2, 0.3)
        real = ChannelRealization(np.array([[0.5]]), np.array([[0.4]]),
                                  np.array([[0.6]]))
        b = LinkBudget(20.0, 8.0, 4.0, 1.0)
        q = min(8.0, 4.0 / 0.6)
        hop1 = 20.0 * 0.5 / (20.0 * 0.1 + 1.0)
        hop2 = q * 0.4 / (q * 0.2 + 1.0)
        assert snr_matrix_imperfect(real, err, t, b)[0, 0] == pytest.approx(
            min(hop1, hop2), rel=1e-12)

    def test_rejects_nonrayleigh(self):
        t = topo(1, 1, 3)
        err = CsiErrorModel(1, 1, 1, 0, 0, 0)
        real = ChannelRealization(np.ones((1, 1)), np.ones((1, 1)),
                                  np.ones((1, 1)))
        with pytest.raises(ValueError, match="nakagami_m == 1"):
            snr_matrix_imperfect(real, err, t, LinkBudget(1, 1, 1, 1))


class TestCsiErrorModel:
    def test_ratio_split(self):
        t = topo(1, 1, 1, mean_gain_hop1=2.0)
        err = CsiErrorModel.from_error_ratios(t, 0.05, 0.05, 0.05)
        assert err.est_gain_hop1 == pytest.approx(1.9)
        assert err.err_var_hop1 == pytest.approx(0.1)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError, match="ratio_hop1"):
            CsiErrorModel.from_error_ratios(topo(1, 1, 1), 1.0, 0.0, 0.0)
