"""CLI and config checks: parsing, validation messages, CSV schema and
byte determinism, exit codes."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cogrelay import analytic, cli, model, montecarlo
from cogrelay.cli import (
    CSV_HEADER,
    MAX_SWEEP_POINTS,
    SCHEMES,
    ConfigError,
    SweepSpec,
    _mc_points,
    _mc_verdict,
    _point_seed,
    _rank_distribution,
    evaluate_sweep,
    load_config,
    main,
    parse_config,
    run_sweep,
    run_validate,
)
from cogrelay.model import NetworkTopology, db_to_linear
from cogrelay.montecarlo import (
    McEstimate,
    _block_trials,
    estimate_outage,
    estimate_throughput,
)

MINIMAL = {
    "num_users": 2,
    "num_relays": 3,
    "nakagami_m": 2,
    "gamma_th_db": 5.0,
    "sweep": {"variable": "lambda_all", "start_db": 0.0, "stop_db": 10.0,
              "step_db": 5.0},
    "trials": 2000,
    "seed": 7,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(MINIMAL))
    for key, value in (overrides or {}).items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_minimal_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.num_users == 2
        assert config.sweep.points() == [0.0, 5.0, 10.0]
        assert config.scheme == "maxmin"
        assert config.mode == "outage"

    def test_relay_count_rejected(self, tmp_path):
        path = write_config(tmp_path, {"num_users": 4})
        with pytest.raises(ConfigError, match="num_relays must be >= num_users"):
            load_config(path)

    def test_csi_requires_rayleigh(self, tmp_path):
        path = write_config(tmp_path, {
            "csi": {"error_ratio_h1": 0.05, "error_ratio_h2": 0.05,
                    "error_ratio_f": 0.05}})
        with pytest.raises(ConfigError, match="nakagami_m == 1"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(ConfigError, match="'bogus'"):
            load_config(path)

    def test_unknown_sweep_key_named(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["sweep"]["typo"] = 1
        with pytest.raises(ConfigError, match="'typo'"):
            parse_config(raw)

    def test_negative_gain_rejected(self, tmp_path):
        path = write_config(tmp_path, {"omega_h2": -1.0})
        with pytest.raises(ConfigError, match="mean_gain_hop2"):
            load_config(path)

    def test_lambda2_sweep_needs_fixed_levels(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["sweep"]["variable"] = "lambda2"
        with pytest.raises(ConfigError, match="lambda1_db"):
            parse_config(raw)

    def test_step_must_be_positive(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["sweep"]["step_db"] = 0
        with pytest.raises(ConfigError, match="step_db"):
            parse_config(raw)

    def test_trials_floor(self, tmp_path):
        path = write_config(tmp_path, {"trials": 10})
        with pytest.raises(ConfigError, match="trials"):
            load_config(path)

    @pytest.mark.parametrize("block, key, value", [
        (None, "gamma_th_db", math.nan),
        (None, "d1", math.inf),
        ("sweep", "start_db", -math.inf),
        ("csi", "error_ratio_h1", math.nan),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, block, key, value):
        raw = json.loads(json.dumps(MINIMAL))
        raw["nakagami_m"] = 1
        raw["csi"] = {"error_ratio_h1": 0.05, "error_ratio_h2": 0.05,
                      "error_ratio_f": 0.05}
        (raw[block] if block else raw)[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")  # emits NaN/Infinity
        with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
            load_config(path)
        assert main(["--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_maxmin_map_table_cap(self):
        raw = dict(MINIMAL, num_users=5, num_relays=11)
        with pytest.raises(ConfigError, match="num_users=5 and num_relays=11"):
            parse_config(raw)
        assert parse_config(dict(raw, scheme="naive")).num_relays == 11

    @pytest.mark.parametrize("key", ["lambda1_db", "lambda3_db"])
    def test_fixed_level_rejected_on_lambda_all_sweep(self, key):
        with pytest.raises(ConfigError, match=f"{key} does not apply"):
            parse_config(dict(MINIMAL, **{key: 10.0}))

    def test_sweep_point_cap(self, monkeypatch):
        raw = json.loads(json.dumps(MINIMAL))
        raw["sweep"].update(start_db=0.0, stop_db=60.0, step_db=1e-9)
        # the check must refuse the config before any point list is built
        monkeypatch.setattr(SweepSpec, "points", None)
        with pytest.raises(ConfigError, match="step_db"):
            parse_config(raw)
        raw["sweep"]["step_db"] = 0.25  # 241 points, as in a fine sweep
        assert parse_config(raw).sweep.step_db == 0.25

    @pytest.mark.parametrize("key", ["gamma_th_db", "lambda1_db", "lambda3_db",
                                     "start_db", "stop_db"])
    def test_overflowing_db_rejected(self, key):
        raw = json.loads(json.dumps(MINIMAL))
        raw.update(lambda1_db=10.0, lambda3_db=10.0)
        raw["sweep"]["variable"] = "lambda2"
        if key in raw["sweep"]:
            raw["sweep"].update({"stop_db": 4000.0, key: 4000.0})
        else:
            raw[key] = 4000.0
        with pytest.raises(ConfigError, match=f"{key}=4000.0 is too large"):
            parse_config(raw)

    @pytest.mark.parametrize("overrides, key", [
        ({"gamma_th_db": -4000.0}, "gamma_th_db"),
        ({"sweep": {"variable": "lambda_all", "start_db": -4000.0,
                    "stop_db": 10.0, "step_db": 5.0}}, "sweep start_db"),
        ({"d1": 1e200, "path_loss_exp": 4.0}, "d1"),
        ({"d2": 1e-200, "path_loss_exp": 4.0}, "d2"),
        ({"d3": 1e-80, "path_loss_exp": 4.0}, "d3"),  # subnormal
        # a mean gain over the path loss: omega/d^b
        ({"omega_h2": 1e300, "d2": 1e-10, "path_loss_exp": 4.0}, "omega_h2"),
        ({"omega_h1": 1e-300, "d1": 1e10, "path_loss_exp": 4.0}, "omega_h1"),
        ({"omega_f": 1e-300, "d3": 1e5, "path_loss_exp": 2.0}, "omega_f"),
    ], ids=["threshold", "sweep-level", "d-overflow", "d-underflow",
            "d-subnormal", "gain-overflow", "gain-underflow", "gain-subnormal"])
    def test_out_of_range_level_rejected(self, tmp_path, capsys, overrides,
                                         key):
        # each config passed the parser and then died in its sweep with a
        # traceback (a threshold of 0, a division by a level of 0, an
        # overflow building the SNR matrix, a log of 0, a math domain
        # error or a division by zero in the high-SNR coefficient)
        path = write_config(tmp_path, overrides)
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key}=" in err
        # the message names every key that the value is formed from
        assert all(name in err for name in overrides if name != "path_loss_exp")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_interference_gain_runs_without_warning(self, tmp_path):
        # an effective interference gain of 1e-306 is admitted; the
        # interference limit λ3·d3^b/f overflows to inf for the smallest
        # draws, which is the right relay power (the cap cannot bind), and
        # printed an overflow warning
        path = write_config(tmp_path, {
            "nakagami_m": 1, "omega_f": 1e-300, "d3": 1e3, "path_loss_exp": 2.0,
            "output": str(tmp_path / "tiny.csv")})
        assert main(["--config", str(path)]) == 0
        assert (tmp_path / "tiny.csv").exists()

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestRunSweep:
    def test_csv_schema_and_determinism(self, tmp_path):
        config = load_config(write_config(tmp_path))
        out1 = run_sweep(config, tmp_path / "a.csv")
        out2 = run_sweep(config, tmp_path / "b.csv")
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().split("\n")
        assert lines[0] == CSV_HEADER
        assert b"\r" not in data1
        # 3 sweep points x 2 users (+ header + trailing newline)
        assert len([ln for ln in lines if ln]) == 1 + 3 * 2

    def test_per_user_exact_identical_under_maxmin(self, tmp_path):
        config = load_config(write_config(tmp_path))
        rows = [ln.split(",") for ln in
                run_sweep(config, tmp_path / "c.csv").read_text().splitlines()[1:]]
        by_point = {}
        for row in rows:
            by_point.setdefault(row[0], []).append(float(row[2]))
        for values in by_point.values():
            assert max(values) - min(values) <= 1e-12 * max(values)

    def test_floor_column_constant_on_lambda2_sweep(self, tmp_path):
        path = write_config(tmp_path, {
            "nakagami_m": 1,
            "lambda1_db": 25.0, "lambda3_db": 10.0,
            "sweep": {"variable": "lambda2", "start_db": 0.0,
                      "stop_db": 20.0, "step_db": 10.0}})
        rows = [ln.split(",") for ln in
                run_sweep(load_config(path),
                          tmp_path / "d.csv").read_text().splitlines()[1:]]
        floors = {row[4] for row in rows}
        assert len(floors) == 1 and "" not in floors

    def test_throughput_mode_fills_throughput_columns(self, tmp_path):
        path = write_config(tmp_path, {
            "nakagami_m": 1, "mode": "throughput",
            "lambda1_db": 25.0, "lambda3_db": 10.0,
            "sweep": {"variable": "lambda2", "start_db": 10.0,
                      "stop_db": 10.0, "step_db": 5.0}})
        rows = [ln.split(",") for ln in
                run_sweep(load_config(path),
                          tmp_path / "e.csv").read_text().splitlines()[1:]]
        for row in rows:
            assert row[2] == "" and row[5] == ""
            closed, mc = float(row[8]), float(row[9])
            assert math.isfinite(closed) and math.isfinite(mc)
            assert abs(closed - mc) / closed < 0.2

    def test_pk_mode_writes_rank_table(self, tmp_path):
        path = write_config(tmp_path, {"mode": "pk"})
        out = run_sweep(load_config(path), tmp_path / "pk.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "user,k,prob"
        assert len(lines) == 1 + 2 * 6
        total = sum(float(ln.split(",")[2]) for ln in lines[1:])
        assert total == pytest.approx(2.0, abs=1e-9)


def sweep_config(**overrides):
    """MINIMAL on a 5-point common-SNR sweep around the outage knee."""
    sweep = {"variable": "lambda_all", "start_db": -5.0, "stop_db": 15.0,
             "step_db": 5.0}
    return parse_config({**MINIMAL, "sweep": sweep, **overrides})


CSI = {"error_ratio_h1": 0.05, "error_ratio_h2": 0.05, "error_ratio_f": 0.05}
# 66536 trials of a 2x3 sweep_config: three full blocks and 1001 trials
# of a fourth
BLOCK_2X3 = _block_trials(NetworkTopology(2, 3))
SPANNING = 3 * BLOCK_2X3 + 1001
LAMBDA2 = {"sweep": {"variable": "lambda2", "start_db": 0.0, "stop_db": 20.0,
                     "step_db": 5.0},
           "lambda1_db": 25.0, "lambda3_db": 10.0}


class TestSweepReuse:
    """Every sweep draws its trials once, on the stream of point 0, and
    reads every point from them; a lambda_all sweep without CSI does so
    at unit power."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 3)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_shared_pass_equals_per_point_path(self, scheme, shape):
        config = sweep_config(num_users=shape[0], num_relays=shape[1],
                              scheme=scheme)
        self.assert_cells_equal_per_point_calls(config)

    def test_shared_pass_spans_blocks(self):
        self.assert_cells_equal_per_point_calls(sweep_config(trials=SPANNING))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["csi", "lambda2"])
    @pytest.mark.parametrize("trials", [2000, SPANNING])
    def test_budget_sweep_equals_one_budget_calls(self, scheme, kind, trials):
        # each point reads its own budget from the shared draws
        overrides = {"csi": CSI} if kind == "csi" else LAMBDA2
        self.assert_cells_equal_per_point_calls(
            sweep_config(nakagami_m=1, scheme=scheme, trials=trials, **overrides))

    @staticmethod
    def assert_cells_equal_per_point_calls(config):
        # same stream, budget and threshold: the same hit count per cell
        gamma_th = db_to_linear(config.gamma_th_db)
        seed = _point_seed(config.seed, 0)
        for point in evaluate_sweep(config, _rank_distribution(config)):
            assert point.mc == estimate_outage(
                config.topology(), config.budget_at(point.sweep_db),
                config.scheme, gamma_th, config.trials, seed,
                csi=config.csi_model()), point.sweep_db

    def test_throughput_shared_pass_matches_per_point_path(self):
        config = sweep_config(nakagami_m=1, mode="throughput")
        seed = _point_seed(config.seed, 0)
        for point in evaluate_sweep(config, _rank_distribution(config)):
            per_point = estimate_throughput(
                config.topology(), config.budget_at(point.sweep_db),
                config.scheme, config.trials, seed)
            for shared, single in zip(point.mc, per_point):
                assert shared.mean == pytest.approx(single.mean, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["maxmin", "naive"])
    @pytest.mark.parametrize("trials", [2000, SPANNING])
    def test_lambda2_throughput_equals_one_budget_calls(self, scheme, trials):
        config = sweep_config(nakagami_m=1, mode="throughput", scheme=scheme,
                              trials=trials, **LAMBDA2)
        seed = _point_seed(config.seed, 0)
        for point in evaluate_sweep(config, _rank_distribution(config)):
            assert point.mc == estimate_throughput(
                config.topology(), config.budget_at(point.sweep_db),
                config.scheme, config.trials, seed), point.sweep_db

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("overrides", [
        {}, {"csi": CSI}, LAMBDA2, {"mode": "throughput", **LAMBDA2},
    ], ids=["lambda_all", "csi", "lambda2", "lambda2-throughput"])
    def test_one_draw_per_block(self, monkeypatch, scheme, overrides):
        config = sweep_config(nakagami_m=1, scheme=scheme, trials=SPANNING,
                              **overrides)
        pk = _rank_distribution(config)
        draws = []
        for name in ("sample_realization", "sample_estimated_realization"):
            def counted(*args, _sample=getattr(model, name), _name=name,
                        **kwargs):
                draws.append((_name, kwargs["trials"]))
                return _sample(*args, **kwargs)
            monkeypatch.setattr(model, name, counted)
        evaluate_sweep(config, pk)
        # every block samples through one call, with or without CSI
        assert draws == ([("sample_realization", BLOCK_2X3)] * 3
                         + [("sample_realization", 1001)])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_outage_mc_nonincreasing_in_level(self, tmp_path, scheme):
        # common random numbers: a higher level lowers every threshold
        config = parse_config({**MINIMAL, "scheme": scheme, "trials": 5000,
                               "sweep": {"variable": "lambda_all", "start_db": -5.0,
                                         "stop_db": 20.0, "step_db": 1.25}})
        rows = [ln.split(",") for ln in
                run_sweep(config, tmp_path / "m.csv").read_text().splitlines()[1:]]
        for user in ("1", "2"):
            curve = [float(row[5]) for row in rows if row[1] == user]
            assert len(curve) == 21
            assert all(later <= earlier for earlier, later in zip(curve, curve[1:]))

    def test_memory_bounded_at_point_cap(self):
        # a (points, trials) array of one 10922-trial 3x4 block would take
        # 874 MB as float64; only the thresholds are read from the config
        config = parse_config({**MINIMAL, "num_users": 3, "num_relays": 4,
                               "nakagami_m": 1,
                               "sweep": {"variable": "lambda_all",
                                         "start_db": -1250.0, "stop_db": 1249.75,
                                         "step_db": 0.25}})
        budgets, levels = _mc_points(config, config.sweep.points())
        assert len(levels) == MAX_SWEEP_POINTS
        thresholds = [budget.threshold_snr / level
                      for budget, level in zip(budgets, levels)]
        tracemalloc.start()
        try:
            estimates = estimate_outage(config.topology(), budgets, "maxmin",
                                        thresholds,
                                        _block_trials(config.topology()),
                                        _point_seed(config.seed, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == MAX_SWEEP_POINTS
        assert peak < 128 * 2**20

    def test_memory_bounded_at_wide_shape(self):
        # a naive 1x2000 sweep holds 65 trials per block, whose gains are
        # three 1 MiB arrays (3.7 MiB traced peak measured); a block of
        # all 20000 trials would draw 960 MB
        config = parse_config({**MINIMAL, "num_users": 1, "num_relays": 2000,
                               "nakagami_m": 1, "scheme": "naive",
                               "trials": 20_000, "seed": 1})
        budgets, levels = _mc_points(config, config.sweep.points())
        thresholds = [budget.threshold_snr / level
                      for budget, level in zip(budgets, levels)]
        tracemalloc.start()
        try:
            estimates = estimate_outage(config.topology(), budgets, "naive",
                                        thresholds, config.trials,
                                        _point_seed(config.seed, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == 3
        assert peak < 16 * 2**20


class TestRankDistribution:
    @pytest.mark.parametrize("shape", [(3, 4), (2, 8)], ids=["3x4", "2x8"])
    def test_random_exact_beyond_enumeration(self, shape):
        config = sweep_config(num_users=shape[0], num_relays=shape[1],
                              scheme="random")
        pk = _rank_distribution(config)
        assert pk.trials == 0
        assert np.all(pk.per_user == 1.0 / (shape[0] * shape[1]))

    @pytest.mark.parametrize("scheme, shape, method", [
        ("maxmin", (3, 4), "exact-recursion"),
        ("maxmin", (5, 5), "monte-carlo"),
        ("maxmin", (1, 30), "exact-closed-form"),
        ("naive", (2, 5), "exact-closed-form"),
        ("naive", (3, 4), "exact-closed-form"),
    ], ids=["maxmin-3x4", "maxmin-5x5", "maxmin-1x30", "naive-2x5", "naive-3x4"])
    def test_exact_wherever_admitted(self, monkeypatch, scheme, shape, method):
        monkeypatch.setattr(cli, "PK_MC_TRIALS", 1000)
        config = sweep_config(num_users=shape[0], num_relays=shape[1],
                              scheme=scheme)
        pk = _rank_distribution(config)
        assert pk.method == method
        assert (pk.trials == 0) == method.startswith("exact")

    @pytest.mark.parametrize("shape", [(3, 4), (2, 8)], ids=["3x4", "2x8"])
    def test_naive_pk_mode_exact(self, tmp_path, shape):
        path = write_config(tmp_path, {"mode": "pk", "scheme": "naive",
                                       "num_users": shape[0],
                                       "num_relays": shape[1]})
        config = load_config(path)
        pk = _rank_distribution(config)
        assert (pk.method, pk.trials) == ("exact-closed-form", 0)
        lines = run_sweep(config, tmp_path / "pk.csv").read_text().splitlines()
        probs = [float(line.split(",")[2]) for line in lines[1:]]
        assert probs == [float(format(p, ".12g")) for p in pk.per_user.ravel()]


class TestMcVerdict:
    def test_wide_interval_holding_value_is_inconclusive(self):
        # fig1 at 30 dB: no hits in 1e5 trials at z=3
        est = McEstimate(0.0, 0.0, 9.0e-5, 100_000, 0)
        assert _mc_verdict(1.6e-7, est)[0] == "INCONCLUSIVE"

    def test_narrow_interval_holding_value_passes(self):
        est = McEstimate(0.100, 0.098, 0.102, 100_000, 0)
        assert _mc_verdict(0.0995, est)[0] == "PASS"

    def test_narrow_interval_missing_value_fails(self):
        est = McEstimate(0.100, 0.098, 0.102, 100_000, 0)
        assert _mc_verdict(0.11, est)[0] == "FAIL"


class TestValidateMode:
    def test_default_recipe_passes(self, tmp_path):
        config = load_config(write_config(tmp_path, {"trials": 20_000}))
        report = run_validate(config)
        assert not report.failed
        statuses = {name: status for name, status, _ in report.checks}
        assert statuses["rank-probabilities-normalised"] == "PASS"
        assert statuses["worst-rank-probability"] == "PASS"

    def test_worst_rank_checked_beyond_enumeration(self, tmp_path):
        config = load_config(write_config(tmp_path, {
            "num_users": 3, "num_relays": 4, "nakagami_m": 1}))
        statuses = {name: status for name, status, _ in run_validate(config).checks}
        assert statuses["worst-rank-probability"] == "PASS"

    def test_one_monte_carlo_pass(self, monkeypatch, capsys):
        # the fairness z-test reads the per-user counts of the sweep's pass
        calls = []

        def counted(*args, _estimate=montecarlo.estimate_outage, **kwargs):
            calls.append(args)
            return _estimate(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "estimate_outage", counted)
        assert main(["--config", "recipes/fig1.json", "--mode", "validate"]) == 0
        assert len(calls) == 1
        assert "user-fairness-ztest" in capsys.readouterr().out

    def test_tiny_trials_mark_inconclusive_not_fail(self, tmp_path):
        # at 1000 trials the high-SNR points cannot be resolved; entries
        # must degrade to INCONCLUSIVE or PASS, never FAIL
        path = write_config(tmp_path, {
            "trials": 1000,
            "sweep": {"variable": "lambda_all", "start_db": 0.0,
                      "stop_db": 40.0, "step_db": 10.0}})
        report = run_validate(load_config(path))
        assert not report.failed
        assert "CI too wide" in report.render() or not any(
            status == "INCONCLUSIVE" for _, status, _ in report.checks)

    @pytest.mark.parametrize("overrides, check, absent", [
        ({"mode": "throughput", "lambda1_db": 25.0, "lambda3_db": 10.0,
          "sweep": {"variable": "lambda2", "start_db": 0.0, "stop_db": 20.0,
                    "step_db": 10.0}},
         "analytic-vs-mc@20dB", "user-fairness-ztest"),
        ({"csi": {"error_ratio_h1": 0.05, "error_ratio_h2": 0.1,
                  "error_ratio_f": 0.05}},
         "imperfect-csi-floor", "diversity-order-slope"),
        ({"lambda1_db": 25.0, "lambda3_db": 10.0,
          "sweep": {"variable": "lambda2", "start_db": 0.0, "stop_db": 60.0,
                    "step_db": 30.0}},
         "outage-floor", "diversity-order-slope"),
    ], ids=["throughput", "csi-floor", "relay-cap-floor"])
    def test_mode_specific_checks_pass(self, tmp_path, overrides, check, absent):
        path = write_config(tmp_path, {"nakagami_m": 1, "trials": 5000,
                                       **overrides})
        report = run_validate(load_config(path))
        assert not report.failed
        statuses = {name: status for name, status, _ in report.checks}
        assert statuses[check] == "PASS"
        assert absent not in statuses

    def test_throughput_check_has_power(self, monkeypatch):
        # fig4's closed-form throughput 10% high must fail its Monte Carlo
        # cross-check at several points (9 of 9 when this was written);
        # the sweep reads every budget in one call, which returns a list
        def high(*args, _throughput=analytic.average_throughput):
            return [1.1 * value for value in _throughput(*args)]

        monkeypatch.setattr(analytic, "average_throughput", high)
        report = run_validate(load_config(
            Path(__file__).resolve().parent.parent / "recipes" / "fig4.json"))
        failed = [name for name, status, _ in report.checks
                  if name.startswith("analytic-vs-mc@") and status == "FAIL"]
        assert len(failed) >= 3, report.render()


class TestMainEntry:
    def test_success_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"output": str(tmp_path / "out.csv")})
        assert main(["--config", str(path)]) == 0
        assert (tmp_path / "out.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"num_users": 9})
        assert main(["--config", str(path)]) == 1
        assert "num_relays" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["--config", "/nonexistent/nowhere.json"]) == 1

    def test_dump_config_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["--config", str(path), "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["num_users"] == 2
        assert dumped["sweep"]["stop_db"] == 10.0

    def test_cli_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["--config", str(path), "--trials", "3000", "--seed",
                     "11", "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["trials"] == 3000
        assert dumped["seed"] == 11
        assert main(["--config", str(path), "--trials", "10"]) == 1
        assert "trials" in capsys.readouterr().err

    def test_validate_mode_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"trials": 5000})
        assert main(["--config", str(path), "--mode", "validate"]) == 0
        assert "analytic-vs-mc" in capsys.readouterr().out

    def test_maxmin_4x6_throughput_sweep_exits_zero(self, tmp_path):
        # the paper's alternating throughput sum cancels by 6e8 at 4x6
        path = write_config(tmp_path, {
            "num_users": 4, "num_relays": 6, "nakagami_m": 1,
            "mode": "throughput", "lambda1_db": 25.0, "lambda3_db": 10.0,
            "trials": 1000,
            "sweep": {"variable": "lambda2", "start_db": 0.0,
                      "stop_db": 10.0, "step_db": 5.0},
            "output": str(tmp_path / "m46.csv")})
        assert main(["--config", str(path)]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "m46.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12
        column = CSV_HEADER.split(",").index("throughput_exact")
        assert all(math.isfinite(float(row[column])) for row in rows)


NAIVE_RELAY_CAP = {
    "num_users": 3, "num_relays": 3, "nakagami_m": 1, "scheme": "naive",
    "lambda1_db": 25.0, "lambda3_db": 10.0,
    "sweep": {"variable": "lambda2", "start_db": 0.0, "stop_db": 60.0,
              "step_db": 30.0}}


class TestPerUserFloor:
    def test_naive_floor_validates(self, tmp_path, capsys):
        # naive users settle at different floors: the check reads user 0's
        path = write_config(tmp_path, NAIVE_RELAY_CAP)
        assert main(["--config", str(path), "--mode", "validate"]) == 0
        assert "[        PASS] outage-floor" in capsys.readouterr().out

    def test_naive_floor_column_is_each_users_own(self, tmp_path):
        config = load_config(write_config(tmp_path, NAIVE_RELAY_CAP))
        pk = _rank_distribution(config)
        budget = config.budget_at(60.0)
        rows = [ln.split(",") for ln in
                run_sweep(config, tmp_path / "n.csv").read_text().splitlines()[1:]]
        top = [row for row in rows if float(row[0]) == 60.0]
        assert len(top) == 3
        for row, pk_row in zip(top, pk.per_user):
            floor = analytic.asymptotic_outage_case2(
                budget.threshold_snr, config.topology(), budget, pk_row)
            assert row[4] == cli._fmt(floor)
            assert abs(float(row[2]) - floor) <= 1e-9 * floor
        assert len({row[4] for row in top}) == 3

    def test_maxmin_4x5_outage_sweep_exits_zero(self, tmp_path, capsys):
        # max-min 4x5 weighs ranks up to 20, where the binomial terms of
        # the k-th-largest CDF span many orders of magnitude
        path = write_config(tmp_path, {
            "num_users": 4, "num_relays": 5, "nakagami_m": 1, "trials": 1000,
            "sweep": {"variable": "lambda_all", "start_db": 0.0,
                      "stop_db": 5.0, "step_db": 5.0},
            "output": str(tmp_path / "m45.csv")})
        assert main(["--config", str(path)]) == 0
        rows = (tmp_path / "m45.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert all(0.0 < float(row.split(",")[2]) < 1.0 for row in rows)


class TestRecipes:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
    def test_shipped_recipes_parse(self, name):
        config = load_config(f"recipes/{name}.json")
        assert config.trials >= 1000
        assert len(config.sweep.points()) >= 2
