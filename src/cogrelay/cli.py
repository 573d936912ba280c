"""Experiment orchestration: JSON configs in, CSV sweeps out.

A config describes one network (topology + power budget in dB), a
selection scheme, a sweep over either the common SNR or the relay power
cap, and a mode:

* ``outage``      exact / asymptotic / Monte-Carlo outage per user
* ``throughput``  closed-form and Monte-Carlo average throughput
* ``pk``          rank-placement probabilities of the scheme
* ``validate``    self-check report (analytic vs MC, slope, floor, ranks)

The sweep CSV column set is fixed (see ``CSV_HEADER``); cells that do
not apply to the mode at hand stay empty.  Output bytes are a pure
function of the config and seed.

Sweep and validate read every point from one evaluator,
:func:`evaluate_sweep`.  Every sweep draws its Monte Carlo trials once,
on the stream of point 0, and reads every point from them, so its Monte
Carlo cells are correlated between points.  A common-SNR
(``lambda_all``) sweep without CSI scores every point on one unit-power
SNR matrix; every other sweep builds each point's SNR matrix from the
same channel draws.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analytic, montecarlo
from .model import (CsiErrorModel, LinkBudget, NetworkTopology, _check_range,
                    _flow, db_to_linear)
from .selection import (
    _MAX_ASSIGNMENT_TABLE,
    RankPlacementDistribution,
    rank_placement_probs,
)

__all__ = ["ConfigError", "ExperimentConfig", "PointResult", "load_config",
           "evaluate_sweep", "run_sweep", "run_validate", "main"]

CSV_HEADER = ("sweep_db,user,outage_exact,outage_asym1,outage_asym2,"
              "outage_mc,mc_ci_low,mc_ci_high,throughput_exact,throughput_mc")

SCHEMES = ("maxmin", "naive", "random")
MODES = ("outage", "throughput", "pk", "validate")
SWEEP_VARIABLES = ("lambda_all", "lambda2")

MIN_TRIALS = 1000
MAX_SWEEP_POINTS = 10_000
PK_MC_TRIALS = 1_000_000


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start_db: float
    stop_db: float
    step_db: float

    def points(self) -> list[float]:
        count = int(math.floor((self.stop_db - self.start_db) / self.step_db + 1e-9))
        return [self.start_db + i * self.step_db for i in range(count + 1)]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(NetworkTopology):
    """One experiment: the network (:class:`NetworkTopology`, which checks
    its keys) and the threshold, levels, scheme, sweep and run settings."""

    gamma_th_db: float
    sweep: SweepSpec
    lambda1_db: float | None = None
    lambda3_db: float | None = None
    scheme: str = "maxmin"
    mode: str = "outage"
    trials: int = 100_000
    seed: int = 0
    csi: CsiErrorModel | None = None
    output: str | None = None

    def topology(self) -> NetworkTopology:
        """The network alone, as the library's functions take it."""
        return NetworkTopology(**{f.name: getattr(self, f.name)
                                  for f in dataclasses.fields(NetworkTopology)})

    def budget_at(self, sweep_db: float) -> LinkBudget:
        if self.sweep.variable == "lambda_all":
            lam = db_to_linear(sweep_db)
            return LinkBudget(lam, lam, lam)
        return LinkBudget(db_to_linear(self.lambda1_db),
                          db_to_linear(sweep_db),
                          db_to_linear(self.lambda3_db))


def _field_schema(cls) -> dict[str, tuple[type, bool, bool]]:
    """key -> (value type, required, nullable) from the dataclass fields;
    an optional ``X | None`` field takes an X value, or null for None."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        kind = next((a for a in typing.get_args(kind) if a is not type(None)), kind)
        schema[f.name] = (kind, f.default is dataclasses.MISSING, f.default is None)
    return schema


_SCHEMA = {cls: _field_schema(cls)
           for cls in (ExperimentConfig, SweepSpec, CsiErrorModel)}
_JSON_TYPES = {int: int, float: (int, float), str: str}


def _build(cls, block: dict, where: str):
    """Check one JSON object against the fields of ``cls`` and build it;
    a nested dataclass field takes a JSON object named after the field."""
    schema = _SCHEMA[cls]
    for key in block:
        if key not in schema:
            raise ConfigError(f"unknown {where} key: {key!r}")
    for key, value in block.items():
        kind, _, nullable = schema[key]
        if value is None and nullable:
            continue
        want = dict if dataclasses.is_dataclass(kind) else _JSON_TYPES[kind]
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigError(f"{where} key {key!r} has invalid type "
                              f"{type(value).__name__}")
        # json.loads admits NaN and Infinity
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} key {key!r} must be finite, got {value}")
    for key, (_, required, _) in schema.items():
        if required and key not in block:
            raise ConfigError(f"missing required {where} key: {key!r}")
    kwargs = {key: _build(schema[key][0], value, key)
              if isinstance(value, dict) else value
              for key, value in block.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a block that refuses its own values
        raise ConfigError(f"{where} {exc}") from None


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    config = _build(ExperimentConfig, raw, "config")
    _validate(config)
    return config


def _validate(config: ExperimentConfig):
    sweep = config.sweep
    if sweep.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                          f"got {sweep.variable!r}")
    if sweep.step_db <= 0:
        raise ConfigError("sweep step_db must be > 0")
    if sweep.stop_db < sweep.start_db:
        raise ConfigError("sweep stop_db must be >= start_db")
    for key, value in (("gamma_th_db", config.gamma_th_db),
                       ("lambda1_db", config.lambda1_db),
                       ("lambda3_db", config.lambda3_db),
                       ("sweep start_db", sweep.start_db),
                       ("sweep stop_db", sweep.stop_db)):
        if value is not None:
            _check_range(key, value, lambda: db_to_linear(value),
                         "linear value", ConfigError)
    # multiply rather than divide: a tiny step would overflow the count
    if sweep.stop_db - sweep.start_db >= MAX_SWEEP_POINTS * sweep.step_db:
        raise ConfigError(
            f"sweep step_db={sweep.step_db} gives more than {MAX_SWEEP_POINTS} "
            f"points from {sweep.start_db} to {sweep.stop_db} dB")
    if config.scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {config.scheme!r}")
    if config.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {config.mode!r}")
    if config.trials < MIN_TRIALS:
        raise ConfigError(f"trials must be >= {MIN_TRIALS}, got {config.trials}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if config.csi is not None:
        if config.nakagami_m != 1:
            raise ConfigError("csi block requires nakagami_m == 1 "
                              "(the imperfect-CSI model is Rayleigh only)")
    if config.mode == "throughput":
        if config.nakagami_m != 1:
            raise ConfigError("throughput mode requires nakagami_m == 1")
        if config.csi is not None:
            raise ConfigError("throughput mode does not support a csi block")
    for key in ("lambda1_db", "lambda3_db"):
        if sweep.variable == "lambda2" and getattr(config, key) is None:
            raise ConfigError("a lambda2 sweep requires lambda1_db and "
                              "lambda3_db to be set")
        if sweep.variable == "lambda_all" and getattr(config, key) is not None:
            raise ConfigError(f"{key} does not apply to a lambda_all sweep, "
                              f"which sets every power level to the swept value")
    # the closed forms divide by each hop's effective gain times its level
    # and by the interference gain times the relay level, and read hop 2's
    # interference-limited SNR scale o2·λ3/o3 in a ratio that an infinite
    # scale turns into NaN; each grows with its level, so a sweep's ends
    # bound it
    ends = (("sweep start_db", sweep.start_db), ("sweep stop_db", sweep.stop_db))
    source, interference = (
        ((("lambda1_db", config.lambda1_db),), (("lambda3_db", config.lambda3_db),))
        if sweep.variable == "lambda2" else (ends, ends))
    o1, o2, o3 = config.eff_gain_hop1, config.eff_gain_hop2, config.eff_gain_interf
    for levels, gain, gain_key, key in ((source, o1, "omega_h1", "d1"),
                                        (ends, o2, "omega_h2", "d2"),
                                        (ends, o3, "omega_f", "d3")):
        for level_key, value in levels:
            _check_range(level_key, value, lambda: gain * db_to_linear(value),
                         f"linear value times the effective gain "
                         f"{gain_key}/{key}^path_loss_exp", ConfigError)
    for level_key, value in interference:
        if _flow(lambda: o2 * db_to_linear(value) / o3) == "over":
            raise ConfigError(
                f"{level_key}={value} is too large: its linear value times "
                f"omega_h2/d2^path_loss_exp over omega_f/d3^path_loss_exp "
                f"overflows a float")
    maps = math.perm(config.num_relays, config.num_users)
    if config.scheme == "maxmin" and maps > _MAX_ASSIGNMENT_TABLE:
        raise ConfigError(
            f"max-min selection for num_users={config.num_users} and "
            f"num_relays={config.num_relays} enumerates {maps} injective maps, "
            f"above the cap of {_MAX_ASSIGNMENT_TABLE}"
        )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _rank_distribution(config: ExperimentConfig) -> RankPlacementDistribution:
    """The scheme's rank-placement distribution: exact wherever
    :func:`rank_placement_probs` admits the shape, else a Monte Carlo
    estimate on its own stream."""
    return rank_placement_probs(
        config.num_users, config.num_relays, config.scheme,
        trials=max(PK_MC_TRIALS, config.trials),
        rng=_point_seed(config.seed, 0x7072))


@dataclass(frozen=True)
class PointResult:
    """One sweep point.  ``exact`` holds the per-user closed form of the
    mode (outage or throughput), ``asym2`` the per-user floor and ``mc``
    the matching per-user Monte Carlo estimates; an asymptote that does
    not apply is None."""

    sweep_db: float
    exact: list[float]
    asym1: float | None
    asym2: list[float] | None
    mc: list[montecarlo.McEstimate]


def _mc_points(config: ExperimentConfig, points: list[float]):
    """The Monte Carlo budget of each sweep point and the level its
    selected SNRs are scaled by.

    Without CSI every SNR of a ``lambda_all`` sweep is the swept level
    times the SNR at unit power, and every scheme depends only on the
    rank order of the SNRs.  So every point of such a sweep uses the
    unit-power budget: outage at level λ counts the unit-power SNRs at
    or below γ_th/λ, and throughput takes the rate at λ times them.
    Every other point uses its own budget at level 1.
    """
    if config.sweep.variable == "lambda_all" and config.csi is None:
        unit = LinkBudget(1.0, 1.0, 1.0)
        return [unit] * len(points), [db_to_linear(point_db) for point_db in points]
    return [config.budget_at(point_db) for point_db in points], [1.0] * len(points)


def evaluate_sweep(config: ExperimentConfig, pk: RankPlacementDistribution,
                   z: float = 1.96) -> list[PointResult]:
    """Closed forms and their Monte Carlo cross-check (interval at
    ``z``) at every sweep point; ``pk`` is the run's rank-placement
    distribution.  The Monte Carlo side is one estimator call on the
    stream of point 0; each closed form is read at every point once per
    distinct pk row."""
    topology, csi = config.topology(), config.csi
    gamma_th = db_to_linear(config.gamma_th_db)
    points = config.sweep.points()
    budgets, levels = _mc_points(config, points)
    exact_budgets = [config.budget_at(point_db) for point_db in points]
    seed = _point_seed(config.seed, 0)
    if config.mode == "throughput":
        mc = montecarlo.estimate_throughput(
            topology, budgets, config.scheme, config.trials, seed, z=z,
            scales=levels)
        exact = _per_user(pk, lambda row: analytic.average_throughput(
            topology, exact_budgets, row))
        return [PointResult(point_db, values, None, None, estimates)
                for point_db, values, estimates in zip(points, exact, mc)]
    mc = montecarlo.estimate_outage(
        topology, budgets, config.scheme,
        [gamma_th / level for level in levels], config.trials, seed,
        z=z, csi=csi)
    if csi is None:
        exact = _per_user(pk, lambda row: [analytic.outage_probability(
            gamma_th, topology, budget, row) for budget in exact_budgets])
    else:
        exact = _per_user(pk, lambda row: [analytic.outage_probability_imperfect(
            gamma_th, topology, budget, csi, row) for budget in exact_budgets])
    lambda_all = config.sweep.variable == "lambda_all"
    asym1 = asym2 = [None] * len(points)
    if lambda_all and csi is None and config.scheme == "maxmin":
        asym1 = [analytic.asymptotic_outage_case1(
            gamma_th, db_to_linear(point_db), topology) for point_db in points]
    if not lambda_all and csi is None:
        asym2 = _per_user(pk, lambda row: [analytic.asymptotic_outage_case2(
            gamma_th, topology, budget, row) for budget in exact_budgets])
    if lambda_all and csi is not None:
        asym2 = _per_user(pk, lambda row: [analytic.outage_floor_imperfect(
            gamma_th, csi, config.num_users, config.num_relays, row)] * len(points))
    return [PointResult(*cells) for cells in zip(points, exact, asym1, asym2, mc)]


def _per_user(pk: RankPlacementDistribution, closed_form) -> list[list]:
    """``closed_form(row)``, one value per sweep point, for every user's
    pk row, evaluated once per distinct row (max-min rows are all equal
    when pk is exact); returned as one per-user list per point."""
    values: dict[bytes, list] = {}
    for row in pk.per_user:
        if row.tobytes() not in values:
            values[row.tobytes()] = closed_form(row)
    return [list(point) for point in zip(*(values[row.tobytes()]
                                           for row in pk.per_user))]


def _write(config: ExperimentConfig, output, lines: list[str]) -> Path:
    path = Path(output or config.output or f"{config.mode}_{config.scheme}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def run_sweep(config: ExperimentConfig, output=None) -> Path:
    """Run the configured sweep and write one CSV row per (point, user)."""
    if config.mode == "pk":
        return _run_pk(config, output)
    pk = _rank_distribution(config)
    throughput = config.mode == "throughput"
    lines = [CSV_HEADER]
    for point in evaluate_sweep(config, pk):
        for user, (exact, est) in enumerate(zip(point.exact, point.mc), start=1):
            outage = (None, None) if throughput else (exact, est.mean)
            tp = (exact, est.mean) if throughput else (None, None)
            floor = None if point.asym2 is None else point.asym2[user - 1]
            cells = (outage[0], point.asym1, floor, outage[1],
                     est.ci_low, est.ci_high, *tp)
            lines.append(",".join([_fmt(point.sweep_db), str(user)]
                                  + [_fmt(v) for v in cells]))
    return _write(config, output, lines)


def _run_pk(config: ExperimentConfig, output=None) -> Path:
    pk = _rank_distribution(config)
    return _write(config, output, ["user,k,prob"] + [
        f"{u + 1},{k + 1},{_fmt(prob)}"
        for u, row in enumerate(pk.per_user) for k, prob in enumerate(row)])


# ---------------------------------------------------------------------------
# validation mode
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    checks: list[tuple[str, str, str]] = field(default_factory=list)

    def add(self, name: str, status: str, detail: str):
        self.checks.append((name, status, detail))

    @property
    def failed(self) -> bool:
        return any(status == "FAIL" for _, status, _ in self.checks)

    def render(self) -> str:
        return "\n".join(f"[{status:>12s}] {name}: {detail}"
                         for name, status, detail in self.checks)


def _mc_verdict(exact: float, est: montecarlo.McEstimate) -> tuple[str, str]:
    width = est.ci_high - est.ci_low
    detail = (f"exact={exact:.6g} mc={est.mean:.6g} "
              f"ci=[{est.ci_low:.6g}, {est.ci_high:.6g}]")
    # an interval wider than half the value resolves nothing, even when
    # it holds the value
    if width > 0.5 * max(exact, 1e-300):
        return "INCONCLUSIVE", detail + " (CI too wide)"
    if est.ci_low <= exact <= est.ci_high:
        return "PASS", detail
    return "FAIL", detail


def _floor_verdict(exact: float, floor: float, at_db: float) -> tuple[str, str]:
    """The exact outage at ``at_db`` against its floor: PASS within 1e-3
    relative, else FAIL, and SKIPPED at a floor of 0 (no CSI hop error, or
    an underflow), which has no relative error."""
    detail = f"exact@{at_db:g}dB={exact:.6g} floor={floor:.6g}"
    if floor == 0:
        return "SKIPPED", f"{detail}: a floor of 0 has no relative error"
    rel = abs(exact - floor) / floor
    return "PASS" if rel <= 1e-3 else "FAIL", f"{detail} rel={rel:.2e}"


def run_validate(config: ExperimentConfig) -> ValidationReport:
    """Run the self-checks that apply to this configuration and report
    per-check verdicts; Monte-Carlo comparisons that cannot resolve the
    analytic value with the configured trial count come back
    INCONCLUSIVE rather than FAIL."""
    report = ValidationReport()
    csi = config.csi
    pk = _rank_distribution(config)
    gamma_th = db_to_linear(config.gamma_th_db)
    num_users, num_relays = config.num_users, config.num_relays

    # rank machinery
    total = float(pk.per_user.sum())
    status = "PASS" if abs(total - num_users) < 1e-9 * num_users else "FAIL"
    report.add("rank-probabilities-normalised", status,
               f"sum over users and ranks = {total!r} (method {pk.method})")
    if config.scheme == "maxmin":
        tail = pk.per_user[:, pk.worst_rank:].sum()
        report.add("rank-support-bound", "PASS" if tail == 0 else "FAIL",
                   f"mass beyond rank {pk.worst_rank} = {tail}")
        if pk.trials == 0:
            formula = analytic.worst_case_rank_prob(num_users, num_relays)
            exact = float(pk.probs[pk.worst_rank - 1])
            status = "PASS" if abs(exact - formula) < 1e-12 else "FAIL"
            report.add("worst-rank-probability", status,
                       f"{pk.method}={exact!r} product-formula={formula!r}")

    # analytic vs Monte Carlo along the sweep (user 0)
    points = evaluate_sweep(config, pk, z=3.0)
    curve = [(point.sweep_db, point.exact[0]) for point in points]
    for point in points:
        status, detail = _mc_verdict(point.exact[0], point.mc[0])
        report.add(f"analytic-vs-mc@{point.sweep_db:g}dB", status, detail)

    # per-user fairness of the max-min scheme (outage modes only), read
    # from the sweep's own per-user counts
    if config.scheme == "maxmin" and num_users >= 2 and config.mode != "throughput":
        # test at the sweep point with the most informative outage level
        best = max(points, key=lambda point: point.exact[0] * (1 - point.exact[0]))
        best_db = best.sweep_db
        hits = [round(e.mean * e.trials) for e in best.mc]
        z = max(abs(montecarlo.two_proportion_z(hits[0], h, config.trials))
                for h in hits[1:])
        if min(hits) < 25:
            report.add("user-fairness-ztest", "INCONCLUSIVE",
                       f"too few outage events ({min(hits)}) at {best_db:g} dB")
        else:
            report.add("user-fairness-ztest", "PASS" if z < 3 else "FAIL",
                       f"max |z| across user pairs = {z:.3f} at {best_db:g} dB")

    # diversity-order slope (common-SNR sweeps of the max-min scheme)
    if (config.sweep.variable == "lambda_all" and csi is None
            and config.scheme == "maxmin" and config.mode != "throughput"):
        fit = [(db, p) for db, p in curve if db >= 25 and p > 0]
        if len(fit) >= 3:
            xs = np.array([db / 10 for db, _ in fit])
            ys = np.log10([p for _, p in fit])
            slope = np.polyfit(xs, ys, 1)[0]
            target = -config.nakagami_m * num_relays
            status = "PASS" if abs(slope - target) <= 0.1 * abs(target) else "FAIL"
            report.add("diversity-order-slope", status,
                       f"fitted {slope:.3f}, expected {target} (+/-10%)")
        else:
            report.add("diversity-order-slope", "SKIPPED",
                       "sweep has fewer than 3 points at or above 25 dB")

    # outage floor (relay-cap sweeps)
    if (config.sweep.variable == "lambda2" and csi is None
            and config.mode != "throughput"):
        top_db, top_exact = curve[-1]
        # user 0's relay-cap floor at the last point
        status, detail = _floor_verdict(top_exact, points[-1].asym2[0], top_db)
        if top_db < 55 and status != "SKIPPED":
            status, detail = "INCONCLUSIVE", (
                f"top sweep point {top_db:g} dB below the floor regime ({detail})")
        report.add("outage-floor", status, detail)

    # imperfect-CSI floor
    if csi is not None and config.mode != "throughput":
        floor = analytic.outage_floor_imperfect(gamma_th, csi, num_users,
                                                num_relays, pk.per_user[0])
        lam = db_to_linear(80)
        exact80 = analytic.outage_probability_imperfect(
            gamma_th, config.topology(), LinkBudget(lam, lam, lam), csi,
            pk.per_user[0])
        report.add("imperfect-csi-floor", *_floor_verdict(exact80, floor, 80))

    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Sweep, validate and export relay-network performance "
                    "figures from a JSON experiment config.")
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--mode", choices=MODES,
                        help="override the config's mode")
    parser.add_argument("--trials", type=int, help="override trial count")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--output", help="override output CSV path")
    parser.add_argument("--dump-config", action="store_true",
                        help="echo the parsed config as JSON and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        overrides = {key: getattr(args, key)
                     for key in ("mode", "trials", "seed", "output")
                     if getattr(args, key) is not None}
        # a validate override keeps the config's own mode as the payload
        if overrides.get("mode") == "validate":
            del overrides["mode"]
        if overrides:
            config = replace(config, **overrides)
            _validate(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.dump_config:
        print(json.dumps(asdict(config), indent=2, sort_keys=True))
        return 0

    if args.mode == "validate" or config.mode == "validate":
        report = run_validate(config)
        print(report.render())
        return 3 if report.failed else 0
    path = run_sweep(config)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
