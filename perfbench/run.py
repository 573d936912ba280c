"""cogrelay benchmark: time to a figure, memory and correctness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig1-diversity --seed 1 --seconds 30 --trace 0

Each sample is a fresh interpreter (``worker.py``) that imports
``cogrelay.cli``, parses the generated workload config and runs one
``run_sweep`` into a CSV, with BLAS/OpenMP threads pinned to 1.  Samples
run one after another until ``--seconds`` have passed (and at least a
minimum count has run).  A host-speed probe (``hostspeed.py``) runs
before and after every sample, and each sample's set-up and sweep time
is scaled to the probe's reference speed; the raw wall-time medians are
printed beside the result.  Every CSV goes through the correctness gate
(``gate.py``) and must be byte-identical to the first one of the run,
since all samples share the seed; each run also feeds the gate tampered
copies of its first CSV and requires every tampering to be caught.

``--trace 0`` reports the end-to-end metrics (medians over samples).
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics of the traced ones; their counts must repeat exactly.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is the JSON result; the lines before it are the same
figures for people, with provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
MIN_PLAIN = 3        # untraced sweeps per --trace 0 run
MIN_TRACED = 2       # traced sweeps per --trace 1 run (counts must repeat)
MIN_SETUPS = 15      # set-up-only samples per --trace 0 run
HARD_STOP_S = 160    # start nothing new after this; the run must end by 180 s
SOURCE_MODULES = ("cli", "montecarlo", "model", "selection", "analytic", "specfun")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, no BENCHMARK.json)."""


class Sampler:
    """Launches worker interpreters one at a time and keeps their results."""

    def __init__(self, root: Path, config_path: Path, spans_path: Path):
        self.root = root
        self.config_path = config_path
        self.spans_path = spans_path
        self.started = time.monotonic()
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
        hostspeed.probe()  # the first call pays numpy's lazy set-up
        self.last_probe = hostspeed.probe()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, setup_only: bool = False, traced: bool = False) -> dict:
        command = [sys.executable, str(HERE / "worker.py"),
                   "--config", str(self.config_path)]
        if setup_only:
            command.append("--setup-only")
        if traced:
            command += ["--trace", "--spans", str(self.spans_path)]
        launched = time.monotonic_ns()
        proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(
                timeout=max(5.0, HARD_STOP_S + 15 - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "worker timed out"}
        if proc.returncode != 0 or not out.strip():
            return {"error": f"worker exited {proc.returncode}: {err.strip()[-2000:]}"}
        result = json.loads(out.strip().splitlines()[-1])
        before, self.last_probe = self.last_probe, hostspeed.probe()
        result["probe_s"] = (before + self.last_probe) / 2
        scale = hostspeed.REFERENCE_S / result["probe_s"]
        result["setup_wall_s"] = (result["ready_ns"] - launched) / 1e9
        result["setup_s"] = result["setup_wall_s"] * scale
        if "sweep_s" in result:
            result["sweep_wall_s"] = result["sweep_s"]
            result["sweep_s"] *= scale
        return result


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # do not let git search parent directories
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(root: Path, seed: int, numpy_version: str) -> dict:
    return {
        "commit": _git_commit(root),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": THREAD_ENV,
        "machine": platform.machine(),
    }


def judge(samples: list[dict], config: dict) -> None:
    """Gate each sweep sample in place, adding its list of problems."""
    points = workloads.sweep_points(config)
    first = None
    for sample in samples:
        if "error" in sample:
            sample["problems"] = [sample["error"]]
            continue
        problems = gate.check_csv(sample["csv"].decode("utf-8", "replace"),
                                  sample["header"], points, config["num_users"],
                                  config["mode"], config["trials"])
        if first is None:
            first = sample["csv"]
        else:
            problems += gate.check_repeat(first, sample["csv"])
        sample["problems"] = problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "cogrelay" / "cli.py").is_file():
        raise BenchmarkError(f"no cogrelay sources under {root / 'src'}")
    if not spec_path.is_file():
        raise BenchmarkError(f"no BENCHMARK.json in {root}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, wanted)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path, wanted: list[dict]) -> int:
    config = workloads.make_config(args.workload, args.seed,
                                   str((work / "sweep.csv").relative_to(root)))
    csv_path = root / config["output"]
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    spans_path = root / ".bench_work" / f"spans-{args.workload}.json"
    sampler = Sampler(root, config_path, spans_path)

    # compile bytecode and warm the page cache; users pay this once
    warm = sampler.run(setup_only=True)
    if "error" in warm:
        raise BenchmarkError(f"cannot set up the workload: {warm['error']}")

    plain, traced, setups = [], [], []
    kinds = ("traced", "plain") if args.trace else ("plain",)
    step = 0
    while sampler.elapsed() < HARD_STOP_S:
        enough = (len(plain) >= (1 if args.trace else MIN_PLAIN)
                  and len(traced) >= (MIN_TRACED if args.trace else 0))
        if enough and sampler.elapsed() >= args.seconds:
            break
        kind = kinds[step % len(kinds)]
        step += 1
        sample = sampler.run(traced=kind == "traced")
        if "error" not in sample:
            if csv_path.is_file():
                sample["csv"] = csv_path.read_bytes()
                csv_path.unlink()
            else:
                sample["error"] = f"the sweep wrote no {config['output']}"
        (traced if kind == "traced" else plain).append(sample)
        # spread the set-up samples over the run: one per sweep, and more
        # early on where sweeps are long, to reach MIN_SETUPS by --seconds
        share = min(1.0, sampler.elapsed() / args.seconds)
        while not args.trace and len(setups) < max(len(plain), MIN_SETUPS * share):
            setups.append(sampler.run(setup_only=True))
    while not args.trace and len(setups) < MIN_SETUPS \
            and sampler.elapsed() < HARD_STOP_S:
        setups.append(sampler.run(setup_only=True))

    samples = plain + traced
    judge(samples, config)
    first = next((s for s in samples if not s["problems"]), None)
    checks = {}
    if first is not None:
        checks = gate.selftest(first["csv"].decode("utf-8"), first["header"],
                               workloads.sweep_points(config), config["num_users"],
                               config["mode"], config["trials"])
    # a sweep that ran is timed even when its output failed the gate: the
    # failure shows in "failed" and "correct", the cost in the metrics
    good_plain = [s for s in plain if "sweep_s" in s]
    good_traced = [s for s in traced if "layers" in s]
    if len(good_traced) >= 2:
        reference = {k: good_traced[0]["layers"][k] for k in tracing.COUNT_METRICS}
        for sample in good_traced[1:]:
            moved = [k for k in reference if sample["layers"][k] != reference[k]]
            if moved:
                sample["problems"].append(f"counts did not repeat: {moved}")

    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    values = {}
    if good_plain:
        values["sweep_s"] = statistics.median([s["sweep_s"] for s in good_plain])
        values["peak_rss_mb"] = statistics.median([s["peak_rss_mb"] for s in good_plain])
    # a sweep sample's later probe comes after its sweep, so set-up time is
    # taken from the set-up-only samples, whose probes sit close around it
    setup_values = [s["setup_s"] for s in setups if "error" not in s]
    if setup_values:
        values["setup_s"] = statistics.median(setup_values)
    if good_traced:
        for name in good_traced[0]["layers"]:
            # counts repeat exactly (checked above); times vary per sample
            values[name] = (good_traced[0]["layers"][name] if name in tracing.COUNT_METRICS
                            else statistics.median([s["layers"][name] for s in good_traced]))
        values["cli.rows_written"] = (len(workloads.sweep_points(config))
                                      * config["num_users"])
        if "sweep_s" in values:
            traced_s = statistics.median([s["sweep_s"] for s in good_traced])
            values["trace_overhead_frac"] = traced_s / values["sweep_s"] - 1
        src = root / "src" / "cogrelay"
        for module in SOURCE_MODULES:
            values[f"{module}.src_lines"] = len(
                (src / f"{module}.py").read_text(encoding="utf-8").splitlines())

    numpy_version = next((s["numpy"] for s in samples if "numpy" in s), "unknown")
    print(f"# provenance {json.dumps(provenance(root, args.seed, numpy_version))}")
    print(f"# workload {args.workload}: {attempted} sweeps attempted, {failed} failed, "
          f"error_rate {failed / attempted if attempted else float('nan'):.6g}; "
          f"{len(plain)} untraced, {len(traced)} traced, "
          f"{len(setup_values)} set-up samples; {sampler.elapsed():.1f} s")
    probed = [s for s in plain + setups if "probe_s" in s]
    if probed:
        print(f"# host_probe_s {statistics.median([s['probe_s'] for s in probed])!r} s "
              f"(reference {hostspeed.REFERENCE_S!r} s)")
    if setup_values:
        wall = statistics.median([s["setup_wall_s"] for s in setups if "error" not in s])
        print(f"# setup_wall_s {wall!r} s")
    if good_plain:
        # unscaled, for comparison; CPU time tracks wall time here, as the
        # host's slow spells slow execution rather than take the CPU away
        for name in ("sweep_wall_s", "sweep_cpu_s"):
            print(f"# {name} {statistics.median([s[name] for s in good_plain])!r} s")
    for sample in samples:
        for problem in sample["problems"][:5]:
            print(f"# FAILED: {problem}")
    for name, ok in checks.items():
        print(f"# gate self-test {name}: {'ok' if ok else 'NOT CAUGHT'}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"# no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    correct = failed == 0 and bool(checks) and all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
