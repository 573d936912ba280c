"""Print every benchmark metric by name and unit, workload by workload.

Run from the root of a checkout:

    python3 perfbench/report.py                          # seed 1, all workloads
    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0
    python3 perfbench/report.py --seeds 1 2 3 --trace 1 --json out.json

For each workload and seed it runs ``run.py`` untraced (end-to-end
metrics) and traced (per-layer metrics), then prints, per metric, the
median over seeds and -- with several seeds -- the spread, the distance
between the first and third quartiles as a share of the median.  An
end-to-end metric is steady when its spread is within a third of its
bound from BENCHMARK.json.  The failed/attempted sweep counts
give each workload's ``error_rate``.  Provenance (commit, nproc, Python
and numpy versions, thread pinning) is printed and written with
``--json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# unscaled figures run.py prints beside its result; not BENCHMARK.json metrics
NOTES = ("host_probe_s", "setup_wall_s", "sweep_wall_s", "sweep_cpu_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{done.stderr}")
    notes = [line for line in lines if line.startswith("# ")]
    provenance = json.loads(notes[0].removeprefix("# provenance "))
    return {"result": json.loads(lines[-1]), "provenance": provenance,
            "notes": notes[1:]}


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else None


def main() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="+", default=[0, 1])
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(dict.fromkeys(NOTES, "s"))
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list] = {}
        attempted = failed = 0
        correct = True
        for trace in args.trace:
            for seed in args.seeds:
                run = run_once(workload, seed, seconds, trace)
                summary.setdefault("provenance", run["provenance"])
                result = run["result"]
                attempted += result["attempted"]
                failed += result["failed"]
                correct &= result["correct"]
                for note in run["notes"]:
                    name, _, rest = note.removeprefix("# ").partition(" ")
                    if name in NOTES:
                        values.setdefault(name, []).append(float(rest.split()[0]))
                    if "FAILED" in note or "NOT CAUGHT" in note:
                        print(f"{workload} seed {seed}: {note}")
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"# {workload} trace={trace} seed={seed} done", file=sys.stderr)
        entry = {"config": workloads.WORKLOADS[workload], "correct": correct,
                 "attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "metrics": {}}
        print(f"\n== {workload}: error_rate {failed}/{attempted} = "
              f"{entry['error_rate']:.6g}, correct {correct}")
        for name, series in values.items():
            median = statistics.median(series)
            share = spread(series)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and share is not None:
                verdict = "steady" if share <= bound / 3 else (
                    "within bound" if share <= bound else "TOO NOISY")
            print(f"{name:40s} {median:<24.10g} {units[name]:6s}"
                  + (f" spread {share:.4f}" if share is not None else "")
                  + (f" bound {bound} {verdict}" if bound is not None else ""))
            entry["metrics"][name] = {"unit": units[name], "median": median,
                                      "spread": share, "values": series}
        summary["workloads"][workload] = entry
    print(f"\nprovenance {json.dumps(summary.get('provenance'))}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
