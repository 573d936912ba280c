"""One benchmark sample in a fresh interpreter.

Imports cogrelay, parses the workload config and, unless
``--setup-only``, runs one sweep through ``cli.run_sweep`` -- the path
``cogrelay --config`` takes.  With ``--trace`` the layer boundaries are
wrapped first and the spans are written to ``--spans`` after the sweep.
Prints one JSON object; judging the output is left to the caller.

    PYTHONPATH=src python3 perfbench/worker.py --config CFG [--trace --spans OUT]
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import numpy
    from cogrelay import cli

    tracer = None
    if args.trace:
        import tracing
        from cogrelay import analytic, model, montecarlo, selection
        cost = tracing.calibrate()
        tracer = tracing.Tracer()
        tracing.install(tracer, cli, montecarlo, model, selection, analytic)

    config = cli.load_config(args.config)
    result = {"ready_ns": time.monotonic_ns(), "header": cli.CSV_HEADER,
              "numpy": numpy.__version__}
    if not args.setup_only:
        cpu_start = _cpu_s()
        start = time.perf_counter()
        try:
            cli.run_sweep(config)
        except Exception:  # reported to the caller as a failed sweep
            result["error"] = traceback.format_exc(limit=4)
        else:
            result["sweep_s"] = time.perf_counter() - start
            result["sweep_cpu_s"] = _cpu_s() - cpu_start
            if tracer is not None:
                result["layers"] = tracing.layer_metrics(tracer, result["sweep_s"], cost)
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent"],
                               "spans": tracer.spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
