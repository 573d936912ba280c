"""The benchmark's workloads: one generated cogrelay config each.

The program sees only these configs.  The benchmark seed is written
into the config's ``seed``; every other key is fixed, so two seeds give
the same amount of work on different random streams.  Why each workload
exists is recorded in BENCHMARK.json (``workloads[].why``) and in
``expectations.json``.
"""

from __future__ import annotations

import math

_UNIT_GAINS = {"omega_h1": 1.0, "omega_h2": 1.0, "omega_f": 1.0}

WORKLOADS = {
    # recipes/fig1.json: 2x3, m=2, common-SNR outage, 9 points x 1e5 trials
    "fig1-diversity": {
        "num_users": 2, "num_relays": 3, "nakagami_m": 2, **_UNIT_GAINS,
        "d1": 1.0, "d2": 1.0, "d3": 1.0, "path_loss_exp": 2.0,
        "gamma_th_db": 5.0, "scheme": "maxmin", "mode": "outage",
        "sweep": {"variable": "lambda_all", "start_db": 0.0, "stop_db": 40.0,
                  "step_db": 5.0},
        "trials": 100_000,
    },
    # recipes/fig3.json: 3x4, m=1, 5% CSI error, common-SNR outage
    "fig3-csi": {
        "num_users": 3, "num_relays": 4, "nakagami_m": 1, **_UNIT_GAINS,
        "gamma_th_db": 5.0, "scheme": "maxmin", "mode": "outage",
        "csi": {"error_ratio_h1": 0.05, "error_ratio_h2": 0.05,
                "error_ratio_f": 0.05},
        "sweep": {"variable": "lambda_all", "start_db": 0.0, "stop_db": 40.0,
                  "step_db": 5.0},
        "trials": 100_000,
    },
    # fig4's levels on 2x4: relay-cap throughput, 241 points at the
    # parser's minimum trial count
    "throughput-fine": {
        "num_users": 2, "num_relays": 4, "nakagami_m": 1, **_UNIT_GAINS,
        "gamma_th_db": 5.0, "lambda1_db": 25.0, "lambda3_db": 10.0,
        "scheme": "maxmin", "mode": "throughput",
        "sweep": {"variable": "lambda2", "start_db": 0.0, "stop_db": 60.0,
                  "step_db": 0.25},
        "trials": 1000,
    },
}


def make_config(name: str, seed: int, output: str) -> dict:
    return {**WORKLOADS[name], "seed": seed, "output": output}


def sweep_points(config: dict) -> list[float]:
    """The sweep points the CSV must list, derived here independently."""
    sweep = config["sweep"]
    count = round((sweep["stop_db"] - sweep["start_db"]) / sweep["step_db"])
    points = [sweep["start_db"] + i * sweep["step_db"] for i in range(count + 1)]
    if not math.isclose(points[-1], sweep["stop_db"]):
        raise ValueError(f"sweep step does not reach stop_db: {sweep}")
    return points
