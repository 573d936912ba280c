"""Golden output of the shipped recipes: each sweep CSV must keep the
exact bytes recorded in CHANGES.md, so a change that moves any digit of
a figure (a new random stream, a different tie-break, a reordered sum)
fails here instead of passing unnoticed."""

import hashlib
import json
from pathlib import Path

import pytest

from cogrelay.cli import load_config, parse_config, run_sweep

RECIPES = Path(__file__).resolve().parent.parent / "recipes"

GOLDEN_SHA256 = {
    "fig1": "35813bd0fd8f973acec03358fbedac9d363c1f8e855545a34ad3eec722b7eb6a",
    "fig2": "aecfc80abd247958c7a70d75c421b1ac4c2ba94e4de4470606b03c3ba923ea25",
    "fig3": "682999152c5e1adf75871c10f414573ed0a15a1f4a4001d5f48315086a763662",
    "fig4": "50bfab39f4708d9cb488b4a41c9cb9ea77131c9823f65a56a206e62de2ef5b09",
}

# fig4's levels on 2x4 at 1000 trials and 241 relay caps: the Monte
# Carlo pass assigns small stacks, which the recipes (65536-trial
# blocks) barely reach
FINE_CONFIG = """{
  "num_users": 2, "num_relays": 4, "nakagami_m": 1, "gamma_th_db": 5.0,
  "lambda1_db": 25.0, "lambda3_db": 10.0, "mode": "throughput",
  "sweep": {"variable": "lambda2", "start_db": 0.0, "stop_db": 60.0, "step_db": 0.25},
  "trials": 1000
}"""

FINE_RUNS = {"maxmin-1": ("maxmin", 1), "maxmin-5": ("maxmin", 5),
             "naive-1": ("naive", 1)}

FINE_SHA256 = {
    "maxmin-1": "2a72c50af9ff5a064f4141b5a03fc22741296c60da38fca56a92b7f8d22db491",
    "maxmin-5": "89818a1a1059c4f728ec42c3af49b7e93f50bff06614aa9d0a23f12fa4fa1a27",
    "naive-1": "7676cd1d4e03a54703e766a52cba38d625dd54524b3882621e9954171987017f",
}


def fine_config(name: str) -> dict:
    """The raw config of one throughput-fine run, by ``FINE_RUNS`` name."""
    scheme, seed = FINE_RUNS[name]
    return {**json.loads(FINE_CONFIG), "scheme": scheme, "seed": seed}


# Sweeps through the Monte Carlo pass that no recipe covers: naive and
# random outage (no served trial leaves) and random throughput (settled
# trials leave, as under every scheme), max-min outage on small stacks
# along a relay-cap chain and along a CSI common-SNR chain, naive CSI
# outage over two blocks (CSI builds every matrix from the gains), and
# random 3x4 outage and throughput over two blocks, whose relay maps
# are drawn once per block.  Each was pinned before random stopped
# redrawing its keys at every budget.  The last three start low enough
# that an eighth or more of their first stacks have every SNR at or
# below the budget's smallest threshold, in outage under every scheme:
# naive CSI common-SNR outage over two blocks, random 3x4 relay-cap
# outage from -10 dB, and max-min common-SNR outage from -10 dB, whose
# one unit budget scores 16 thresholds.  Each was pinned before those
# trials stopped being assigned.  m = 1, γ_th = 5 dB and seed 1 unless
# stated; the lambda2 sweeps hold λ1 = 25 dB and λ3 = 10 dB.
LAMBDA2 = {"lambda1_db": 25.0, "lambda3_db": 10.0}
CSI_5PCT = {"csi": {"error_ratio_h1": 0.05, "error_ratio_h2": 0.05,
                    "error_ratio_f": 0.05}}


def sweep(variable: str, stop_db: float, step_db: float,
          start_db: float = 0.0) -> dict:
    return {"sweep": {"variable": variable, "start_db": start_db,
                      "stop_db": stop_db, "step_db": step_db}}


PASS_CONFIGS = {
    "naive-lambda2-outage": {
        "num_users": 3, "num_relays": 3, "scheme": "naive", "trials": 5000,
        **LAMBDA2, **sweep("lambda2", 60.0, 5.0)},
    "random-lambda2-outage": {
        "num_users": 2, "num_relays": 3, "scheme": "random", "trials": 1000,
        **LAMBDA2, **sweep("lambda2", 60.0, 5.0)},
    "maxmin-lambda2-outage": {
        "num_users": 3, "num_relays": 3, "nakagami_m": 3, "scheme": "maxmin",
        "trials": 1000, **LAMBDA2, **sweep("lambda2", 60.0, 1.0)},
    "maxmin-csi-outage": {
        "num_users": 3, "num_relays": 4, "scheme": "maxmin", "trials": 1000,
        **CSI_5PCT, **sweep("lambda_all", 40.0, 1.0)},
    "random-lambda2-throughput": {
        "num_users": 2, "num_relays": 4, "scheme": "random", "trials": 1000,
        "mode": "throughput", **LAMBDA2, **sweep("lambda2", 60.0, 2.0)},
    "naive-csi-lambda2-outage": {
        "num_users": 2, "num_relays": 3, "scheme": "naive", "trials": 70000,
        **CSI_5PCT, **LAMBDA2, **sweep("lambda2", 40.0, 5.0)},
    "random-3x4-lambda2-outage": {
        "num_users": 3, "num_relays": 4, "scheme": "random", "trials": 70000,
        **LAMBDA2, **sweep("lambda2", 60.0, 5.0)},
    "random-3x4-lambda2-throughput": {
        "num_users": 3, "num_relays": 4, "scheme": "random", "trials": 70000,
        "mode": "throughput", **LAMBDA2, **sweep("lambda2", 60.0, 5.0)},
    "naive-csi-outage": {
        "num_users": 3, "num_relays": 4, "scheme": "naive", "trials": 70000,
        **CSI_5PCT, **sweep("lambda_all", 20.0, 2.5)},
    "random-3x4-lambda2-low-outage": {
        "num_users": 3, "num_relays": 4, "scheme": "random", "trials": 5000,
        **LAMBDA2, **sweep("lambda2", 20.0, 2.5, -10.0)},
    "maxmin-low-outage": {
        "num_users": 2, "num_relays": 3, "scheme": "maxmin", "trials": 5000,
        **sweep("lambda_all", 5.0, 1.0, -10.0)},
}

PASS_SHA256 = {
    "naive-lambda2-outage": "8e483bc48781a14f8edb7eadd1e4ada432cf6e1081961346fc557bf0d51f0376",
    "random-lambda2-outage": "d63f6c5575ca3ea22249d4994a335eb57ac1783fa60c69f92e63d03d723f18e1",
    "maxmin-lambda2-outage": "9020b16306d93c1ca0609ca2a00d462a077383186c7e8701c9778e6a84d3621a",
    "maxmin-csi-outage": "9fd868ec8069ac9528470762d972800e188f825617d78e41d2282f28f5ab374e",
    "random-lambda2-throughput": "5470cd64ab9e33c671597f335b3e1142680997841f1002280cd766d5b7b164d3",
    "naive-csi-lambda2-outage": "786b6c8ef90f2e742476da541a40ff12a843958502fad23cac8e75648dce3264",
    "random-3x4-lambda2-outage": "6c9344f18d294399aeef0e7a4ccc2040299307b2a69766c3979f9fe6ec349cd8",
    "random-3x4-lambda2-throughput": "ede5c0ad367f482254f7602b1acbb7f4b35d2a6e8a993c325348048806410159",
    "naive-csi-outage": "53250eddbc919f5aa451df81020491b9d9bd07969c4ae1784c852fddc74b3633",
    "random-3x4-lambda2-low-outage": "380bc3c74a1e390d5e16cbddaeed96a88c53e44701692c40795b0bde5ff0a996",
    "maxmin-low-outage": "b6581764194e15c391098929bee9e6d2232e82a46de457422f29b34896fb1a01",
}


def pass_config(name: str) -> dict:
    """The raw config of one ``PASS_CONFIGS`` sweep."""
    return {"nakagami_m": 1, "gamma_th_db": 5.0, "seed": 1, **PASS_CONFIGS[name]}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_recipe_csv_bytes(tmp_path, name):
    path = run_sweep(load_config(RECIPES / f"{name}.json"), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(FINE_SHA256))
def test_throughput_fine_csv_bytes(tmp_path, name):
    path = run_sweep(parse_config(fine_config(name)), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FINE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PASS_SHA256))
def test_pass_csv_bytes(tmp_path, name):
    path = run_sweep(parse_config(pass_config(name)), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PASS_SHA256[name]
