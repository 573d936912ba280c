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
    "fig1": "b11f379021a3c831d5296e7741225b7bffeccfb8bf43bc0c2a34dbc01e2c3292",
    "fig2": "c5aac4c3cbf4e92508ef026460ce8c46374f3cd5531dd6ec48d9838c4df5cc6e",
    "fig3": "b06821b7915312e8a302b6b7ffeab09d5d2a2936a05518a8b901515f4acf3e9c",
    "fig4": "ec8f676f4dc641f95a4af605eab0aba04ad9cf5edf1f64c5414a7d7a14180d66",
}

# fig4's levels on 2x4 at 1000 trials and 241 relay caps: the Monte
# Carlo pass assigns small stacks, which the recipes (blocks of 5461
# to 10922 trials) barely reach
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
# relay-cap outage over several blocks (pinned when CSI built every
# matrix from the gains), and random 3x4 outage and throughput over
# several blocks, whose relay maps are drawn once per block.  Each was pinned before random stopped
# redrawing its keys at every budget.  The last three start low enough
# that an eighth or more of their first stacks have every SNR at or
# below the budget's smallest threshold, in outage under every scheme:
# naive CSI common-SNR outage over several blocks, random 3x4 relay-cap
# outage from -10 dB, and max-min common-SNR outage from -10 dB, whose
# one unit budget scores 16 thresholds.  Each was pinned before those
# trials stopped being assigned.  Max-min CSI relay-cap outage over
# several blocks was pinned before CSI relay-cap sweeps came to build
# their SNR parts once per block, as perfect-CSI ones do.  The four
# 70000-trial sweeps were pinned again when blocks came to be sized in
# SNR entries, and again when a block came to hold half of that budget
# (each a new random stream); the others fit in one block under every
# size.  Max-min CSI common-SNR outage at non-unit gains and distances,
# whose error variances and estimate gains differ from the ratios, was
# pinned when the error model came to hold its three ratios alone.  m = 1, γ_th = 5 dB and seed 1 unless stated; the lambda2 sweeps
# hold λ1 = 25 dB and λ3 = 10 dB.
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
    "maxmin-csi-lambda2-outage": {
        "num_users": 3, "num_relays": 4, "scheme": "maxmin", "trials": 20000,
        **CSI_5PCT, **LAMBDA2, **sweep("lambda2", 40.0, 5.0)},
    "maxmin-csi-gains-outage": {
        "num_users": 2, "num_relays": 3, "scheme": "maxmin", "trials": 20000,
        "omega_h1": 1.7, "omega_h2": 0.3, "omega_f": 3.0, "d1": 1.5, "d2": 0.8,
        "d3": 2.0, "path_loss_exp": 3.0,
        "csi": {"error_ratio_h1": 0.05, "error_ratio_h2": 0.1,
                "error_ratio_f": 0.2},
        **sweep("lambda_all", 40.0, 10.0)},
}

PASS_SHA256 = {
    "naive-lambda2-outage": "8e483bc48781a14f8edb7eadd1e4ada432cf6e1081961346fc557bf0d51f0376",
    "random-lambda2-outage": "d63f6c5575ca3ea22249d4994a335eb57ac1783fa60c69f92e63d03d723f18e1",
    "maxmin-lambda2-outage": "9020b16306d93c1ca0609ca2a00d462a077383186c7e8701c9778e6a84d3621a",
    "maxmin-csi-outage": "9fd868ec8069ac9528470762d972800e188f825617d78e41d2282f28f5ab374e",
    "random-lambda2-throughput": "5470cd64ab9e33c671597f335b3e1142680997841f1002280cd766d5b7b164d3",
    "naive-csi-lambda2-outage": "e276691f4c6269fbe8f612d3f35c25ac86217b95885e8ae6d70096369cff358e",
    "random-3x4-lambda2-outage": "71ba72767f4c5dcdff4aa6266d88ddfb7061ad20acd9b4bb66159c05dce1e652",
    "random-3x4-lambda2-throughput": "153e4ca9689a56f44b330419367bb132d99d0e6fbe8c3aa197d3bef75b90a6f8",
    "naive-csi-outage": "5011576b3ad582c598cb2750b78dbe8a824619590eed50d8bbd797692d5fb18c",
    "random-3x4-lambda2-low-outage": "380bc3c74a1e390d5e16cbddaeed96a88c53e44701692c40795b0bde5ff0a996",
    "maxmin-low-outage": "b6581764194e15c391098929bee9e6d2232e82a46de457422f29b34896fb1a01",
    "maxmin-csi-lambda2-outage": "30aadaf53587f0186f8ccea75d01d045c0f9076268ce01693ce0e332e98dc276",
    "maxmin-csi-gains-outage": "c0a554f9bc953fa9d2244f987591275c4c07b77d4b3c638edf53d8d1fafbebc7",
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
