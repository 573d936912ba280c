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


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_recipe_csv_bytes(tmp_path, name):
    path = run_sweep(load_config(RECIPES / f"{name}.json"), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(FINE_SHA256))
def test_throughput_fine_csv_bytes(tmp_path, name):
    path = run_sweep(parse_config(fine_config(name)), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FINE_SHA256[name]
