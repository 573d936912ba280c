"""Golden output of the shipped recipes: each sweep CSV must keep the
exact bytes recorded in CHANGES.md, so a change that moves any digit of
a figure (a new random stream, a different tie-break, a reordered sum)
fails here instead of passing unnoticed."""

import hashlib
from pathlib import Path

import pytest

from cogrelay.cli import load_config, run_sweep

RECIPES = Path(__file__).resolve().parent.parent / "recipes"

GOLDEN_SHA256 = {
    "fig1": "f4bd673aa1965b7c5fcc53522082bc858c91a969ab1755cf26f677599c4fdf32",
    "fig2": "aecfc80abd247958c7a70d75c421b1ac4c2ba94e4de4470606b03c3ba923ea25",
    "fig3": "682999152c5e1adf75871c10f414573ed0a15a1f4a4001d5f48315086a763662",
    "fig4": "50bfab39f4708d9cb488b4a41c9cb9ea77131c9823f65a56a206e62de2ef5b09",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_recipe_csv_bytes(tmp_path, name):
    path = run_sweep(load_config(RECIPES / f"{name}.json"), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
