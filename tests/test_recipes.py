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
    "fig3": "79759e24a014c92434577d7f7f9965d35bf79d76fd2773fbda57384f5eabaa08",
    "fig4": "12786fe07a326ad215b8473432239038a21c28f05e259efabc33c1fb8613a88e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_recipe_csv_bytes(tmp_path, name):
    path = run_sweep(load_config(RECIPES / f"{name}.json"), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
