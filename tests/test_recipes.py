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
    "fig2": "fe69a78e9f44707b832da785fc6b9110296c2f09a250aae3994b576ef099acc4",
    "fig3": "ed5ab937aed5138545f55f77fd6a8dd7141b674e9d2bcfcada1c6cdef141c2ad",
    "fig4": "0c0faf850e4b8e77fa0088c7e1670c412ee255e68c9d27bc9c9e34bfc2c2e07c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_recipe_csv_bytes(tmp_path, name):
    path = run_sweep(load_config(RECIPES / f"{name}.json"), tmp_path / f"{name}.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
