"""`estimate` must reproduce its frozen outputs byte for byte.

The inputs and expected outputs under tests/data/ were written by
tests/data/make_golden.py; a change that moves any digit fails here.
"""

from pathlib import Path

import pytest

from pcekit.cli import main

DATA = Path(__file__).resolve().parent / "data"

CASES = {
    "crossover_missing": ["--method", "both", "--bootstrap", "40", "--seed", "5"],
    "parallel_ps": ["--method", "ps", "--bootstrap", "40", "--seed", "6"],
    "empty_stratum": ["--method", "both", "--bootstrap", "40", "--seed", "7"],
    "sparse_stratum": ["--method", "both", "--bootstrap", "40", "--seed", "8"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_reproduces_frozen_output(name, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["estimate", "--input", str(DATA / f"{name}.csv"), *CASES[name],
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"{name}.out.csv").read_bytes()
