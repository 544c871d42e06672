"""`estimate` and `diagnose` must reproduce their frozen outputs byte for byte.

The inputs and expected outputs under tests/data/ were written by
tests/data/make_golden.py; a change that moves any digit fails here.
"""

import json
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

# name -> (input file stem, diagnose arguments after --input); every case runs
# --checks all --format json. "diagnose_sparse" is small enough that some
# resamples cannot be refit, so its n_rejected > 0 freezes the redraw path.
DIAGNOSE_CASES = {
    "diagnose_cond_indep": ("crossover_missing", ["--bootstrap", "200", "--seed", "5"]),
    "diagnose_indep": ("crossover_missing",
                       ["--indep-method", "indep", "--bootstrap", "200", "--seed", "6"]),
    "diagnose_sparse": ("sparse_refit", ["--bootstrap", "60", "--seed", "5"]),
}


def diagnose_argv(name: str, out: Path) -> list[str]:
    stem, args = DIAGNOSE_CASES[name]
    return ["diagnose", "--input", str(DATA / f"{stem}.csv"), "--checks", "all", *args,
            "--format", "json", "--out", str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_reproduces_frozen_output(name, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["estimate", "--input", str(DATA / f"{name}.csv"), *CASES[name],
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"{name}.out.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(DIAGNOSE_CASES))
def test_diagnose_reproduces_frozen_output(name, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(diagnose_argv(name, out)) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"{name}.out.json").read_bytes()


def test_sparse_diagnose_case_redraws():
    text = (DATA / "diagnose_sparse.out.json").read_text(encoding="utf-8")
    assert json.loads(text)["results"]["independence"]["n_rejected"] > 0
