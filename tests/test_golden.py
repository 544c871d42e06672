"""Every command must reproduce its frozen outputs byte for byte, in every format.

The inputs and expected outputs under tests/data/ were written by
tests/data/make_golden.py; a change that moves any digit fails here.
"""

import json
from pathlib import Path

import pytest

from pcekit import core
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


# golden file -> (command, input file stem or None, arguments); with the cases
# above, every command writes every format it has at least once.
REPORT_CASES = {
    "crossover_missing.out.md": ("estimate", "crossover_missing",
                                 [*CASES["crossover_missing"], "--format", "md"]),
    "crossover_missing.out.json": ("estimate", "crossover_missing",
                                   [*CASES["crossover_missing"], "--format", "json"]),
    "parallel_ps.out.json": ("estimate", "parallel_ps",
                             [*CASES["parallel_ps"], "--format", "json"]),
    "diagnose_cond_indep.out.md": ("diagnose", "crossover_missing",
                                   ["--bootstrap", "200", "--seed", "5", "--format", "md"]),
    "diagnose_cond_indep.out.csv": ("diagnose", "crossover_missing",
                                    ["--bootstrap", "200", "--seed", "5", "--format", "csv"]),
    **{
        f"replicate_paper_like.out.{fmt}": (
            "replicate", None,
            ["--scenario", "paper_like", "--n", "60", "--seed", "2", "--replicates", "2",
             "--oracle-n", "10000", "--bootstrap", "20", "--format", fmt],
        )
        for fmt in ("md", "csv", "json")
    },
}

SIMULATE_ARGS = ["simulate", "--scenario", "a4p_violated", "--n", "30", "--seed", "3",
                 "--oracle-n", "10000"]
# golden file -> the simulate option that writes it; the truth table's format
# follows the --truth-out suffix
SIMULATE_OUTPUTS = {
    "simulate_a4p.trial.csv": "--out",
    "simulate_a4p.truth.json": "--truth-out",
    "simulate_a4p.truth.csv": "--truth-out",
}


def report_argv(name: str, out: Path) -> list[str]:
    command, stem, args = REPORT_CASES[name]
    source = [] if stem is None else ["--input", str(DATA / f"{stem}.csv")]
    return [command, *source, *args, "--out", str(out)]


def simulate_argvs(outdir: Path) -> list[list[str]]:
    """Two simulate runs: the trial with a JSON truth table, then a CSV one."""
    trial, truth_json, truth_csv = (str(outdir / name) for name in SIMULATE_OUTPUTS)
    return [SIMULATE_ARGS + ["--out", trial, "--truth-out", truth_json],
            SIMULATE_ARGS + ["--out", trial, "--truth-out", truth_csv]]


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


def test_diagnose_builds_no_per_record_arrays(tmp_path, monkeypatch, capsys):
    """diagnose works on columns from load to report: the per-record arm
    accessors and the record completer filter are never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("diagnose went through a per-record path")

    for name in ("a_for_arm", "y_for_arm", "period_of_arm"):
        monkeypatch.setattr(core.SubjectRecord, name, refuse)
    monkeypatch.setattr(core, "completer_filter", refuse)
    out = tmp_path / "out.json"
    assert main(diagnose_argv("diagnose_cond_indep", out)) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / "diagnose_cond_indep.out.json").read_bytes()


def test_sparse_diagnose_case_redraws():
    text = (DATA / "diagnose_sparse.out.json").read_text(encoding="utf-8")
    assert json.loads(text)["results"]["independence"]["n_rejected"] > 0


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_reproduces_frozen_output(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(report_argv(name, out)) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_simulate_reproduces_frozen_outputs(tmp_path, capsys):
    for argv in simulate_argvs(tmp_path):
        assert main(argv) == 0
    capsys.readouterr()
    for name in SIMULATE_OUTPUTS:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
