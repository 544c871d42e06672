"""Fuzzing of the CLI's exit-code contract.

Whatever the input file or the arguments, ``pcekit`` exits 0 (success), 1
(bad data or a failed analysis, reported as ``error: ...``) or 2 (a usage
error), and never ends in a Python traceback. A run that exits 0 with
``--format json`` prints strict JSON (no ``NaN`` or ``Infinity``), and one
with ``--format csv`` prints rows as wide as the header. The mutations start from a
valid crossover file and change cells, raw bytes (including bytes that are
not UTF-8) and arguments; for ``simulate`` and ``replicate`` they start
from a valid ``--config`` JSON file and change its keys, values and raw
bytes. Examples are derandomized, so every run of the suite tries the same
inputs.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcekit.cli import main
from pcekit.core import write_crossover_csv
from pcekit.simulator import generate_trial, scenario

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

TOKENS = ["", "NA", "na", "nan", "inf", "-inf", "1e309", "0", "1", "2", "-1", "0.5",
          "abc", "CF", "EF", " 1 ", '"', "1,2", "é", "\x00"]
BYTES = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\x00", b"\r", b"\n", b",", b'"', b" "]

ARGUMENTS = {
    "estimate": [
        ["--method", "ps"], ["--method", "direct"], ["--method", "both"],
        ["--bootstrap", "0"], ["--bootstrap", "3"], ["--bootstrap", "-1"], ["--bootstrap", "x"],
        ["--seed", "7"], ["--ci", "0.9"], ["--ci", "1.5"], ["--ci", "nan"],
        ["--covariates", "none"], ["--covariates", "x_base"], ["--covariates", "x_nope"],
        ["--covariates", "x_base,x_base"],
        ["--derive-a", "y>0"], ["--derive-a", "y>"], ["--derive-a", "z<1"],
        ["--format", "csv"], ["--format", "json"], ["--format", "xml"], ["--unknown"],
    ],
    "diagnose": [
        ["--checks", "all"], ["--checks", "independence"], ["--checks", "monotonicity,effects"],
        ["--checks", "bogus"], ["--checks", ""], ["--indep-method", "indep"],
        ["--indep-method", "observed"], ["--bootstrap", "1"], ["--bootstrap", "8"],
        ["--bootstrap", "0"], ["--seed", "-3"], ["--direction", "decreasing"],
        ["--direction", "equal"],
        ["--covariates", "none"], ["--covariates", "x_nope"], ["--covariates", "x_base,x_base"],
        ["--derive-a", "y>0"],
        ["--format", "csv"], ["--format", "json"],
    ],
}


@pytest.fixture(scope="module")
def base_csv(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "trial.csv"
    write_crossover_csv(generate_trial(scenario("paper_like", n_subjects=16, seed=2)), path)
    return path.read_bytes()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run; an escaping
    exception is the traceback the contract forbids, so it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


def check_output(argv: list[str], out: str) -> None:
    formats = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg == "--format"]
    fmt = formats[-1] if formats else "md"  # argparse keeps the last one given
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), out


def check_contract(argv: list[str]) -> None:
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: "), err
    if code == 0:
        check_output(argv, out)


def mutate_cells(data: bytes, edits: list[tuple[int, int, str]]) -> bytes:
    lines = data.decode("utf-8").split("\n")
    for row, col, token in edits:
        cells = lines[row % len(lines)].split(",")
        cells[col % len(cells)] = token
        lines[row % len(lines)] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


def mutate_bytes(data: bytes, edits: list[tuple[int, bytes]], cut: int | None) -> bytes:
    buf = bytearray(data)
    for pos, new in edits:
        at = pos % len(buf)
        buf[at : at + 1] = new
    return bytes(buf[:cut]) if cut is not None else bytes(buf)


COMMAND = st.sampled_from(sorted(ARGUMENTS))


@FUZZ
@given(
    command=COMMAND,
    edits=st.lists(
        st.tuples(st.integers(0, 17), st.integers(0, 8), st.sampled_from(TOKENS)), max_size=3
    ),
)
def test_mutated_cells_keep_the_exit_contract(base_csv, tmp_path, command, edits):
    path = tmp_path / "cells.csv"
    path.write_bytes(mutate_cells(base_csv, edits))
    check_contract([command, "--input", str(path), "--bootstrap", "4"])


@FUZZ
@given(
    command=COMMAND,
    edits=st.lists(st.tuples(st.integers(0, 4000), st.sampled_from(BYTES)), max_size=3),
    cut=st.none() | st.integers(0, 1500),
)
def test_mutated_bytes_keep_the_exit_contract(base_csv, tmp_path, command, edits, cut):
    path = tmp_path / "bytes.csv"
    path.write_bytes(mutate_bytes(base_csv, edits, cut))
    check_contract([command, "--input", str(path), "--bootstrap", "4"])


@FUZZ
@given(data=st.data(), command=COMMAND)
def test_mutated_arguments_keep_the_exit_contract(base_csv, tmp_path, data, command):
    path = tmp_path / "trial.csv"
    path.write_bytes(base_csv)
    picks = data.draw(st.lists(st.sampled_from(ARGUMENTS[command]), max_size=4))
    argv = [command, "--input", str(path)]
    for pick in picks:
        argv += pick
    if "--bootstrap" not in argv:
        argv += ["--bootstrap", "4"]
    check_contract(argv)


CONFIG_KEYS = ["n_subjects", "seed", "mu_x", "sigma_x", "eta", "sigma", "rho_within",
               "rho_strata", "missing_y_prob", "covariate_name", "bogus", "", "ETA"]
CONFIG_VALUES = [None, True, "x", "x_z", -1, 0, 1, 2, 0.5, -0.5, 1.5, 1e308, -1e308,
                 10**30, float("nan"), float("inf"), [], [1], [1, 2], [0.5, 0.999],
                 [0, -1], [1, 2, 3], ["a", "b"], [None, 1], {}]
CONFIG_RUNS = {
    "simulate": ["--out", "{dir}/sim.csv"],
    "replicate": ["--replicates", "1"],
}


@pytest.fixture(scope="module")
def base_config() -> dict:
    return scenario("paper_like", n_subjects=16, seed=2).to_dict()


def check_config_contract(command: str, path) -> None:
    argv = [command, "--config", str(path), "--n", "16", "--oracle-n", "10000"]
    check_contract(argv + [a.format(dir=path.parent) for a in CONFIG_RUNS[command]])


CONFIG_COMMAND = st.sampled_from(sorted(CONFIG_RUNS))


@FUZZ
@given(
    command=CONFIG_COMMAND,
    edits=st.lists(
        st.tuples(
            st.sampled_from(CONFIG_KEYS),
            st.sampled_from(["set", "rename", "drop"]),
            st.sampled_from(CONFIG_VALUES),
        ),
        max_size=3,
    ),
)
def test_mutated_config_keeps_the_exit_contract(base_config, tmp_path, command, edits):
    config = dict(base_config)
    for key, action, value in edits:
        if action == "set":
            config[key] = value
        elif key in config:
            moved = config.pop(key)
            if action == "rename":
                config[key.upper() or "_"] = moved
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    check_config_contract(command, path)


@FUZZ
@given(
    command=CONFIG_COMMAND,
    edits=st.lists(st.tuples(st.integers(0, 600), st.sampled_from(BYTES)), max_size=3),
    cut=st.none() | st.integers(0, 400),
)
def test_mutated_config_bytes_keep_the_exit_contract(
    base_config, tmp_path, command, edits, cut
):
    path = tmp_path / "config.json"
    path.write_bytes(mutate_bytes(json.dumps(base_config).encode("utf-8"), edits, cut))
    check_config_contract(command, path)
