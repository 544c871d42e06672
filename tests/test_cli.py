import argparse
import csv
import dataclasses
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcekit import cli, core, diagnostics, resampling, simulator
from pcekit.cli import main
from pcekit.core import (
    ParallelObservation,
    as_parallel,
    decode_utf8,
    write_crossover_csv,
    write_parallel_csv,
)
from pcekit.errors import PcekitError
from pcekit.estimators import PceMethod
from pcekit.simulator import MIN_ORACLE_N, generate_trial, scenario

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def trial_csv(tmp_path):
    records = generate_trial(scenario("paper_like", n_subjects=80, seed=4))
    path = tmp_path / "trial.csv"
    write_crossover_csv(records, path)
    return str(path)


@pytest.fixture
def parallel_csv(tmp_path):
    records = generate_trial(scenario("paper_like", n_subjects=40, seed=4))
    obs = as_parallel(records[:20], 1) + as_parallel(records[20:], 0)
    path = tmp_path / "parallel.csv"
    write_parallel_csv(obs, path)
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_writes_and_reruns_byte_identical(tmp_path, capsys):
    args = [
        "simulate", "--scenario", "paper_like", "--n", 50, "--seed", 11,
        "--oracle-n", 10_000,
    ]
    out1, truth1 = tmp_path / "a.csv", tmp_path / "a_truth.json"
    assert run(args + ["--out", out1, "--truth-out", truth1]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].endswith("(50 subjects)")
    assert lines[1].endswith("(oracle_n=10000)")
    assert lines[2].startswith("seed 11  config ")

    out2, truth2 = tmp_path / "b.csv", tmp_path / "b_truth.csv"
    assert run(args + ["--out", out2, "--truth-out", truth2]) == 0
    assert out2.read_bytes() == out1.read_bytes()

    truth = json.loads(truth1.read_text())
    assert set(truth["strata"]) == {"S00", "S01", "S10", "S11"}
    assert truth2.read_text().startswith("stratum,probability")


def test_simulate_writes_its_columns_without_building_records(tmp_path, monkeypatch, capsys):
    config = scenario("paper_like", n_subjects=50, seed=11)
    want = tmp_path / "records.csv"
    write_crossover_csv(generate_trial(config), want)

    def no_records(*args):
        raise AssertionError("simulate built records")

    for module in (core, simulator):  # simulator binds the name at import
        monkeypatch.setattr(module, "crossover_records", no_records)
    out = tmp_path / "t.csv"
    argv = ["simulate", "--scenario", "paper_like", "--n", 50, "--seed", 11, "--oracle-n", 10_000,
            "--out", out]
    assert run(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == want.read_bytes()


def test_simulate_writes_no_trial_when_its_truth_cannot_be_written(tmp_path, capsys):
    (tmp_path / "d2").mkdir()
    out = tmp_path / "d2" / "t.csv"
    argv = ["simulate", "--scenario", "paper_like", "--n", 20, "--oracle-n", 10_000,
            "--out", out, "--truth-out", tmp_path / "nodir" / "t.json"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_simulate_default_paths_use_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PCEKIT_OUT_DIR", str(tmp_path))
    assert run(["simulate", "--scenario", "paper_like", "--n", 30, "--oracle-n", 10_000]) == 0
    capsys.readouterr()
    assert (tmp_path / "trial.csv").exists()
    assert (tmp_path / "trial_truth.json").exists()


def test_simulate_from_config_file(tmp_path, capsys):
    cfg = scenario("a4p_violated", n_subjects=24, seed=8)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "t.csv"
    assert run(["simulate", "--config", path, "--oracle-n", 10_000, "--out", out]) == 0
    capsys.readouterr()
    assert out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**cfg.to_dict(), "bogus": 1}))
    assert run(["simulate", "--config", bad, "--oracle-n", 10_000, "--out", out]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "replicate"])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n_subjects": 40', "not valid JSON"),
        ("[1,2]", "a config must be a JSON object, not list"),
        ('{"n_subjects": "x"}', "n_subjects must be an integer of at least 2"),
        ("[" * 100_000, "not valid JSON"),
    ],
)
def test_malformed_config_file_is_a_data_error(command, text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", path, "--oracle-n", 10_000]
    argv += ["--out", tmp_path / "t.csv"] if command == "simulate" else ["--replicates", 1]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err


def test_estimate_csv_and_json(tmp_path, trial_csv, capsys):
    out = tmp_path / "est.csv"
    assert run(["estimate", "--input", trial_csv, "--format", "csv", "--out", out]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "stratum,method,quantity,point,se,lo,hi,n_effective,note"
    assert len(lines) == 1 + 24  # 2 methods x 4 strata x 3 quantities

    assert run([
        "estimate", "--input", trial_csv, "--method", "ps", "--format", "json",
        "--bootstrap", 40, "--seed", 3,
    ]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 12
    assert {r["method"] for r in rows} == {"ps"}
    diff = next(r for r in rows if r["stratum"] == "S11" and r["quantity"] == "diff")
    assert diff["ci"] is not None and len(diff["ci"]) == 2


def test_estimate_md_to_stdout(trial_csv, capsys):
    assert run(["estimate", "--input", trial_csv, "--method", "direct"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Stratum | Method |")
    assert "S11" in out


def test_estimate_rerun_byte_identical(tmp_path, trial_csv):
    args = [
        "estimate", "--input", trial_csv, "--format", "json",
        "--bootstrap", 30, "--seed", 5,
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_derive_rule(trial_csv, tmp_path, capsys):
    assert run([
        "estimate", "--input", trial_csv, "--derive-a", "y>17", "--method", "direct",
        "--format", "json",
    ]) == 0
    capsys.readouterr()
    for rule in ("q>0", "y>nan"):
        assert run(["estimate", "--input", trial_csv, "--derive-a", rule]) == 1
        assert "cannot parse adherence rule" in capsys.readouterr().err


def _write_derived_adherence(source, target, threshold):
    """Copy a crossover or parallel CSV with each adherence cell set to
    1{y > threshold} of its period's outcome, NA where the outcome is NA."""
    with open(source, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    pairs = [("a_p1", "y_p1"), ("a_p2", "y_p2")] if "a_p1" in header else [("a", "y")]
    for row in rows[1:]:
        for a_col, y_col in pairs:
            y = row[header.index(y_col)]
            row[header.index(a_col)] = "NA" if y == "NA" else str(int(float(y) > threshold))
    with open(target, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize(
    "command, stem, rule, threshold, args",
    [
        ("estimate", "parallel_ps", "y>17", 17.0, ["--method", "ps"]),
        ("estimate", "parallel_ps", "y>1.7e1", 17.0, ["--method", "ps"]),
        ("estimate", "crossover_missing", "y>0", 0.0,
         ["--method", "both", "--bootstrap", "20", "--seed", "3"]),
        ("diagnose", "crossover_missing", "y>0", 0.0, ["--bootstrap", "40", "--seed", "3"]),
    ],
)
def test_derive_a_equals_the_same_adherence_read_from_the_file(
    command, stem, rule, threshold, args, tmp_path, capsys
):
    source = DATA / f"{stem}.csv"
    derived = tmp_path / f"{stem}.csv"
    _write_derived_adherence(source, derived, threshold)
    assert derived.read_text() != source.read_text()
    argv = [command, *args, "--format", "csv"]
    assert run([*argv, "--input", source, "--derive-a", rule]) == 0
    from_rule = capsys.readouterr().out
    assert run([*argv, "--input", derived]) == 0
    assert capsys.readouterr().out == from_rule


@pytest.mark.parametrize("argv", [["estimate", "--method", "direct"], ["diagnose"]])
def test_crossover_only_commands_reject_parallel_data(argv, capsys):
    assert run([*argv, "--input", DATA / "parallel_ps.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "crossover data" in captured.err
    assert "Traceback" not in captured.err


def test_estimate_direct_rejects_parallel_data(parallel_csv, capsys):
    assert run(["estimate", "--input", parallel_csv, "--method", "direct"]) == 1
    assert "needs crossover data" in capsys.readouterr().err
    # weighting still works on parallel data
    assert run(["estimate", "--input", parallel_csv, "--method", "ps", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 12


def test_usage_errors_exit_two(trial_csv):
    with pytest.raises(SystemExit) as exc:
        run(["estimate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--input", trial_csv, "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unrecognized_header_is_a_data_error(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    # the header is judged before a later row the csv module cannot parse
    for text in ("foo,bar\n1,2\n", f"foo,bar\n1,{'1' * 140_000}\n"):
        junk.write_text(text)
        assert run(["estimate", "--input", junk]) == 1
        assert "unrecognized header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
@pytest.mark.parametrize("text", ["", "\n\n"])
def test_empty_input_is_a_data_error(command, text, tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    assert run([command, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: empty file\n"


def test_estimate_decodes_its_input_once(trial_csv, monkeypatch, capsys):
    calls = []

    def decode(data, path):
        calls.append(path)
        return decode_utf8(data, path)

    monkeypatch.setattr(core, "decode_utf8", decode)
    assert run(["estimate", "--input", trial_csv, "--method", "ps"]) == 0
    assert calls == [trial_csv]


@pytest.mark.parametrize("fixture", ["trial_csv", "parallel_csv"])
def test_header_is_read_as_a_csv_row(fixture, request, tmp_path, capsys):
    # R's write.csv quotes every header cell, the loaders skip blank lines,
    # and Excel's "CSV UTF-8" starts the file with a byte-order mark
    plain = Path(request.getfixturevalue(fixture))
    header, rest = plain.read_text().split("\n", 1)
    quoted = ",".join(f'"{name}"' for name in header.split(","))
    assert run(["estimate", "--input", plain, "--method", "ps"]) == 0
    want = capsys.readouterr().out
    variants = [f"{quoted}\n{rest}", f"\n{header}\n{rest}", f"\r\n{quoted}\n{rest}",
                f"\ufeff{header}\n{rest}", f"\ufeff{quoted}\n{rest}"]
    for i, text in enumerate(variants):
        path = tmp_path / f"variant{i}.csv"
        path.write_bytes(text.encode())
        assert run(["estimate", "--input", path, "--method", "ps"]) == 0, text[:80]
        assert capsys.readouterr().out == want
    junk = tmp_path / "junk.csv"
    junk.write_bytes(b'\n"foo","bar"\n1,2\n')
    assert run(["estimate", "--input", junk]) == 1
    assert "unrecognized header" in capsys.readouterr().err


def test_diagnose_subset_checks(tmp_path, trial_csv, capsys):
    out = tmp_path / "diag.json"
    assert run([
        "diagnose", "--input", trial_csv, "--checks", "monotonicity,effects",
        "--format", "json", "--out", out,
    ]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert set(report["results"]) == {"monotonicity", "effects"}
    assert len(report["notes"]) == 2
    assert report["results"]["monotonicity"]["n"] <= 80

    with pytest.raises(SystemExit) as exc:
        run(["diagnose", "--input", trial_csv, "--checks", "spelling"])
    assert exc.value.code == 2
    assert "unknown check" in capsys.readouterr().err


def test_diagnose_reports_checks_in_table_order_once_each(trial_csv, capsys):
    argv = ["diagnose", "--input", trial_csv, "--checks", "effects,monotonicity,effects"]
    assert run([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [note.split(":")[0] for note in report["notes"]] == ["monotonicity", "effects"]
    assert run([*argv, "--format", "csv"]) == 0
    sections = [row["section"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    assert list(dict.fromkeys(sections)) == ["monotonicity", "effects"]
    assert sections == sorted(sections, key=["monotonicity", "effects"].index)
    assert run(argv) == 0
    headings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("## ")]
    assert headings == ["## Monotonicity", "## Crossover effects"]


def test_diagnose_all_checks_markdown(trial_csv, capsys):
    assert run(["diagnose", "--input", trial_csv, "--bootstrap", 40, "--seed", 1]) == 0
    out = capsys.readouterr().out
    for heading in (
        "## Monotonicity",
        "## Ignorability regressions",
        "## Cross-world independence",
        "## Crossover effects",
    ):
        assert heading in out
    assert "adherence completers" in out


def test_diagnose_csv_quotes_cells_holding_commas(trial_csv, capsys):
    assert run([
        "diagnose", "--input", trial_csv, "--checks", "monotonicity",
        "--direction", "equal", "--format", "csv",
    ]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["section", "key", "value"]
    assert all(len(row) == 3 for row in rows)
    note = {key: value for _, key, value in rows[1:]}["note"]
    assert "requires empty S01, S10;" in note


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_diagnose_json_writes_infinite_t_as_null(tmp_path, capsys):
    # period differences are constant within each sequence, so the pooled
    # variance is 0 and the treatment and period t statistics are infinite
    path = tmp_path / "flat.csv"
    path.write_text(
        "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2\n"
        "s1,CF,0.0,0,1,1,0,2.0,1.0\n"
        "s2,CF,1.0,0,1,0,1,5.0,4.0\n"
        "s3,EF,2.0,1,0,1,1,4.0,1.0\n"
        "s4,EF,3.0,1,0,0,0,7.0,4.0\n"
    )
    assert run(["diagnose", "--input", path, "--checks", "effects", "--format", "json"]) == 0
    text = capsys.readouterr().out
    effects = json.loads(text, parse_constant=_reject_constant)["results"]["effects"]
    assert effects["treatment_t"] is None and effects["period_t"] is None
    assert effects["sequence_t"] is not None


def test_diagnose_needs_crossover(parallel_csv, capsys):
    assert run(["diagnose", "--input", parallel_csv]) == 1
    assert "need crossover data" in capsys.readouterr().err


def test_diagnose_rerun_byte_identical(tmp_path, trial_csv):
    args = [
        "diagnose", "--input", trial_csv, "--checks", "independence",
        "--bootstrap", 40, "--seed", 2, "--format", "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


# The CLI in a fresh interpreter, with the resampling engine held to one
# process ("one") or free to fork ("spread"); the last line of stdout is the
# number of forks.
ENGINE_SCRIPT = """
import os, sys
from pcekit import cli, resampling
forks = []
real_fork = os.fork
def counting_fork():
    forks.append(1)
    return real_fork()
os.fork = counting_fork
if sys.argv[1] == "one":
    resampling._process_count = lambda planned: 1
code = cli.main(sys.argv[2:])
print(len(forks))
sys.exit(code)
"""


def run_engine(mode, argv, out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", ENGINE_SCRIPT, mode, *map(str, argv),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    *stdout, forks = proc.stdout.splitlines()
    return out.read_bytes(), stdout, proc.stderr, int(forks)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the engine forks only on Linux with more than one CPU")
@pytest.mark.parametrize("command", ["diagnose", "estimate"])
def test_spread_resampling_writes_the_same_bytes_as_one_process(command, tmp_path):
    if command == "diagnose":
        records = generate_trial(scenario("paper_like", n_subjects=500, seed=6))
        args = ["--checks", "independence", "--bootstrap", 1000, "--format", "json"]
    else:
        # covariates so spread that many resamples put most scores past the
        # clipping band, so the chunk kernel warns
        records = generate_trial(simulator.DgpConfig(
            n_subjects=200, seed=2, sigma_x=8.0, beta=(1.0, 1.0), gamma=(0.0, 1.0)))
        # 500 replicates plan four chunks (163 rows each and 11), so the engine forks
        args = ["--method", "both", "--bootstrap", 500, "--format", "csv"]
    write_crossover_csv(records, tmp_path / "trial.csv")
    argv = [command, "--input", tmp_path / "trial.csv", "--seed", 7, *args]
    out, stdout, stderr, forks = run_engine("one", argv, tmp_path / "one.out")
    assert forks == 0
    spread = run_engine("spread", argv, tmp_path / "spread.out")
    assert spread[3] > 0
    assert spread[0] == out
    assert spread[2] == stderr
    if command == "estimate":
        assert stderr.count("principal scores are outside [0.001, 0.999]") > 10


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="pcekit forks only on Linux with more than one CPU")
def test_replicate_bootstrap_forks_and_writes_the_same_bytes(tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # 1000 subjects make chunks of 32 rows, so 20 replicates are one short chunk
    argv = ["replicate", "--scenario", "paper_like", "--n", 1000, "--seed", 2,
            "--replicates", 2, "--method", "ps", "--bootstrap", 20, "--oracle-n", 10_000,
            "--format", "json"]
    with monkeypatch.context() as m:
        m.setattr(resampling, "_process_count", lambda items: 1)
        assert run(argv + ["--out", tmp_path / "one.json"]) == 0
    assert forks == []
    assert run(argv + ["--out", tmp_path / "spread.json"]) == 0
    # one child for the second trial; each trial's bootstrap stays in the
    # process that runs the trial
    assert len(forks) == 1
    assert (tmp_path / "spread.json").read_bytes() == (tmp_path / "one.json").read_bytes()


# Two runs of one replicate command in a fresh interpreter, in one process;
# the last line of stdout is the minor page faults of the second run.
FAULTS_SCRIPT = """
import resource, sys
from pcekit import cli, resampling
resampling._process_count = lambda items: 1
for run in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the CLI tunes glibc's malloc only")
def test_cli_keeps_freed_memory_for_the_next_command(tmp_path):
    # glibc's default thresholds hand the oracle's freed arrays back to the
    # OS, and the next trial faults them in again: about 21,000 faults
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    argv = ["replicate", "--scenario", "a4p_violated", "--n", "300", "--replicates", "20",
            "--format", "csv", "--out", str(tmp_path / "rep.csv")]
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 2000


def no_c_library(name):
    raise OSError("no C library here")


# a C library without mallopt, as other than glibc's, or none to load
@pytest.mark.parametrize("cdll", [lambda name: object(), no_c_library],
                         ids=["no-mallopt", "no-libc"])
def test_cli_runs_where_malloc_cannot_be_tuned(cdll, tmp_path, monkeypatch):
    argv = ["replicate", "--scenario", "paper_like", "--n", 60, "--seed", 3,
            "--replicates", 3, "--oracle-n", 10_000, "--format", "csv"]
    assert run(argv + ["--out", tmp_path / "tuned.csv"]) == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert run(argv + ["--out", tmp_path / "untuned.csv"]) == 0
    assert (tmp_path / "untuned.csv").read_bytes() == (tmp_path / "tuned.csv").read_bytes()


@pytest.mark.parametrize("method", [m.value for m in PceMethod] + ["both"])
def test_every_method_value_runs_estimate_and_replicate(method, trial_csv, capsys):
    names = [m.value for m in PceMethod] if method == "both" else [method]
    assert run(["estimate", "--input", trial_csv, "--method", method, "--bootstrap", 20,
                "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in rows] == [name for name in names for _ in range(12)]
    assert run(["replicate", "--scenario", "paper_like", "--n", 60, "--seed", 2,
                "--replicates", 2, "--method", method, "--oracle-n", 10_000,
                "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [c["method"] for c in cells] == [name for name in names for _ in range(4)]


def test_replicate_small_run(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert run([
        "replicate", "--scenario", "paper_like", "--n", 60, "--seed", 2,
        "--replicates", 2, "--method", "direct", "--oracle-n", 10_000,
        "--format", "csv", "--out", out,
    ]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("method,stratum,n_estimable")
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "direct"
        assert int(fields[2]) <= 2
        assert fields[7] == "NA"  # no bootstrap, so no coverage


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64])
def test_replicate_bootstraps_trials_whose_seed_passes_the_resample_range(seed, capsys):
    # trial seeds seed and seed + 1 reach 2**64; their resamples wrap to its 64 bits
    assert run(["replicate", "--scenario", "paper_like", "--n", 60, "--seed", seed,
                "--replicates", 2, "--method", "ps", "--bootstrap", 1,
                "--oracle-n", 10_000, "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("method,stratum,n_estimable") and "Traceback" not in err


@pytest.mark.parametrize("processes", [2, 4])
def test_replicate_output_does_not_depend_on_the_process_count(processes, tmp_path, monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("pcekit forks only where os.fork exists")
    argv = ["replicate", "--scenario", "a4p_violated", "--n", 60, "--seed", 4,
            "--replicates", 6, "--oracle-n", 10_000, "--format", "json"]
    monkeypatch.setattr(resampling, "_process_count", lambda items: 1)
    assert run(argv + ["--out", tmp_path / "one.json"]) == 0
    # more processes than this host may have CPUs
    monkeypatch.setattr(resampling, "_process_count", lambda items: min(processes, items))
    assert run(argv + ["--out", tmp_path / "spread.json"]) == 0
    assert (tmp_path / "spread.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_replicate_oracle_error_stops_the_rest_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    # near-monotone adherence leaves S10 one oracle member at seed 12, so the
    # truth of trial 0 of 50 is a ConfigError
    config = dataclasses.replace(scenario("monotone", seed=12), rho_strata=0.99)
    path = tmp_path / "near_monotone.json"
    path.write_text(json.dumps(config.to_dict()))
    seeds = []  # a forked child appends to its own copy
    true_pce = simulator.true_pce

    def counted(cfg, oracle_n):
        seeds.append(cfg.seed)
        return true_pce(cfg, oracle_n)

    monkeypatch.setattr(simulator, "true_pce", counted)
    assert run(["replicate", "--config", path, "--replicates", 50, "--oracle-n", 10_000]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "1 oracle member" in err[0]
    assert seeds == [12]
    # the autouse no_leaked_processes fixture fails a child left behind


@pytest.mark.parametrize("truth_name", ["same.csv", "sub/../same.csv"])
def test_simulate_refuses_one_path_for_trial_and_truth(truth_name, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    argv = ["simulate", "--scenario", "paper_like", "--n", 20, "--oracle-n", 10_000,
            "--out", tmp_path / "same.csv", "--truth-out", tmp_path / truth_name]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out and --truth-out both name")
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]


def test_replicate_reports_a_trial_error_before_its_truth_error(tmp_path, capsys):
    # trial 0's period-2 outcomes overflow, and so do the sums of its oracle
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_subjects": 20, "gamma": [1e308, 1e308],
                                "pi_period": 1.7e308, "lambda_carry": 1.0}))
    assert run(["replicate", "--config", path, "--replicates", 3, "--oracle-n", 10_000]) == 1
    assert capsys.readouterr().err.startswith("error: period-2 outcome draws are not finite")


def test_replicate_reports_an_overflowing_squared_error_as_an_error(tmp_path, capsys):
    # finite draws and estimates near 1e200 whose scored errors square past the float range
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_subjects": 30, "delta": [1e200, 1e200]}))
    out = tmp_path / "rep.json"
    argv = ["replicate", "--config", path, "--replicates", 2, "--oracle-n", 10_000, "--out", out]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: squared estimate errors are not finite")
    assert not out.exists()


@pytest.fixture
def huge_trial_csv(tmp_path, capsys):
    """A trial whose draws are all finite but whose outcomes are near 1e200."""
    config, trial = tmp_path / "cfg.json", tmp_path / "huge.csv"
    config.write_text(json.dumps({"n_subjects": 200, "delta": [1e200, 1e200]}))
    assert run(["simulate", "--config", config, "--oracle-n", 10_000, "--out", trial]) == 0
    capsys.readouterr()
    return trial


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--bootstrap", 20, "--format", "csv"],  # the bootstrap SE squares
        ["diagnose", "--checks", "ignorability"],  # the OLS residual sum of squares
    ],
)
def test_an_overflow_in_a_command_is_an_error(argv, huge_trial_csv, tmp_path, capsys):
    out = tmp_path / "report.txt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--input", huge_trial_csv, "--out", out]) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: overflow encountered in ")
    assert not out.exists()


def test_main_leaves_numpy_error_handling_as_it_found_it(huge_trial_csv, capsys):
    before = np.geterr()
    assert run(["estimate", "--input", huge_trial_csv]) == 0
    assert np.geterr() == before
    assert run(["estimate", "--input", huge_trial_csv, "--bootstrap", 20]) == 1
    assert np.geterr() == before


def test_simulate_monotone_writes_empty_stratum_as_missing(tmp_path, capsys):
    """Monotone adherence leaves S10 without oracle members: probability 0, no means."""
    base = ["simulate", "--scenario", "monotone", "--n", 40, "--seed", 0, "--oracle-n", 10_000,
            "--out", tmp_path / "trial.csv"]
    assert run(base + ["--truth-out", tmp_path / "truth.json"]) == 0
    assert run(base + ["--truth-out", tmp_path / "truth.csv"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    s10 = json.loads((tmp_path / "truth.json").read_text())["strata"]["S10"]
    assert s10 == {"probability": 0.0, "prob_mc_se": 0.0, "mu0": None, "mu1": None,
                   "pce": None, "pce_mc_se": None, "n_members": 0}
    rows = list(csv.DictReader(io.StringIO((tmp_path / "truth.csv").read_text())))
    s10 = next(r for r in rows if r["stratum"] == "S10")
    assert [s10[k] for k in ("mu0", "mu1", "pce", "pce_mc_se", "n_members")] == ["NA"] * 4 + ["0"]


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_replicate_monotone_reports_empty_stratum_as_not_estimable(fmt, tmp_path, capsys):
    out = tmp_path / f"rep.{fmt}"
    assert run(["replicate", "--scenario", "monotone", "--n", 60, "--seed", 1,
                "--replicates", 2, "--oracle-n", 10_000, "--format", fmt, "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    text = out.read_text()
    if fmt == "json":
        cells = json.loads(text)["cells"]
        rows = [c for c in cells if c["stratum"] == "S10"]
        assert [c["method"] for c in rows] == ["ps", "direct"]
        for c in rows:
            assert c["n_estimable"] == 0
            assert all(c[k] is None for k in ("mean_truth", "mean_estimate", "bias", "rmse"))
        assert all(c["n_estimable"] == 2 for c in cells if c["stratum"] != "S10")
    elif fmt == "csv":
        rows = [r for r in csv.DictReader(io.StringIO(text)) if r["stratum"] == "S10"]
        assert len(rows) == 2
        assert all(r["n_estimable"] == "0" and r["mean_truth"] == "NA" for r in rows)
    else:
        assert text.count("| S10 | 0 | NA | NA | NA | NA | NA |") == 2


@pytest.mark.parametrize("command", ["simulate", "replicate"])
@pytest.mark.parametrize(
    "config",
    [
        {"n_subjects": 20, "mu_x": 1e308, "sigma_x": 1e308},
        {"n_subjects": 20, "gamma": [1e308, 1e308], "sigma": [1e308, 1e308]},
        {"n_subjects": 20, "gamma": [1e308, 1e308], "pi_period": 1.7e308, "lambda_carry": 1.0},
    ],
)
def test_overflowing_config_is_a_data_error(command, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", path, "--oracle-n", 10_000, "--out", tmp_path / "out.csv"]
    if command == "replicate":
        argv += ["--replicates", 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert "Warning" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


def test_parallel_round_trip_keeps_response_indicator(tmp_path):
    obs = [
        ParallelObservation("p1", ("x_age",), (4.0,), t=0, a=1, y=None),
        ParallelObservation("p1", ("x_age",), (4.0,), t=1, a=0, y=2.5),
    ]
    path = tmp_path / "p.csv"
    write_parallel_csv(obs, path)
    assert run(["estimate", "--input", path, "--method", "ps"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--input", "{input}", "--ci", "1.5"],
        ["estimate", "--input", "{input}", "--ci", "0"],
        ["estimate", "--input", "{input}", "--ci", "abc"],
        ["estimate", "--input", "{input}", "--bootstrap", "-3"],
        ["diagnose", "--input", "{input}", "--bootstrap", "-1"],
        ["diagnose", "--input", "{input}", "--bootstrap", "0"],
        ["replicate", "--scenario", "paper_like", "--replicates", "0"],
        ["replicate", "--scenario", "paper_like", "--bootstrap", "-1"],
        ["simulate", "--scenario", "paper_like", "--n", "1"],
        ["simulate", "--scenario", "paper_like", "--seed", "-1"],
        ["replicate", "--scenario", "paper_like", "--n", "1"],
        ["replicate", "--scenario", "paper_like", "--seed", "-1"],
        # resample streams use the seed's 64 bits: these would alias 2**64 - 3,
        # 5 and 2**64 - 1
        ["estimate", "--input", "{input}", "--seed", "-3"],
        ["estimate", "--input", "{input}", "--seed", str(2**64 + 5)],
        ["diagnose", "--input", "{input}", "--seed", "-1"],
        ["diagnose", "--input", "{input}", "--seed", str(2**64)],
        # a list that names no column would silently fit intercept-only models
        ["estimate", "--input", "{input}", "--covariates", ""],
        ["diagnose", "--input", "{input}", "--covariates", ","],
        ["replicate", "--scenario", "paper_like", "--covariates", " , "],
        # a check name must be one of the table's, and not empty
        ["diagnose", "--input", "{input}", "--checks", ""],
        ["diagnose", "--input", "{input}", "--checks", "monotonicity,"],
    ],
)
def test_bad_argument_values_exit_two(argv, trial_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        run([a.format(input=trial_csv) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


class Drew(Exception):
    """A draw was reached: the call's own checks had passed."""


def _drew(*args, **kwargs):
    raise Drew


AGREE_COLS = core.as_columns(generate_trial(scenario("paper_like", n_subjects=60, seed=1)))
# the library call each checked option's value feeds, as the command makes it
# (a bootstrap count of 0 makes none); a draw it reaches raises Drew
FEEDS = {
    **{(command, option): feed for command in ("simulate", "replicate") for option, feed in (
        ("--n", lambda v: simulator.DgpConfig(n_subjects=v)),
        ("--seed", lambda v: simulator.DgpConfig(n_subjects=2, seed=v)),
        ("--oracle-n", lambda v: simulator.true_pce(simulator.DgpConfig(n_subjects=2), v)),
    )},
    ("estimate", "--bootstrap"): lambda v: v == 0 or resampling.BootstrapSpec(v, 0),
    ("estimate", "--seed"): lambda v: resampling.BootstrapSpec(1, v),
    ("estimate", "--ci"): lambda v: resampling.BootstrapSpec(1, 0, v),
    ("diagnose", "--bootstrap"): lambda v: diagnostics.independence_test(AGREE_COLS,
                                                                         n_bootstrap=v),
    ("diagnose", "--seed"): lambda v: diagnostics.independence_test(AGREE_COLS, n_bootstrap=1,
                                                                    seed=v),
    ("replicate", "--bootstrap"): lambda v: v == 0 or resampling.BootstrapSpec(v, 0),
    # the number of trials, which replicate runs itself
    ("replicate", "--replicates"): None,
}
REQUIRED = {"simulate": ["--scenario", "paper_like"], "replicate": ["--scenario", "paper_like"],
            "estimate": ["--input", "in.csv"], "diagnose": ["--input", "in.csv"]}


def _boundary_cases():
    """(command, option, text, read, accepted) at each bound of each option
    whose value a library check reads, found by walking each command's parser:
    the bound itself is accepted and the value just past it refused."""
    for command in cli.COMMANDS:
        sub = next(a for a in cli.build_parser(command)._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        for action in sub._actions:
            if getattr(action.type, "func", None) is not cli._checked:
                continue
            read, check, _, bounds = action.type.args
            if check is resampling.check_level:
                pairs = [(math.nextafter(0.0, 1.0), 0.0), (math.nextafter(1.0, 0.0), 1.0)]
            else:
                low, limit = (*bounds, math.inf)[:2]
                pairs = [(low, low - 1)] + ([(limit - 1, limit)] if limit < math.inf else [])
            option = action.option_strings[0]
            for inside, outside in pairs:
                for value, accepted in ((inside, True), (outside, False)):
                    yield pytest.param(command, option, repr(value), read, accepted,
                                       id=f"{command} {option} {value!r}")


@pytest.mark.parametrize("command, option, text, read, accepted", _boundary_cases())
def test_parser_and_library_agree_at_each_bound(command, option, text, read, accepted,
                                                 monkeypatch, capsys):
    assert (command, option) in FEEDS, f"{command} {option} has no entry in FEEDS"
    feed = FEEDS[command, option]
    monkeypatch.setattr(simulator, "_draw_population", _drew)
    parser = cli.build_parser(command)
    argv = [command, *REQUIRED[command], option, text]
    if accepted:
        parser.parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err
    if feed is None:
        return
    try:
        feed(read(text))
    except Drew:
        pass
    except (PcekitError, ValueError):
        assert not accepted, f"{command} {option} {text}: only the parser takes it"
        return
    assert accepted, f"{command} {option} {text}: only the library takes it"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--input", "{input}", "--bootstrap", "5"],
        ["diagnose", "--input", "{input}", "--checks", "independence", "--bootstrap", "5"],
    ],
)
def test_the_largest_resample_seed_is_accepted(argv, trial_csv, capsys):
    assert run([a.format(input=trial_csv) for a in argv] + ["--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize("command", ["simulate", "replicate"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"n_subjects": 1}, "n_subjects must be an integer of at least 2"),
        pytest.param({"n_subjects": 20, "seed": -1}, "seed must be an integer of at least 0, not -1",
                     id="config1-seed must be non-negative"),
    ],
)
def test_out_of_range_config_values_are_data_errors(command, config, message, tmp_path, capsys):
    # the same values as --n 1 or --seed -1, which exit 2, are data errors in a file
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run([command, "--config", path, "--out", tmp_path / "out.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "replicate"])
def test_small_oracle_n_exits_two_before_any_draw(command, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("drew a trial or a truth before the arguments were checked")

    for name in ("generate_trial", "trial_columns", "true_pce"):
        monkeypatch.setattr(simulator, name, fail)
    argv = [command, "--scenario", "paper_like", "--oracle-n", MIN_ORACLE_N - 1,
            "--out", tmp_path / "out.csv"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --oracle-n: oracle_n must be an integer of at least {MIN_ORACLE_N}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# sizes numpy cannot describe: n = 2**62 subjects' (2, n) float64 outcomes
# would hold 2**66 bytes
@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--scenario", "paper_like", "--n", 10**30], 2),
        (["simulate", "--scenario", "paper_like", "--n", 2**62], 2),
        (["replicate", "--scenario", "paper_like", "--n", 10**30], 2),
        (["simulate", "--scenario", "paper_like", "--oracle-n", 10**30], 2),
        (["simulate", "--config", "{config}"], 1),
        (["replicate", "--config", "{config}"], 1),
    ],
)
def test_undescribable_sizes_are_refused_before_any_draw(argv, code, tmp_path, monkeypatch,
                                                         capsys):
    def fail(*args, **kwargs):
        raise AssertionError("drew a trial or a truth before the sizes were checked")

    for name in ("generate_trial", "trial_columns", "true_pce"):
        monkeypatch.setattr(simulator, name, fail)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_subjects": 10**30}))
    argv = [str(a).format(config=config) for a in argv] + ["--out", tmp_path / "out.csv"]
    try:
        got = run(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert "must be an integer of at least" in err and f"below {simulator.SIZE_LIMIT}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "argv",
    [
        # 10**15 members fail at the first allocation; a size the machine could
        # partly allocate would exhaust its memory before failing
        ["simulate", "--scenario", "paper_like", "--oracle-n", 10**15],
        ["replicate", "--scenario", "paper_like", "--n", 10**15, "--replicates", 1,
         "--oracle-n", 10_000],
    ],
)
def test_unallocatable_sizes_are_errors_without_a_traceback(argv, tmp_path, capsys):
    assert run(argv + ["--out", tmp_path / "out.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_unreadable_input_is_a_data_error(command, tmp_path, capsys):
    assert run([command, "--input", tmp_path / "absent.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file" in err
    assert run([command, "--input", tmp_path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_non_finite_input_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text(
        "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2\n"
        "s1,CF,nan,0,1,1,0,1.0,2.0\n"
    )
    assert run(["estimate", "--input", path]) == 1
    assert "row 2: x_base='nan' is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_non_utf8_input_is_a_data_error(command, tmp_path, capsys):
    path = tmp_path / "latin.csv"
    head = b"subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2\n"
    for mark in (b"", b"\xef\xbb\xbf"):  # the offset counts a byte-order mark
        path.write_bytes(mark + head + b"s1,CF,\xff\xfe,0,1,1,0,1.0,2.0\n")
        assert run([command, "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        offset = len(mark) + len(head) + 6
        assert f"{path}: not UTF-8 text (byte 0xff at offset {offset})" in err


@pytest.mark.parametrize("command", ["estimate", "diagnose"])
def test_over_long_cell_is_a_data_error(command, tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(
        "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2\n"
        f"s1,CF,{'1' * 140_000},0,1,1,0,1.0,2.0\n"
    )
    assert run([command, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: line 2: field larger than field limit")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--method", "ps"],
        ["estimate", "--method", "both"],
        ["diagnose", "--checks", "ignorability"],
        ["diagnose", "--checks", "independence", "--bootstrap", "5"],
        ["replicate", "--scenario", "paper_like", "--n", "40", "--replicates", "1",
         "--oracle-n", "10000"],
    ],
)
def test_repeated_covariate_is_a_data_error(argv, trial_csv, capsys):
    if argv[0] != "replicate":
        argv = [*argv, "--input", trial_csv]
    assert run([*argv, "--covariates", "x_base,x_base"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: covariate 'x_base' is listed more than once")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--method", "direct"],
        ["diagnose", "--checks", "monotonicity"],
        ["diagnose", "--checks", "effects"],
        ["replicate", "--scenario", "paper_like", "--n", "40", "--replicates", "1",
         "--oracle-n", "10000", "--method", "direct"],
    ],
)
def test_unknown_covariate_fails_whatever_the_route_or_check(argv, trial_csv, capsys):
    # these never fit on covariates, yet a name that is not a column is still an error
    if argv[0] != "replicate":
        argv = [*argv, "--input", trial_csv]
    assert run([*argv, "--covariates", "x_nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown covariate among ('x_nope',); have ('x_base',)\n"


def test_se_from_one_replicate_is_missing(trial_csv, capsys):
    argv = ["estimate", "--input", trial_csv, "--method", "direct", "--bootstrap", 1]
    assert run([*argv, "--format", "csv"]) == 0
    rows = [r for r in csv.DictReader(io.StringIO(capsys.readouterr().out)) if r["point"] != "NA"]
    assert rows and all(r["n_effective"] == "1" and r["se"] == "NA" for r in rows)
    assert run([*argv, "--format", "json"]) == 0
    doc = [r for r in json.loads(capsys.readouterr().out) if r["point"] is not None]
    assert doc and all(r["n_effective"] == 1 and r["se"] is None for r in doc)
