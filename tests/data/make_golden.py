"""Write the frozen inputs and the frozen outputs of every command that
test_golden.py compares, and the help and usage-error text that
test_cli_text.py compares.

Run from the repository root, only when an output change is intended:

    PYTHONPATH=src python3 tests/data/make_golden.py

The inputs are simulated once and then kept as files, so a later change to
the simulator does not move them.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from pcekit.cli import main
from pcekit.core import as_parallel, write_crossover_csv, write_parallel_csv
from pcekit.simulator import generate_trial, scenario

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_cli_text import TEXT_CASES, TEXT_DIR, cli_text  # noqa: E402
from test_golden import (  # noqa: E402
    CASES,
    DIAGNOSE_CASES,
    REPORT_CASES,
    diagnose_argv,
    report_argv,
    simulate_argvs,
)


def _blank(rec, i):
    """Blank some adherence and outcome cells on a fixed pattern."""
    return dataclasses.replace(
        rec,
        a_p1=None if i % 11 == 3 else rec.a_p1,
        a_p2=None if i % 13 == 5 else rec.a_p2,
        y_p1=None if i % 17 == 0 else rec.y_p1,
        y_p2=None if i % 7 == 2 else rec.y_p2,
    )


def write_inputs() -> None:
    recs = generate_trial(scenario("paper_like", n_subjects=120, seed=21))
    write_crossover_csv([_blank(r, i) for i, r in enumerate(recs)],
                        HERE / "crossover_missing.csv")

    recs = generate_trial(scenario("a4p_violated", n_subjects=120, seed=22))
    obs = as_parallel(recs[:60], 1) + as_parallel(recs[60:], 0)
    obs = [
        dataclasses.replace(o, a=None if i % 9 == 4 else o.a, y=None if i % 8 == 1 else o.y)
        for i, o in enumerate(obs)
    ]
    write_parallel_csv(obs, HERE / "parallel_ps.csv")

    # monotone adherence leaves the S10 cell empty, so direct S10 is inestimable
    recs = generate_trial(scenario("monotone", n_subjects=120, seed=23))
    write_crossover_csv(recs, HERE / "empty_stratum.csv")

    # one subject moved into S10: most resamples miss it, so that cell's
    # bootstrap keeps fewer than all replicates
    i = next(i for i, r in enumerate(recs) if (r.a_for_arm(0), r.a_for_arm(1)) == (1, 1))
    field = "a_p1" if recs[i].period_of_arm(1) == 1 else "a_p2"
    recs[i] = dataclasses.replace(recs[i], **{field: 0})
    write_crossover_csv(recs, HERE / "sparse_stratum.csv")

    # 24 subjects: a few resamples separate an arm's adherence, so the
    # independence test rejects and redraws them
    recs = generate_trial(scenario("paper_like", n_subjects=24, seed=5))
    write_crossover_csv(recs, HERE / "sparse_refit.csv")


def write_outputs() -> None:
    for name, args in CASES.items():
        argv = ["estimate", "--input", str(HERE / f"{name}.csv"), *args,
                "--format", "csv", "--out", str(HERE / f"{name}.out.csv")]
        if main(argv) != 0:
            sys.exit(f"estimate failed for {name}")
    for name in DIAGNOSE_CASES:
        if main(diagnose_argv(name, HERE / f"{name}.out.json")) != 0:
            sys.exit(f"diagnose failed for {name}")
    for name in REPORT_CASES:
        if main(report_argv(name, HERE / name)) != 0:
            sys.exit(f"{REPORT_CASES[name][0]} failed for {name}")
    for argv in simulate_argvs(HERE):
        if main(argv) != 0:
            sys.exit("simulate failed")


def write_cli_text() -> None:
    TEXT_DIR.mkdir(exist_ok=True)
    for name, argv in TEXT_CASES.items():
        code, out, err = cli_text(argv)
        (TEXT_DIR / f"{name}.txt").write_text(out if code == 0 else err, encoding="utf-8")


if __name__ == "__main__":
    write_inputs()
    write_outputs()
    write_cli_text()
