"""Run the benchmark's reference commands on the working tree and on a git
revision, and check the tree's outputs against the committed references:

    python3 tools/reference_check.py [REV] [--workload NAME]

REV defaults to HEAD; it is unpacked with ``git archive`` into a temporary
directory that is removed afterwards, and nothing is written into the
repository. For every workload in ``perfbench/workloads.WORKLOADS`` (or the
one named) and every one of its reference seeds, the reference input is
generated once and the workload's command runs on each side in a fresh
interpreter with one BLAS thread. One line per seed says whether
``perfbench/checks.compare_text`` accepts the tree's output against
``perfbench/reference/`` and whether that output is byte-identical to REV's;
if it is not, how many numbers differ and the largest relative difference.
A benchmark run checks one reference seed; this checks all of them.

The exit status is 1 if a reference check or a command fails, else 0.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no bytecode cache beside perfbench/ or tools/
from ab_bench import base_tree  # noqa: E402
from checks import compare_text  # noqa: E402
from golden_drift import drift  # noqa: E402
from workloads import (REFERENCE_DIR, REFERENCE_SEEDS, REFERENCE_STREAM,  # noqa: E402
                       WORKLOADS, generate_trial, write_crossover_csv)
sys.dont_write_bytecode = _write_bytecode

_MAIN = "import sys; from pcekit.cli import main; sys.exit(main(sys.argv[1:]))"


def run_command(src: Path, argv: list[str], out: Path, work: Path) -> tuple[str | None, str]:
    """Run ``pcekit`` argv, which writes out, from src in a fresh interpreter
    with one BLAS thread: the output, or None and the last line it printed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PCEKIT_OUT_DIR=str(work))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0 or not out.is_file():
        return None, (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return out.read_bytes().decode("utf-8"), ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="the revision to compare against")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    args = parser.parse_args(argv)
    workloads = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    status = 0
    scratch = Path(tempfile.mkdtemp(prefix="reference_check-"))
    try:
        rev_tree, work = scratch / "rev", scratch / "work"
        rev_tree.mkdir()
        work.mkdir()
        try:
            base_tree(args.rev, rev_tree)
        except subprocess.CalledProcessError as exc:
            print(f"git: {exc.stderr.decode('utf-8', 'replace').strip()}", file=sys.stderr)
            return 1
        input_path = work / "input.csv"
        for workload in workloads:
            for ref_seed in REFERENCE_SEEDS:
                if workload.needs_input:
                    trial = generate_trial(workload.preset, workload.n, ref_seed, REFERENCE_STREAM)
                    write_crossover_csv(trial, input_path)
                out = work / f"out.{workload.output_kind}"
                command = workload.argv(input_path, out, ref_seed)
                label = f"{workload.name} seed {ref_seed}:"
                (now, now_error), (then, then_error) = (
                    run_command(tree / "src", command, out, work) for tree in (ROOT, rev_tree))
                if now is None or then is None:
                    side, error = ("tree", now_error) if now is None else (args.rev, then_error)
                    print(f"{label} the command failed on {side}: {error}", flush=True)
                    status = 1
                    continue
                expected = workload.reference_path(REFERENCE_DIR, ref_seed).read_text("utf-8")
                problems = compare_text(workload.output_kind, now, expected)
                status |= bool(problems)
                check = f"FAILS: {problems[0]}" if problems else "passes"
                moved = drift(then, now)
                versus = (f"byte-identical to {args.rev}" if now == then else
                          f"not byte-identical to {args.rev}: {moved.text}" if moved.text else
                          f"not byte-identical to {args.rev}: {moved.changed} numbers differ, "
                          f"largest relative difference {moved.largest:.1e}")
                print(f"{label} reference check {check}; {versus}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
