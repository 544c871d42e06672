"""Run the benchmark on a base commit and on the working tree, in alternating
pairs, and judge the change by the rules it is held to.

    python3 tools/ab_bench.py --workload diagnose_refit --pairs 10 --claim wall_s
    python3 tools/ab_bench.py --workload estimate_boot_small --seed 2 --pairs 3 --base main

The base tree is ``git archive <base>`` (default HEAD); the change tree is a
copy of the working tree's tracked files, so a new file counts once it is
added to the index. Each is unpacked into a temporary directory that is
removed afterwards, and ``perfbench/run.py`` runs from it with
``PYTHONDONTWRITEBYTECODE=1``, so nothing is written into the repository.
Pair i runs the base first when i is even and the change first when it is
odd, so a drift of the host weighs on both sides alike.

It prints one line per run, then for each metric each side's median and
quartiles and the number of pairs the change won (ties count for neither).
The metric named by ``--claim`` is judged by the gain rule: the change wins
at least nine pairs in ten, and the medians differ, in the better
direction, by more than the distance between the base's quartiles. Every
other metric is judged against its bound in ``BENCHMARK.json``: the change's
median may be worse than the base's by at most that share of it, and where
either side's quartiles lie further apart than the bound allows the metric
is unresolved, unless every change run beats every base run.

Exit status: 0 when every run was correct and every verdict passed, 1 when
a run failed or reported ``correct: false``, 3 when a verdict did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent


class Verdict(NamedTuple):
    status: str  # "gain", "no gain", "within bound", "worse" or "unresolved"
    passed: bool
    wins: int
    pairs: int
    base_median: float
    change_median: float
    base_iqr: float
    change_iqr: float


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolating between ranks."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float | None = None, claim: bool = False) -> Verdict:
    """Judge one metric over pairs of runs: base[i] and change[i] ran as pair i.

    better is "lower" or "higher". With claim, the change must win at least
    nine pairs in ten and its median must beat the base's by more than the
    base's interquartile range. Otherwise the change's median may be worse
    than the base's by at most ``bound`` times the base's median; where
    either side's interquartile range is wider than that allowance, the
    metric is unresolved unless every change run beats every base run.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same number of base and change runs, at least one")
    sign = 1.0 if better == "lower" else -1.0 if better == "higher" else None
    if sign is None:
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (bmed - cmed)  # positive when the change's median is better
    facts = (wins, len(base), bmed, cmed, bq3 - bq1, cq3 - cq1)
    if claim:
        passed = 10 * wins >= 9 * len(base) and gain > bq3 - bq1
        return Verdict("gain" if passed else "no gain", passed, *facts)
    if bound is None:
        raise ValueError("a metric that is not claimed needs its bound")
    allowance = bound * abs(bmed)
    if max(bq3 - bq1, cq3 - cq1) > allowance:
        if all(sign * (b - c) > 0 for b in base for c in change):
            return Verdict("within bound", True, *facts)
        return Verdict("unresolved", False, *facts)
    if -gain > allowance:
        return Verdict("worse", False, *facts)
    return Verdict("within bound", True, *facts)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def base_tree(rev: str, dest: Path) -> None:
    """Unpack ``git archive rev`` into dest."""
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", "--format=tar", rev),
                   check=True)


def change_tree(dest: Path) -> None:
    """Copy the working tree's tracked files, as they are on disk, into dest."""
    for name in _git("ls-files", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted on disk stays out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in tree: its result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:] or f"exit {proc.returncode}",
                "metrics": {}}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--base", default="HEAD", help="the commit to compare against")
    parser.add_argument("--claim", default=None, help="the metric whose gain is claimed")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {sorted(metrics)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = args.seconds or bench["run_seconds"]

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    scratch = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    try:
        trees = {"base": scratch / "base", "change": scratch / "change"}
        for tree in trees.values():
            tree.mkdir()
        base_tree(args.base, trees["base"])
        change_tree(trees["change"])
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                result = run_once(trees[side], args.workload, args.seed, seconds)
                runs[side].append(result)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"pair {i} {side:6s} correct={result['correct']} {values}"
                      + (f" error={result['error']!r}" if "error" in result else ""), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = all(r["correct"] for side in runs.values() for r in side)
    passed = True
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds} s runs; "
          f"base {args.base}")
    for name, spec in metrics.items():
        if not all(name in r["metrics"] for side in runs.values() for r in side):
            print(f"{name}: missing from some runs")
            passed = False
            continue
        base, change = ([r["metrics"][name]["value"] for r in runs[side]]
                        for side in ("base", "change"))
        v = verdict(base, change, spec["better"], spec["bound"], claim=name == args.claim)
        passed &= v.passed
        bq, cq = quartiles(base), quartiles(change)
        print(f"{name} ({spec['unit']}, {spec['better']} is better): "
              f"base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}], "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
              f"({(cq[1] - bq[1]) / bq[1]:+.1%}); change won {v.wins}/{v.pairs}; "
              f"{'claimed' if name == args.claim else 'bound ' + str(spec['bound'])}: {v.status}")
    if not correct:
        print("a run failed or reported correct: false")
        return 1
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
