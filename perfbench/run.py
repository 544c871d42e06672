"""Benchmark of the pcekit CLI: one workload, one seed, one time window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pcekit is imported from ``src/``.
The benchmark simulates the workload's input from the seed and hands the
timed loop to worker.py in a process of its own, so that process's peak
memory belongs to the workload. Before and after that loop it measures the
import cost of ``pcekit.cli`` in fresh interpreters. Times are reported at
the reference host's speed (see yardstick.py). It checks every output,
prints one line of run facts and, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import compare_text
from workloads import (
    REFERENCE_DIR,
    REFERENCE_SEEDS,
    REFERENCE_STREAM,
    TIMED_STREAM,
    WORKLOADS,
    Workload,
    check_against_input,
    generate_trial,
    write_crossover_csv,
)
from yardstick import at_reference_speed, yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 6
# One BLAS thread: pcekit's matrices are too small for a second one to do
# work, and on a host of few shared CPUs it only adds contention.
BLAS_THREADS = 1
MIN_COMMANDS = {0: 3, 1: 4}
TIME_LIMIT_S = 170.0


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PCEKIT_OUT_DIR"] = str(work)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(env: dict[str, str], work: Path,
                  samples: int) -> list[tuple[float, float, float]]:
    """Fresh interpreters importing pcekit.cli: (wall seconds, yardstick before, after)."""
    argv = [sys.executable, "-c", "import pcekit.cli"]
    out = []
    yard = yardstick()
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=work, check=True, capture_output=True)
        wall = time.perf_counter() - start
        after = yardstick()
        out.append((wall, yard, after))
        yard = after
    return out


def write_input(workload: Workload, seed: int, stream: int, path: Path):
    if not workload.needs_input:
        return None
    trial = generate_trial(workload.preset, workload.n, seed, stream)
    write_crossover_csv(trial, path)
    return trial


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: int,
    trace: int,
    reference_dir: Path = REFERENCE_DIR,
) -> tuple[dict, dict]:
    """Run one workload; returns (run facts, result line)."""
    t_start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    loadavg_start = os.getloadavg()
    yard_start = yardstick()  # also warms the yardstick's code paths
    work = WORK_ROOT / f"{workload.name}-{seed}-{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env(work)
        ref_seed = REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]
        trial = write_input(workload, seed, TIMED_STREAM, work / "input.csv")
        write_input(workload, ref_seed, REFERENCE_STREAM, work / "reference-input.csv")
        # half the set-up samples before the timed loop and half after it,
        # so one slow phase of the host does not hold all of them
        setup = measure_setup(env, work, SETUP_SAMPLES // 2)
        job = {
            "src": str(SRC),
            "seconds": seconds,
            "trace": trace,
            "min_commands": MIN_COMMANDS[trace],
            "reference_argv": workload.argv(work / "reference-input.csv", work / "reference.out",
                                            ref_seed),
            "timed_argv": workload.argv(work / "input.csv", work / "timed.out", seed),
        }
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        remaining = TIME_LIMIT_S - (time.perf_counter() - t_start)
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              env=env, cwd=work, capture_output=True, text=True,
                              timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        setup += measure_setup(env, work, SETUP_SAMPLES - len(setup))
        res = json.loads((work / "result.json").read_text())
        facts, result = _evaluate(workload, trial, work, res, reference_dir, ref_seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    commands = res["commands"]
    untraced = [c["wall"] for c in commands if not c["traced"]]
    traced = [c for c in commands if c["traced"]]
    if trace:
        metrics = _layer_metrics(traced, untraced)
    else:
        # times at the reference host's speed; see yardstick.py
        wall = statistics.median(
            at_reference_speed(c["wall"], c["yard_before"], c["yard_after"])
            for c in commands if not c["traced"]
        )
        metrics = {
            "setup_s": (statistics.median(at_reference_speed(*s) for s in setup), "s"),
            "wall_s": (wall, "s"),
            "units_per_s": (workload.units / wall, "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    facts.update(
        workload=workload.name, seed=seed, seconds=seconds, trace=trace, nproc=nproc,
        blas_thread_cap=BLAS_THREADS, **res["facts"],
        loadavg_start=loadavg_start, loadavg_end=os.getloadavg(),
        yardstick_start_end_s=[yard_start, yardstick()],
        setup_samples_s=[s[0] for s in setup], wall_samples_s=untraced,
        wall_median_s=statistics.median(untraced),
        yardstick_s=[commands[0]["yard_before"]] + [c["yard_after"] for c in commands],
        traced_wall_samples_s=[c["wall"] for c in traced],
        elapsed_s=time.perf_counter() - t_start,
    )
    return facts, result


def _evaluate(workload: Workload, trial, work: Path, res: dict, reference_dir: Path,
              ref_seed: int) -> tuple[dict, dict]:
    """Correctness of every command's output; failures feed the error rate."""
    kind = workload.output_kind
    problems: list[str] = []
    failed = 0

    ref_run = res["reference"]
    expected = workload.reference_path(reference_dir, ref_seed).read_bytes()
    got = (work / "reference.out").read_bytes() if ref_run["has_output"] else None
    if ref_run["error"] or got is None:
        failed += 1
        problems.append(f"reference command: {ref_run['error'] or 'no output'}")
    else:
        diffs = compare_text(kind, got.decode(), expected.decode())
        if diffs:
            failed += 1
            problems += [f"reference seed {ref_seed}: {d}" for d in diffs]

    commands = res["commands"]
    first_problems = []
    if (work / "timed-0.out").exists():
        first = (work / "timed-0.out").read_text()
        first_problems = check_against_input(workload, trial, first)
        problems += [f"seeded output: {p}" for p in first_problems]
    for i, c in enumerate(commands):
        if c["error"] or not c["has_output"]:
            failed += 1
            problems.append(f"command {i}: {c['error'] or 'no output'}")
            continue
        diffs = [] if c["same_bytes"] else compare_text(
            kind, (work / f"timed-{i}.out").read_text(), first)
        if diffs or first_problems:
            failed += 1
            problems += [f"command {i} against command 0: {d}" for d in diffs]

    counters = [
        {k: v for k, v in c["layers"].items() if not k.endswith("_s")}
        for c in commands if c["traced"]
    ]
    counters_repeat = all(c == counters[0] for c in counters)
    if not counters_repeat:
        problems.append("layer counters differ between traced commands")
    attempted = 1 + len(commands)
    facts = {
        "reference_seed": ref_seed,
        "reference_byte_identical": got == expected,
        "repeat_byte_identical": all(c.get("same_bytes", False) for c in commands),
        "counters_repeat": counters_repeat,
        "error_rate": failed / attempted,
        "problems": problems[:20],
    }
    result = {"correct": failed == 0 and counters_repeat, "attempted": attempted,
              "failed": failed}
    return facts, result


def _layer_metrics(traced: list[dict], untraced: list[float]) -> dict[str, tuple[float, str]]:
    """Median self seconds per layer over traced commands; counters are per command."""
    out: dict[str, tuple[float, str]] = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith("_s"):
            out[name] = (statistics.median(c["layers"][name] for c in traced), "s")
        else:
            out[name] = (value, "count")
    traced_wall = statistics.median(c["wall"] for c in traced)
    accounted = statistics.median(
        sum(v for k, v in c["layers"].items() if k.endswith("_s")) / c["wall"] for c in traced
    )
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (traced_wall / statistics.median(untraced), "ratio")
    out["trace.accounted_share"] = (accounted, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "pcekit" / "cli.py").is_file():
        print(f"error: no pcekit source tree at {SRC}; run from a pcekit checkout",
              file=sys.stderr)
        return 2
    try:
        facts, result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                      args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
