"""Runs one workload's commands in a fresh process and times them.

run.py starts this script with the path of a JSON job file. The worker
imports ``pcekit.cli`` from the job's source tree, runs the reference
command once (which also warms every code path), then repeats the timed
command through ``pcekit.cli.main(argv)`` until the time window is spent.
The yardstick runs before the first timed command and after each one, so
every command has a measure of the host's speed on either side.
With tracing on, untraced and traced commands alternate, so host drift
affects both alike. It writes ``result.json`` and the outputs run.py checks
into the job's directory; its peak resident memory is that of the workload.
"""

from __future__ import annotations

import ctypes
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, instrument
from yardstick import yardstick

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib: ctypes.CDLL, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def openblas_facts() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _first_symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        facts.append({
            "library": Path(path).name,
            "config": config.decode() if config else None,
            "threads": _first_symbol(lib, _THREAD_SYMBOLS, ctypes.c_int),
        })
    return facts


def run_command(main, argv: list[str], out: Path) -> dict:
    """One CLI call; a non-zero exit or an exception is recorded, not raised."""
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command; keep measuring the rest
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    text = sink.getvalue()
    if error is None and (code != 0 or "Traceback" in text):
        error = text[-2000:]
    return {"wall": wall, "code": code, "error": error,
            "output": out.read_bytes() if out.exists() else None}


def main() -> int:
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text())
    work = job_path.parent
    sys.path.insert(0, job["src"])
    import pcekit
    import pcekit.cli as cli

    if not Path(pcekit.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"pcekit imported from {pcekit.__file__}, not from {job['src']}")

    # the output stays in the job directory for run.py to compare
    ref_run = run_command(cli.main, job["reference_argv"], work / "reference.out")
    yardstick()  # warm-up, not a sample
    yard = yardstick()
    ref_run["has_output"] = ref_run.pop("output") is not None

    out = work / "timed.out"
    commands: list[dict] = []
    first_output: bytes | None = None
    deadline = time.perf_counter() + job["seconds"]
    while True:
        traced = bool(job["trace"]) and len(commands) % 2 == 1
        if traced:
            tracer = Tracer()
            with instrument(tracer):
                rec = run_command(cli.main, job["timed_argv"], out)
            rec["layers"] = tracer.layer_metrics()
        else:
            rec = run_command(cli.main, job["timed_argv"], out)
        rec["traced"] = traced
        rec["yard_before"], yard = yard, yardstick()
        rec["yard_after"] = yard
        output = rec.pop("output")
        rec["has_output"] = output is not None
        if output is not None:
            if first_output is None:
                first_output = output
                (work / "timed-0.out").write_bytes(output)
            elif output != first_output:
                # kept for the tolerant comparison in run.py
                (work / f"timed-{len(commands)}.out").write_bytes(output)
            rec["same_bytes"] = output == first_output
        commands.append(rec)
        # stop before a command, or an untraced-traced pair, that would overrun
        kinds = (False, True) if job["trace"] else (False,)
        if len(commands) >= job["min_commands"] and len(commands) % len(kinds) == 0:
            next_cost = sum(
                statistics.median(c["wall"] + c["yard_after"] for c in commands
                                  if c["traced"] is kind)
                for kind in kinds
            )
            if time.perf_counter() + next_cost > deadline:
                break

    result = {
        "reference": ref_run,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": openblas_facts(),
            "pcekit": str(Path(pcekit.__file__).parent),
        },
    }
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
