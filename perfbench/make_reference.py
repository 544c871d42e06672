"""Write the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py [--out DIR]

For every workload and every reference seed, this simulates the reference
input, runs the workload's command through ``pcekit.cli.main`` from the
checkout's ``src/`` and stores the output. The committed files in
``reference/`` were made this way from the commit that introduced the
benchmark; regenerate them only when an output change is intended, and say
so where the change is recorded.
"""

from __future__ import annotations

import argparse
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from workloads import REFERENCE_DIR, REFERENCE_SEEDS, REFERENCE_STREAM, WORKLOADS, Workload
from workloads import generate_trial, write_crossover_csv

SRC = Path(__file__).resolve().parent.parent / "src"


def make_references(workloads: list[Workload], out_dir: Path) -> None:
    sys.path.insert(0, str(SRC))
    import pcekit.cli

    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        input_path = Path(tmp) / "input.csv"
        for workload in workloads:
            for ref_seed in REFERENCE_SEEDS:
                if workload.needs_input:
                    trial = generate_trial(workload.preset, workload.n, ref_seed, REFERENCE_STREAM)
                    write_crossover_csv(trial, input_path)
                out = workload.reference_path(out_dir, ref_seed)
                with redirect_stdout(io.StringIO()):
                    code = pcekit.cli.main(workload.argv(input_path, out, ref_seed))
                if code != 0:
                    raise SystemExit(f"{workload.name} seed {ref_seed}: exit {code}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write the benchmark's reference outputs")
    parser.add_argument("--out", type=Path, default=REFERENCE_DIR)
    make_references(list(WORKLOADS.values()), parser.parse_args().out)
