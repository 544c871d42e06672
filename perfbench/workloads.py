"""The benchmark's workloads and the trial data it generates for them.

Inputs come from the benchmark's own generator rather than from
``pcekit.simulator``, so a change to the program under test cannot change
what it is fed. The generator follows the same data-generating process as
pcekit's presets: threshold adherence on a Gaussian latent, outcomes linear
in one baseline covariate, and 1:1 randomized sequences.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import same_value

# Parameter values of pcekit's "paper_like" base scenario. The two presets
# used here differ only in which noise correlation is switched on.
_BASE = dict(
    mu_x=41.3,
    sigma_x=22.4,
    eta=(0.757, 0.95),
    beta=(-0.0219, -0.0219),
    gamma=(17.25, 18.95),
    delta=(-0.5, -0.5),
    sigma=(22.8, 22.8),
)
PRESETS = {
    "paper_like": dict(rho_within=0.9, rho_strata=0.0),
    "a4p_violated": dict(rho_within=0.0, rho_strata=0.8),
}
# a few missing outcomes per arm, so the completer filters drop real rows
MISSING_Y_PROB = 0.05

# Timed inputs and reference inputs come from separate random streams, so a
# run's seed never reproduces a reference input by accident.
TIMED_STREAM = 0
REFERENCE_STREAM = 1
REFERENCE_SEEDS = (0, 1, 2, 3)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Trial:
    """A simulated crossover trial, indexed by arm (0 control, 1 experimental)."""

    x: np.ndarray  # (n,) baseline covariate
    ef: np.ndarray  # (n,) True when the experimental arm came first
    a: np.ndarray  # (n, 2) adherence
    y: np.ndarray  # (n, 2) outcome, NaN when missing


def generate_trial(preset: str, n: int, seed: int, stream: int) -> Trial:
    p = dict(_BASE, **PRESETS[preset])
    rng = np.random.default_rng([seed, stream])
    rw, rs = p["rho_within"], p["rho_strata"]
    # noise order: adherence arm 0, adherence arm 1, outcome arm 0, outcome arm 1
    corr = np.array(
        [[1.0, rs, rw, 0.0], [rs, 1.0, 0.0, rw], [rw, 0.0, 1.0, 0.0], [0.0, rw, 0.0, 1.0]]
    )
    x = p["mu_x"] + p["sigma_x"] * rng.standard_normal(n)
    eps = rng.multivariate_normal(np.zeros(4), corr, size=n, method="eigh")
    a = np.empty((n, 2), dtype=np.int64)
    y = np.empty((n, 2))
    for t in (0, 1):
        a[:, t] = p["eta"][t] + p["beta"][t] * x + eps[:, t] > 0.0
        y[:, t] = p["gamma"][t] + p["delta"][t] * x + p["sigma"][t] * eps[:, 2 + t]
    y[rng.random((n, 2)) < MISSING_Y_PROB] = np.nan
    ef = rng.permutation(n) < (n + 1) // 2
    return Trial(x=x, ef=ef, a=a, y=y)


def _cell(v: float) -> str:
    return "NA" if math.isnan(v) else repr(float(v))


def write_crossover_csv(trial: Trial, path: Path) -> None:
    """Write the trial in pcekit's crossover CSV layout."""
    n = trial.x.shape[0]
    width = len(str(n))
    lines = ["subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"]
    for i in range(n):
        first = int(trial.ef[i])  # arm received in period 1
        second = 1 - first
        lines.append(
            ",".join(
                [
                    f"s{i + 1:0{width}d}",
                    "EF" if first else "CF",
                    repr(float(trial.x[i])),
                    str(first),
                    str(second),
                    str(trial.a[i, first]),
                    str(trial.a[i, second]),
                    _cell(trial.y[i, first]),
                    _cell(trial.y[i, second]),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    """One CLI command at fixed sizes; inputs vary only with the seed."""

    name: str
    command: str  # estimate | diagnose | replicate
    preset: str
    n: int
    bootstrap: int = 0
    replicates: int = 0
    oracle_n: int = 100_000

    @property
    def units(self) -> int:
        """Work items per command: replicates, resamples or simulated trials."""
        return self.replicates if self.command == "replicate" else self.bootstrap

    @property
    def output_kind(self) -> str:
        return "json" if self.command == "diagnose" else "csv"

    @property
    def needs_input(self) -> bool:
        return self.command != "replicate"

    def argv(self, input_path: Path | None, out_path: Path, seed: int) -> list[str]:
        if self.command == "estimate":
            args = ["estimate", "--input", str(input_path), "--method", "both",
                    "--bootstrap", str(self.bootstrap)]
        elif self.command == "diagnose":
            args = ["diagnose", "--input", str(input_path), "--checks", "all",
                    "--bootstrap", str(self.bootstrap)]
        else:
            args = ["replicate", "--scenario", self.preset, "--n", str(self.n),
                    "--replicates", str(self.replicates), "--method", "both",
                    "--oracle-n", str(self.oracle_n)]
        return args + ["--seed", str(seed), "--format", self.output_kind, "--out", str(out_path)]

    def reference_path(self, reference_dir: Path, ref_seed: int) -> Path:
        return reference_dir / f"{self.name}-{ref_seed}.{self.output_kind}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimate_boot_small", "estimate", "paper_like", n=200, bootstrap=300),
        Workload("diagnose_refit", "diagnose", "a4p_violated", n=500, bootstrap=1000),
        Workload("replicate_study", "replicate", "a4p_violated", n=300, replicates=30),
    )
}


def check_against_input(workload: Workload, trial: Trial | None, text: str) -> list[str]:
    """Recompute from the generated data what needs no model, and compare.

    This covers the seeded outputs, for which no reference exists: the
    direct-route stratum means of ``estimate``, the stratum and completer
    counts of ``diagnose``, and the table shape of ``replicate``.
    """
    if trial is None:
        return _check_replicate(workload, text)
    both_y = ~np.isnan(trial.y).any(axis=1)
    if workload.command == "estimate":
        return _check_direct_means(trial, both_y, text)
    return _check_diagnose_counts(trial, both_y, text)


def _check_direct_means(trial: Trial, both_y: np.ndarray, text: str) -> list[str]:
    rows = {
        (r["stratum"], r["quantity"]): r["point"]
        for r in csv.DictReader(io.StringIO(text))
        if r["method"] == "direct"
    }
    problems = []
    for a0 in (0, 1):
        for a1 in (0, 1):
            mask = both_y & (trial.a[:, 0] == a0) & (trial.a[:, 1] == a1)
            stratum = f"S{a0}{a1}"
            if not mask.any():
                expected = {"arm0": None, "arm1": None, "diff": None}
            else:
                mu0, mu1 = float(np.mean(trial.y[mask, 0])), float(np.mean(trial.y[mask, 1]))
                expected = {"arm0": mu0, "arm1": mu1, "diff": mu1 - mu0}
            for quantity, want in expected.items():
                got = rows.get((stratum, quantity))
                if got is None:
                    problems.append(f"direct {stratum} {quantity}: row missing")
                elif want is None:
                    if got != "NA":
                        problems.append(f"direct {stratum} {quantity}: {got} for an empty stratum")
                elif got == "NA" or not same_value(float(got), want):
                    problems.append(f"direct {stratum} {quantity}: {got} != {want!r}")
    return problems


def _check_diagnose_counts(trial: Trial, both_y: np.ndarray, text: str) -> list[str]:
    results = json.loads(text)["results"]
    n = trial.x.shape[0]
    expected = {
        "monotonicity.n": n,
        "independence.n": n,
        "ignorability.n": int(both_y.sum()),
        "effects.n_cf": int((both_y & ~trial.ef).sum()),
        "effects.n_ef": int((both_y & trial.ef).sum()),
    }
    for a0 in (0, 1):
        for a1 in (0, 1):
            count = int(((trial.a[:, 0] == a0) & (trial.a[:, 1] == a1)).sum())
            expected[f"monotonicity.counts.S{a0}{a1}"] = count
    problems = []
    for key, want in expected.items():
        node = results
        for part in key.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        if node != want:
            problems.append(f"{key}: {node!r} != {want!r}")
    return problems


def _check_replicate(workload: Workload, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = sorted((r["method"], r["stratum"]) for r in rows)
    expected = sorted((m, f"S{a0}{a1}") for m in ("ps", "direct") for a0 in (0, 1) for a1 in (0, 1))
    problems = [] if cells == expected else [f"cells {cells} != {expected}"]
    for r in rows:
        if not 0 <= int(r["n_estimable"]) <= workload.replicates:
            problems.append(f"{r['method']} {r['stratum']}: n_estimable={r['n_estimable']}")
    return problems
