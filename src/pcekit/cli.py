"""Command-line front end: simulate, estimate, diagnose, replicate.

All randomness in a command flows from one --seed, so a rerun with the same
arguments and inputs produces byte-identical output files. Exit codes: 0 on
success, 1 for data, estimation or file errors, 2 for usage errors (argument
values are checked by the parser). Neither error code prints a traceback.

Every report, and simulate's truth table, is rendered by one function,
`_render`, from three views of the same result: a JSON document, CSV rows
(dicts sharing their keys) and markdown text. JSON is strict: keys are
sorted, and a missing or non-finite number (NaN, +-inf) is `null`. CSV has
one header row; a cell is quoted only when it holds a comma, a quote or a
line break, and is written by `core.csv_cell`, the rule of the data files:
a missing value or NaN is `NA`, and a float is its `repr`, which reads back
to the same number. The markdown view rounds for reading.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from collections import deque
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import core, diagnostics, estimators, resampling, simulator
from .core import CompleterRule, JOINT_LABELS
from .errors import ConfigError, PcekitError

OUT_DIR_ENV = "PCEKIT_OUT_DIR"
FORMATS = ("md", "csv", "json")
METHODS = ("ps", "direct", "both")
# threads drawing replicate's oracle truths beside the main thread; numpy's
# draws and large array operations release the GIL, so the two overlap
ORACLE_WORKERS = 2


def _out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _fmt_float(v: float | None, places: int = 4) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "NA"
    return f"{v:.{places}f}"


def _finite_or_none(obj: object) -> object:
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def _render(fmt: str, doc: object, rows: Sequence[dict], md: str) -> str:
    """One report as text: doc as JSON, rows (dicts sharing their keys) as
    CSV under a header of those keys, or md as it is."""
    if fmt == "json":
        text = json.dumps(_finite_or_none(doc), indent=2, sort_keys=True, allow_nan=False)
        return text + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([core.csv_cell(v) for v in row.values()] for row in rows)
        return buf.getvalue()
    return md + "\n"


def _emit(args: argparse.Namespace, doc: object, rows: Sequence[dict], md: str) -> int:
    """Write a command's report in --format to --out, or to stdout."""
    text = _render(args.format, doc, rows, md)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _config_digest(config: simulator.DgpConfig) -> str:
    import hashlib  # loads OpenSSL; only simulate prints a digest

    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


_RULE_OPS = {">": np.greater, ">=": np.greater_equal, "<": np.less, "<=": np.less_equal}


def _derive_adherence(rule: str, y: np.ndarray) -> np.ndarray:
    """Adherence from outcomes y by a threshold rule such as 'y>0'; missing
    where y is. The threshold is any finite number float() reads."""
    m = re.fullmatch(r"\s*y\s*(>=|<=|>|<)(.*)", rule, re.DOTALL)
    try:
        threshold = float(m.group(2)) if m else math.nan
    except ValueError:
        threshold = math.nan
    if not math.isfinite(threshold):
        raise ConfigError(
            f"cannot parse adherence rule {rule!r}; expected like 'y>0' or 'y<=1.5'"
        )
    hit = _RULE_OPS[m.group(1)](y, threshold)
    return np.where(np.isnan(y), core.A_MISSING, hit).astype(np.int8)


def _parse_covariates(arg: str) -> tuple[str, ...]:
    """Argument type: comma-separated covariate names, or 'none' for no covariates."""
    if arg.strip().lower() == "none":
        return ()
    names = tuple(s.strip() for s in arg.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"{arg!r} names no column; use 'none' for no covariates")
    return names


def _load_config(args: argparse.Namespace) -> simulator.DgpConfig:
    if args.config is not None:
        with open(args.config, "rb") as fh:
            text = core.decode_utf8(fh.read(), args.config)
        try:
            config = simulator.DgpConfig.from_dict(json.loads(text))
        except (ValueError, RecursionError) as exc:  # bad syntax, huge integers, deep nesting
            raise ConfigError(f"{args.config}: not valid JSON ({exc})") from None
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    else:
        config = simulator.scenario(args.scenario)
    updates: dict = {}
    if args.n is not None:
        updates["n_subjects"] = args.n
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(config, **updates) if updates else config


def _load_dataset(args: argparse.Namespace) -> core.TrialColumns:
    shape = core.data_shape(args.input)
    load = core.load_crossover_csv if shape == "crossover" else core.load_parallel_csv
    cols = core.as_columns(load(args.input))
    if args.derive_a:
        cols = dataclasses.replace(cols, a=_derive_adherence(args.derive_a, cols.y))
    return cols


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    out = args.out or str(_out_dir() / "trial.csv")
    truth_out = args.truth_out or str(Path(out).with_suffix("")) + "_truth.json"
    if Path(out).resolve() == Path(truth_out).resolve():
        raise ConfigError(f"--out and --truth-out both name {out}; write them to two files")
    config = _load_config(args)
    # compute and render everything before writing either file
    truth = simulator.true_pce(config, args.oracle_n)
    records = simulator.generate_trial(config)
    doc = truth.to_dict()
    rows = [{"stratum": stratum, **cell} for stratum, cell in doc["strata"].items()]
    text = _render("csv" if truth_out.endswith(".csv") else "json", doc, rows, "")
    core.write_crossover_csv(records, out)
    Path(truth_out).write_text(text, encoding="utf-8")
    print(f"wrote {out} ({len(records)} subjects)")
    print(f"wrote {truth_out} (oracle_n={args.oracle_n})")
    print(f"seed {config.seed}  config {_config_digest(config)}")
    return 0


# ---------------------------------------------------------------- estimate


def _methods(arg: str) -> list[estimators.PceMethod]:
    """The estimation routes a --method value names."""
    if arg == "both":
        return [estimators.PceMethod.PS, estimators.PceMethod.DIRECT]
    return [estimators.PceMethod(arg)]


def _estimates_md(table: list[estimators.EstimateSummary]) -> str:
    """One row per stratum/method with the three quantities side by side."""
    by_key: dict[tuple, dict[str, estimators.EstimateSummary]] = {}
    for r in table:
        by_key.setdefault((str(r.stratum), r.method.value), {})[r.quantity] = r

    def cell(r: estimators.EstimateSummary | None) -> str:
        if r is None:
            return ""
        if math.isnan(r.point):
            return "inestimable"
        text = _fmt_float(r.point, 3)
        if r.ci is not None:
            text += f" ({_fmt_float(r.ci[0], 3)}, {_fmt_float(r.ci[1], 3)})"
        return text

    return _md_table(
        ["Stratum", "Method", "Mean (control)", "Mean (experimental)", "Difference"],
        [
            [stratum, method, cell(q.get("arm0")), cell(q.get("arm1")), cell(q.get("diff"))]
            for (stratum, method), q in by_key.items()
        ],
    )


def _cmd_estimate(args: argparse.Namespace) -> int:
    cols = _load_dataset(args)
    methods = _methods(args.method)
    spec = None
    if args.bootstrap > 0:
        spec = resampling.BootstrapSpec(
            n_replicates=args.bootstrap, seed=args.seed, ci_level=args.ci
        )
    table = estimators.estimate_pce_table(
        cols, methods=methods, covariates=args.covariates, bootstrap_spec=spec
    )
    doc, rows = [], []
    for r in table:
        head = {"stratum": str(r.stratum), "method": r.method.value, "quantity": r.quantity,
                "point": r.point, "se": r.se}
        lo, hi = r.ci or (None, None)
        doc.append({**head, "ci": list(r.ci) if r.ci else None, "n_effective": r.n_effective,
                    "note": r.note})
        rows.append({**head, "lo": lo, "hi": hi, "n_effective": r.n_effective,
                     "note": r.note or ""})
    return _emit(args, doc, rows, _estimates_md(table))


# ---------------------------------------------------------------- diagnose

CHECKS = ("monotonicity", "ignorability", "independence", "effects")


def _cmd_diagnose(args: argparse.Namespace) -> int:
    cols = _load_dataset(args)
    checks = CHECKS if args.checks == "all" else tuple(s.strip() for s in args.checks.split(","))
    for c in checks:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r}; choose from {', '.join(CHECKS)} or all")
    results: dict[str, dict] = {}
    notes: list[str] = []

    def completers(check: str, rule: CompleterRule, what: str) -> core.TrialColumns:
        kept = cols.take(core.completer_mask(cols, rule))
        notes.append(f"{check}: {len(kept)}/{len(cols)} {what} completers")
        return kept

    if "monotonicity" in checks:
        kept = completers("monotonicity", CompleterRule.STRATUM_VAR, "adherence")
        report = diagnostics.monotonicity_report(
            kept, diagnostics.MonotonicityDirection(args.direction)
        )
        results["monotonicity"] = report.to_dict()
    if "ignorability" in checks:
        kept = completers("ignorability", CompleterRule.BOTH, "full")
        report = diagnostics.ignorability_regressions(kept, args.covariates)
        results["ignorability"] = report.to_dict()
    if "independence" in checks:
        kept = completers("independence", CompleterRule.STRATUM_VAR, "adherence")
        report = diagnostics.independence_test(
            kept,
            method=estimators.ProbMethod(args.indep_method),
            covariates=args.covariates,
            n_bootstrap=args.bootstrap,
            seed=args.seed,
        )
        results["independence"] = report.to_dict()
    if "effects" in checks:
        kept = completers("effects", CompleterRule.OUTCOME, "outcome")
        results["effects"] = diagnostics.crossover_effects_test(kept).to_dict()

    rows = [
        {"section": section, "key": key, "value": value}
        for section, obj in results.items()
        for key, value in _flat_items(obj)
    ]
    return _emit(args, {"notes": notes, "results": results}, rows, _diagnose_md(results, notes))


def _flat_items(obj: dict | list, prefix: str = ""):
    """(dotted key, leaf) pairs of nested dicts and lists, in their order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from _flat_items(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def _diagnose_md(results: dict[str, dict], notes: list[str]) -> str:
    parts = [f"- {note}" for note in notes] + [""]
    if "monotonicity" in results:
        d = results["monotonicity"]
        table = _md_table(
            ["Stratum", "Count", "Proportion"],
            [
                [lab, str(d["counts"][lab]), _fmt_float(d["proportions"][lab], 3)]
                for lab in sorted(d["counts"])
            ],
        )
        parts += ["## Monotonicity", "", table, "", d["note"], ""]
    if "ignorability" in results:
        table = _md_table(
            ["Outcome arm", "Adherence arm", "Coef (SE)", "p", "Adj mean a=0", "Adj mean a=1"],
            [
                [
                    str(r["outcome_arm"]),
                    str(r["adherence_arm"]),
                    f"{_fmt_float(r['coefficient'], 2)} ({_fmt_float(r['standard_error'], 2)})",
                    _fmt_float(r["p_value"], 4),
                    _fmt_float(r["adjusted_mean_a0"], 2),
                    _fmt_float(r["adjusted_mean_a1"], 2),
                ]
                for r in results["ignorability"]["regressions"]
            ],
        )
        parts += ["## Ignorability regressions", "", table, ""]
    if "independence" in results:
        d = results["independence"]
        table = _md_table(
            ["Stratum", "Observed", "Estimated"],
            [
                [lab, _fmt_float(d["observed"][lab], 3), _fmt_float(d["estimated"][lab], 3)]
                for lab in sorted(d["observed"])
            ],
        )
        summary = (
            f"max gap {_fmt_float(d['discrepancy'], 4)}, p = {_fmt_float(d['p_value'], 4)} "
            f"(sum-of-squares p = {_fmt_float(d['secondary_p_value'], 4)}; "
            f"{d['n_bootstrap']} resamples, {d['n_rejected']} rejected)"
        )
        parts += ["## Cross-world independence", "", table, "", summary, ""]
    if "effects" in results:
        d = results["effects"]
        table = _md_table(
            ["Effect", "Estimate", "t", "p"],
            [
                [
                    label,
                    _fmt_float(d[f"{key}_effect"], 3) if f"{key}_effect" in d else "",
                    _fmt_float(d[f"{key}_t"], 3),
                    _fmt_float(d[f"{key}_p"], 4),
                ]
                for key, label in (("treatment", "treatment"), ("period", "period"),
                                   ("sequence", "sequence (carry-over)"))
            ],
        )
        parts += ["## Crossover effects", "", table, ""]
    return "\n".join(parts[:-1])


# ---------------------------------------------------------------- replicate


def _cmd_replicate(args: argparse.Namespace) -> int:
    # the pool brings logging, queue and traceback; no other command needs them
    from concurrent.futures import ThreadPoolExecutor

    config = _load_config(args)
    methods = _methods(args.method)

    # (truth, estimate, interval) of each trial that scores a cell, in trial order
    scored: dict[tuple[str, str], list[tuple[float, float, tuple | None]]] = {
        (m.value, str(lab)): [] for m in methods for lab in JOINT_LABELS
    }
    cfgs = [dataclasses.replace(config, seed=config.seed + k) for k in range(args.replicates)]
    # the truths are drawn on worker threads, at most ORACLE_WORKERS ahead of
    # the trial in hand; each has its own seed and is consumed in trial order,
    # so the output and the order in which errors surface match a serial loop
    pool = ThreadPoolExecutor(max_workers=ORACLE_WORKERS)
    try:
        truths = deque(pool.submit(simulator.true_pce, c, args.oracle_n)
                       for c in cfgs[:ORACLE_WORKERS])
        for k, cfg in enumerate(cfgs):
            cols = simulator.trial_columns(cfg)
            truth = truths.popleft().result()
            if k + ORACLE_WORKERS < len(cfgs):
                truths.append(pool.submit(simulator.true_pce, cfgs[k + ORACLE_WORKERS],
                                          args.oracle_n))
            spec = None
            if args.bootstrap > 0:
                spec = resampling.BootstrapSpec(n_replicates=args.bootstrap, seed=cfg.seed)
            rows = estimators.estimate_pce_table(
                cols, methods=methods, covariates=args.covariates, bootstrap_spec=spec
            )
            for r in rows:
                true_val = truth.row(r.stratum).pce
                # a stratum with no oracle members has no truth to score against
                if r.quantity != "diff" or math.isnan(r.point) or math.isnan(true_val):
                    continue
                scored[(r.method.value, str(r.stratum))].append((true_val, r.point, r.ci))
    finally:
        pool.shutdown(cancel_futures=True)

    agg = []
    for (method, stratum), cell in scored.items():
        n = len(cell)
        entry = dict(method=method, stratum=stratum, n_estimable=n, mean_truth=None,
                     mean_estimate=None, bias=None, rmse=None, coverage=None, mean_ci_width=None)
        if n:
            true_vals, ests, cis = zip(*cell)
            errors = [e - t for t, e in zip(true_vals, ests)]
            entry.update(mean_truth=sum(true_vals) / n, mean_estimate=sum(ests) / n,
                         bias=sum(errors) / n, rmse=math.sqrt(sum(d**2 for d in errors) / n))
            if args.bootstrap > 0:  # every scored estimate then has an interval
                entry.update(
                    coverage=sum(lo <= t <= hi for t, (lo, hi) in zip(true_vals, cis)) / n,
                    mean_ci_width=sum(hi - lo for lo, hi in cis) / n,
                )
        agg.append(entry)

    shown = ("mean_truth", "mean_estimate", "bias", "rmse", "coverage")
    md = _md_table(
        ["Method", "Stratum", "n", "Truth", "Estimate", "Bias", "RMSE", "Coverage"],
        [[e["method"], e["stratum"], str(e["n_estimable"])] + [_fmt_float(e[k], 3) for k in shown]
         for e in agg],
    )
    return _emit(args, {"replicates": args.replicates, "cells": agg}, agg, md)


# ---------------------------------------------------------------- parser


def _int_at_least(minimum: int, below: int | None = None) -> Callable[[str], int]:
    """Argument type: an integer no smaller than minimum, and under below if given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    return parse


def _ci_level(text: str) -> float:
    """Argument type: a confidence level strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcekit",
        description="Principal causal effect estimation and crossover-based diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # resample streams are keyed by the seed's 64 bits, so a seed outside
    # [0, 2**64) would repeat the resamples of one inside it
    resample_seed = _int_at_least(0, below=2**64)

    # argument groups that several subcommands share
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=FORMATS, default="md")
    report.add_argument("--out", help="report path (default: stdout)")

    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--input", required=True)
    dataset.add_argument(
        "--covariates", type=_parse_covariates, help="comma-separated x_ columns, or 'none'"
    )
    dataset.add_argument("--derive-a", help="adherence from outcomes, e.g. 'y>0'")

    dgp = argparse.ArgumentParser(add_help=False)
    src = dgp.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=simulator.scenario_names())
    src.add_argument("--config", help="JSON file of generator settings")
    dgp.add_argument(
        "--n", type=_int_at_least(simulator.MIN_SUBJECTS), help="override the subject count"
    )
    dgp.add_argument("--seed", type=_int_at_least(0), help="override the seed")
    dgp.add_argument("--oracle-n", type=_int_at_least(simulator.MIN_ORACLE_N), default=100_000)

    sim = sub.add_parser(
        "simulate", parents=[dgp], help="generate a synthetic crossover trial plus its truth"
    )
    sim.add_argument("--out", help="dataset CSV path (default $PCEKIT_OUT_DIR/trial.csv)")
    sim.add_argument("--truth-out", help="truth table path (.json or .csv)")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser(
        "estimate", parents=[dataset, report], help="per-stratum means and treatment contrasts"
    )
    est.add_argument("--method", choices=METHODS, default="both")
    est.add_argument(
        "--bootstrap", type=_int_at_least(0), default=0, help="replicates (0 = no CIs)"
    )
    est.add_argument("--seed", type=resample_seed, default=0)
    est.add_argument("--ci", type=_ci_level, default=0.95)
    est.set_defaults(func=_cmd_estimate)

    dia = sub.add_parser(
        "diagnose", parents=[dataset, report], help="assumption checks on crossover data"
    )
    dia.add_argument("--checks", default="all", help=f"comma list from {', '.join(CHECKS)}")
    dia.add_argument(
        "--direction",
        choices=[d.value for d in diagnostics.MonotonicityDirection],
        default="increasing",
    )
    dia.add_argument("--indep-method", choices=("cond-indep", "indep"), default="cond-indep")
    dia.add_argument("--bootstrap", type=_int_at_least(1), default=500)
    dia.add_argument("--seed", type=resample_seed, default=0)
    dia.set_defaults(func=_cmd_diagnose)

    rep = sub.add_parser(
        "replicate", parents=[dgp, report], help="repeated simulate+estimate against the truth"
    )
    rep.add_argument("--replicates", type=_int_at_least(1), default=20)
    rep.add_argument("--method", choices=METHODS, default="both")
    rep.add_argument(
        "--covariates", type=_parse_covariates, help="comma-separated x_ columns, or 'none'"
    )
    rep.add_argument("--bootstrap", type=_int_at_least(0), default=0)
    rep.set_defaults(func=_cmd_replicate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PcekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size too large to allocate; numpy names it
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
