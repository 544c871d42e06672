"""Command-line front end: simulate, estimate, diagnose, replicate.

All randomness in a command flows from one --seed, so a rerun with the same
arguments and inputs produces byte-identical output files. Exit codes: 0 on
success, 1 for data, estimation or file errors, 2 for usage errors (the parser
checks each value by the library's rule). Neither error code prints a traceback.

Every report, and simulate's truth table, is rendered by one function,
`_render`, from three views of the same result: a JSON document, CSV rows
(dicts sharing their keys) and markdown text. JSON is strict: keys are
sorted, and a missing or non-finite number (NaN, +-inf) is `null`. CSV has
one header row; a cell is quoted only when it holds a comma, a quote or a
line break, and is written by `core.csv_cell`, the rule of the data files:
a missing value or NaN is `NA`, and a float is its `repr`, which reads back
to the same number. The markdown view rounds for reading.

No command starts a thread. `replicate` runs its whole trials (draw,
oracle truth, estimate and scoring) through `resampling.spread`, which may
fork; a trial's bootstrap then stays in the process that runs the trial.
`estimate` and `diagnose` spread their bootstrap chunks the same way.
`main` has glibc's allocator keep freed memory in the process for reuse,
and makes a numpy overflow raise, which ends the command with one error
line; pcekit used as a library leaves both as they are.

Each command loads only the modules it runs, since a fresh process
compiles every module it imports. `import pcekit.cli` loads `core`,
`errors`, `estimators`, `glm` and `resampling`, which `estimate` runs on;
`diagnose` loads `diagnostics` too, and `simulate` and `replicate` load
`simulator`. The parser names all four commands but builds the arguments
of the one on the command line alone, as their choices come from
`diagnostics` and `simulator`.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import io
import math
import os
import re
import sys
from contextlib import closing
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from . import core, estimators, resampling
from .core import CompleterRule, JOINT_LABELS
from .errors import ConfigError, PcekitError

if TYPE_CHECKING:
    from . import simulator

OUT_DIR_ENV = "PCEKIT_OUT_DIR"
FORMATS = ("md", "csv", "json")
# each --method value and the estimation routes it names: one, or every one
METHODS = {**{m.value: (m,) for m in estimators.PceMethod}, "both": tuple(estimators.PceMethod)}


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
        import json  # only JSON reports and simulate's truth file need it

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
    import json

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
    from . import simulator

    if args.config is not None:
        import json

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
    updates = {k: v for k, v in (("n_subjects", args.n), ("seed", args.seed)) if v is not None}
    return dataclasses.replace(config, **updates)


def _load_dataset(args: argparse.Namespace) -> core.TrialColumns:
    cols = core.load_columns(args.input)
    if args.derive_a:
        cols = dataclasses.replace(cols, a=_derive_adherence(args.derive_a, cols.y))
    # an unknown or repeated --covariates name fails whatever the route or check
    return cols.select(args.covariates)


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulator

    out = args.out or str(_out_dir() / "trial.csv")
    truth_out = args.truth_out or str(Path(out).with_suffix("")) + "_truth.json"
    if Path(out).resolve() == Path(truth_out).resolve():
        raise ConfigError(f"--out and --truth-out both name {out}; write them to two files")
    config = _load_config(args)
    # compute and render everything before writing either file
    doc = simulator.true_pce(config, args.oracle_n).to_dict()
    cols = simulator.trial_columns(config)
    rows = [{"stratum": stratum, **cell} for stratum, cell in doc["strata"].items()]
    text = _render("csv" if truth_out.endswith(".csv") else "json", doc, rows, "")
    core.write_columns(simulator.subject_ids(config.n_subjects), cols, out)
    try:
        Path(truth_out).write_text(text, encoding="utf-8")
    except OSError:  # write both files or neither
        Path(out).unlink()
        raise
    print(f"wrote {out} ({len(cols)} subjects)")
    print(f"wrote {truth_out} (oracle_n={args.oracle_n})")
    print(f"seed {config.seed}  config {_config_digest(config)}")
    return 0


# ---------------------------------------------------------------- estimate


def _estimates_md(table: list[estimators.EstimateSummary]) -> str:
    """One row per method/stratum with the three quantities side by side. The
    table comes in (method, stratum, quantity) order, so each run of three
    rows is one method/stratum's arm0, arm1 and diff."""

    def cell(r: estimators.EstimateSummary) -> str:
        if math.isnan(r.point):
            return "inestimable"
        text = _fmt_float(r.point, 3)
        if r.ci is not None:
            text += f" ({_fmt_float(r.ci[0], 3)}, {_fmt_float(r.ci[1], 3)})"
        return text

    return _md_table(
        ["Stratum", "Method", "Mean (control)", "Mean (experimental)", "Difference"],
        [
            [str(arm0.stratum), arm0.method.value, cell(arm0), cell(arm1), cell(diff)]
            for arm0, arm1, diff in zip(*[iter(table)] * len(estimators.QUANTITIES))
        ],
    )


def _cmd_estimate(args: argparse.Namespace) -> int:
    cols = _load_dataset(args)
    methods = METHODS[args.method]
    spec = None
    if args.bootstrap > 0:
        spec = resampling.BootstrapSpec(
            n_replicates=args.bootstrap, seed=args.seed, ci_level=args.ci
        )
    table = estimators.estimate_pce_table(cols, methods=methods, bootstrap_spec=spec)
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


def _monotonicity_md(d: dict) -> str:
    rows = [[lab, str(d["counts"][lab]), _fmt_float(d["proportions"][lab], 3)]
            for lab in sorted(d["counts"])]
    return _md_table(["Stratum", "Count", "Proportion"], rows) + "\n\n" + d["note"]


def _ignorability_md(d: dict) -> str:
    return _md_table(
        ["Outcome arm", "Adherence arm", "Coef (SE)", "p", "Adj mean a=0", "Adj mean a=1"],
        [
            [str(r["outcome_arm"]), str(r["adherence_arm"]),
             f"{_fmt_float(r['coefficient'], 2)} ({_fmt_float(r['standard_error'], 2)})",
             _fmt_float(r["p_value"], 4), _fmt_float(r["adjusted_mean_a0"], 2),
             _fmt_float(r["adjusted_mean_a1"], 2)]
            for r in d["regressions"]
        ],
    )


def _independence_md(d: dict) -> str:
    rows = [[lab, _fmt_float(d["observed"][lab], 3), _fmt_float(d["estimated"][lab], 3)]
            for lab in sorted(d["observed"])]
    summary = (
        f"max gap {_fmt_float(d['discrepancy'], 4)}, p = {_fmt_float(d['p_value'], 4)} "
        f"(sum-of-squares p = {_fmt_float(d['secondary_p_value'], 4)}; "
        f"{d['n_bootstrap']} resamples, {d['n_rejected']} rejected)"
    )
    return _md_table(["Stratum", "Observed", "Estimated"], rows) + "\n\n" + summary


def _effects_md(d: dict) -> str:
    return _md_table(
        ["Effect", "Estimate", "t", "p"],
        [
            [label, _fmt_float(d[f"{key}_effect"], 3) if f"{key}_effect" in d else "",
             _fmt_float(d[f"{key}_t"], 3), _fmt_float(d[f"{key}_p"], 4)]
            for key, label in (("treatment", "treatment"), ("period", "period"),
                               ("sequence", "sequence (carry-over)"))
        ],
    )


class Check(NamedTuple):
    """One diagnose check: the completers it runs on (named in its note by
    ``NOUNS``), its runner and its markdown section, drawn from the
    report's dict."""

    name: str
    rule: CompleterRule
    # (the diagnostics module, completers, args) -> report with to_dict()
    run: Callable[[ModuleType, core.TrialColumns, argparse.Namespace], object]
    heading: str
    body: Callable[[dict], str]


# each completer rule as a diagnose note names it
NOUNS = {CompleterRule.STRATUM_VAR: "adherence", CompleterRule.BOTH: "full",
         CompleterRule.OUTCOME: "outcome"}

# the checks in the order diagnose runs and reports them
CHECKS = (
    Check("monotonicity", CompleterRule.STRATUM_VAR,
          lambda diag, kept, args: diag.monotonicity_report(kept, args.direction),
          "Monotonicity", _monotonicity_md),
    Check("ignorability", CompleterRule.BOTH,
          lambda diag, kept, args: diag.ignorability_regressions(kept),
          "Ignorability regressions", _ignorability_md),
    Check("independence", CompleterRule.STRATUM_VAR,
          lambda diag, kept, args: diag.independence_test(
              kept, args.indep_method, n_bootstrap=args.bootstrap, seed=args.seed),
          "Cross-world independence", _independence_md),
    Check("effects", CompleterRule.OUTCOME,
          lambda diag, kept, args: diag.crossover_effects_test(kept),
          "Crossover effects", _effects_md),
)
CHECK_NAMES = tuple(c.name for c in CHECKS)


def _parse_checks(arg: str) -> frozenset[str]:
    """Argument type: comma-separated check names, or 'all'."""
    names = frozenset(CHECK_NAMES if arg == "all" else (s.strip() for s in arg.split(",")))
    unknown = sorted(names.difference(CHECK_NAMES))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check {unknown[0]!r}; choose from {', '.join(CHECK_NAMES)} or all"
        )
    return names


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from . import diagnostics

    cols = _load_dataset(args)
    notes: list[str] = []
    results: dict[str, dict] = {}
    sections: list[str] = []
    for check in (c for c in CHECKS if c.name in args.checks):
        kept = cols.take(core.completer_mask(cols, check.rule))
        notes.append(f"{check.name}: {len(kept)}/{len(cols)} {NOUNS[check.rule]} completers")
        results[check.name] = doc = check.run(diagnostics, kept, args).to_dict()
        sections += [f"## {check.heading}", "", check.body(doc), ""]
    rows = [{"section": name, "key": key, "value": value}
            for name, doc in results.items() for key, value in _flat_items(doc)]
    md = "\n".join([f"- {note}" for note in notes] + [""] + sections[:-1])
    return _emit(args, {"notes": notes, "results": results}, rows, md)


def _flat_items(obj: dict | list, prefix: str = ""):
    """(dotted key, leaf) pairs of nested dicts and lists, in their order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from _flat_items(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


# ---------------------------------------------------------------- replicate


def _cmd_replicate(args: argparse.Namespace) -> int:
    from . import simulator

    config = _load_config(args)
    if args.covariates is not None:  # the generator draws one covariate
        core.covariate_index((config.covariate_name,), args.covariates)
    methods = METHODS[args.method]

    def trial(cfg: simulator.DgpConfig) -> list[tuple[tuple[str, str], tuple]]:
        """One trial's scored cells, in row order: ((method, stratum),
        (truth, estimate, interval)). Errors surface as in a serial loop:
        the draw's, then the truth's, then the estimate's."""
        cols = simulator.trial_columns(cfg)
        truth = simulator.true_pce(cfg, oracle_n=args.oracle_n)
        spec = None
        if args.bootstrap > 0:  # resamples are keyed by the trial seed's 64 bits
            spec = resampling.BootstrapSpec(args.bootstrap, cfg.seed % resampling.SEED_LIMIT)
        rows = estimators.estimate_pce_table(
            cols, methods=methods, covariates=args.covariates, bootstrap_spec=spec
        )
        cells = []
        for r in rows:
            true_val = truth.row(r.stratum).pce
            # a stratum with no oracle members has no truth to score against
            if r.quantity != "diff" or math.isnan(r.point) or math.isnan(true_val):
                continue
            cells.append(((r.method.value, str(r.stratum)), (true_val, r.point, r.ci)))
        return cells

    # (truth, estimate, interval) of each trial that scores a cell, in trial order
    scored: dict[tuple[str, str], list[tuple[float, float, tuple | None]]] = {
        (m.value, str(lab)): [] for m in methods for lab in JOINT_LABELS
    }
    # each trial has its own seed and comes back in trial order, so the
    # output and the order in which errors surface match a serial loop
    cfgs = [dataclasses.replace(config, seed=config.seed + k) for k in range(args.replicates)]
    with closing(resampling.spread(trial, cfgs)) as trials:
        for cells in trials:
            for key, cell in cells:
                scored[key].append(cell)

    agg = []
    for (method, stratum), cell in scored.items():
        n = len(cell)
        entry = dict(method=method, stratum=stratum, n_estimable=n, mean_truth=None,
                     mean_estimate=None, bias=None, rmse=None, coverage=None, mean_ci_width=None)
        if n:
            true_vals, ests, cis = zip(*cell)
            errors = [e - t for t, e in zip(true_vals, ests)]
            try:
                ssq = sum(d**2 for d in errors)
            except OverflowError:  # a float's ** raises where its * would give inf
                raise ConfigError("squared estimate errors are not finite (overflow); "
                                  "use smaller config values") from None
            entry.update(mean_truth=sum(true_vals) / n, mean_estimate=sum(ests) / n,
                         bias=sum(errors) / n, rmse=math.sqrt(ssq / n))
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


def _checked(read: Callable[[str], object], check: Callable[..., None], name: str,
             bounds: tuple, text: str) -> object:
    """Argument type, all but ``text`` bound by ``functools.partial``: text read
    by ``read`` (int or float), or as it is where it cannot be, is the value of the
    library's ``check(name, value, *bounds)``, whose ValueError is the usage error."""
    try:
        value = read(text)
    except ValueError:  # the check refuses the text by name
        value = text
    try:
        check(name, value, *bounds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _integer(name: str, *bounds: float) -> Callable[[str], object]:
    """Argument type: an integer that ``core.check_integer`` takes."""
    return functools.partial(_checked, int, core.check_integer, name, bounds)


_ci_level = functools.partial(_checked, float, resampling.check_level, "ci_level", ())
_resample_seed = _integer("seed", 0, resampling.SEED_LIMIT)


# argument groups that several commands share


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="md")
    p.add_argument("--out", help="report path (default: stdout)")


def _dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument(
        "--covariates", type=_parse_covariates, help="comma-separated x_ columns, or 'none'"
    )
    p.add_argument("--derive-a", help="adherence from outcomes, e.g. 'y>0'")


def _dgp_args(p: argparse.ArgumentParser) -> None:
    from . import simulator

    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", choices=simulator.scenario_names())
    src.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--n", type=_integer("n_subjects", simulator.MIN_SUBJECTS, simulator.SIZE_LIMIT),
                   help="override the subject count")
    p.add_argument("--seed", type=_integer("seed", 0), help="override the seed")
    p.add_argument("--oracle-n", default=100_000,
                   type=_integer("oracle_n", simulator.MIN_ORACLE_N, simulator.SIZE_LIMIT))


# each command's own arguments, after the shared groups it takes


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _dgp_args(p)
    p.add_argument("--out", help="dataset CSV path (default $PCEKIT_OUT_DIR/trial.csv)")
    p.add_argument("--truth-out", help="truth table path (.json or .csv)")


def _estimate_args(p: argparse.ArgumentParser) -> None:
    _dataset_args(p)
    _report_args(p)
    p.add_argument("--method", choices=METHODS, default="both")
    p.add_argument(
        "--bootstrap", type=_integer("n_replicates", 0), default=0, help="replicates (0 = no CIs)"
    )
    p.add_argument("--seed", type=_resample_seed, default=0)
    p.add_argument("--ci", type=_ci_level, default=0.95)


def _diagnose_args(p: argparse.ArgumentParser) -> None:
    from . import diagnostics

    _dataset_args(p)
    _report_args(p)
    p.add_argument(
        "--checks", type=_parse_checks, default="all",
        help=f"comma list from {', '.join(CHECK_NAMES)}, or all",
    )
    p.add_argument(
        "--direction",
        choices=[d.value for d in diagnostics.MonotonicityDirection],
        default="increasing",
    )
    p.add_argument("--indep-method", default="cond-indep",
                   choices=[m.value for m in estimators._RECONSTRUCTIONS])
    p.add_argument("--bootstrap", type=_integer("n_bootstrap", 1), default=500)
    p.add_argument("--seed", type=_resample_seed, default=0)


def _replicate_args(p: argparse.ArgumentParser) -> None:
    _dgp_args(p)
    _report_args(p)
    p.add_argument("--replicates", type=_integer("replicates", 1), default=20)
    p.add_argument("--method", choices=METHODS, default="both")
    p.add_argument(
        "--covariates", type=_parse_covariates, help="comma-separated x_ columns, or 'none'"
    )
    p.add_argument("--bootstrap", type=_integer("n_replicates", 0), default=0)


class Command(NamedTuple):
    """One subcommand: its help line, its argument builder and its runner."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


COMMANDS = {
    "simulate": Command("generate a synthetic crossover trial plus its truth",
                        _simulate_args, _cmd_simulate),
    "estimate": Command("per-stratum means and treatment contrasts",
                        _estimate_args, _cmd_estimate),
    "diagnose": Command("assumption checks on crossover data", _diagnose_args, _cmd_diagnose),
    "replicate": Command("repeated simulate+estimate against the truth",
                         _replicate_args, _cmd_replicate),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every command's name and help line, and of the
    arguments of ``command`` alone: building the others would load modules
    that command never runs."""
    parser = argparse.ArgumentParser(
        prog="pcekit",
        description="Principal causal effect estimation and crossover-based diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if name == command:
            cmd.add_arguments(p)
    return parser


# glibc's mallopt parameters: M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have glibc keep freed arrays in the process for reuse.

    By default glibc maps an array above 128 KiB on its own and unmaps it
    when freed, and trims a free heap top, raising both thresholds only as
    it sees such arrays freed; the arrays of a few MB that commands
    allocate again and again are then faulted in afresh, page by page.
    These values are glibc's 64-bit ceiling for its dynamic mmap threshold
    and twice that for trimming, fixed from the start. Both are set, as
    setting either turns the dynamic thresholds off. Without glibc's
    mallopt nothing is done. Forked children inherit the setting.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or not glibc's
        return
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first argument that is not an option, as the
    # top-level parser has no option that takes a value
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        with np.errstate(over="raise"):  # an overflow is an error, not an inf in a report
            return COMMANDS[args.command].run(args)
    except (PcekitError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size too large to allocate; numpy names it
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
