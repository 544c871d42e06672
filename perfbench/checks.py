"""Tolerant comparison of pcekit output files.

Numbers must agree to a relative 1e-9; integers (counts), text, "NA" and
null cells, row counts and list lengths must agree exactly. Every column and
key of the reference must be present; an output may gain new ones, so that
adding information to a report does not fail the check. Byte identity is
reported separately by the caller, because a change in the last bits of a
printed float is a reported behaviour change, not a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9
# only decides for values within 1e-12 of zero, where a relative tolerance
# cannot absorb a change in summation order
ABS_TOL = 1e-12
MAX_REPORTED = 10


def compare_text(kind: str, got: str, expected: str) -> list[str]:
    """Differences between two outputs of one kind ("csv" or "json"); [] if they agree."""
    if kind == "csv":
        problems = _compare_csv(got, expected)
    else:
        try:
            got_doc = json.loads(got)
        except json.JSONDecodeError as exc:
            return [f"not JSON: {exc}"]
        problems = []
        _compare_json(got_doc, json.loads(expected), "$", problems)
    return problems[:MAX_REPORTED]


def _scalar(token: str) -> int | float | str:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def same_value(a: object, b: object) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(a) is type(b) and a == b


def _compare_csv(got: str, expected: str) -> list[str]:
    g = list(csv.reader(io.StringIO(got)))
    e = list(csv.reader(io.StringIO(expected)))
    if not g or len(g) != len(e):
        return [f"{len(g)} rows, expected {len(e)}"]
    missing = [name for name in e[0] if name not in g[0]]
    if missing:
        return [f"columns missing: {missing}"]
    columns = [(name, j, g[0].index(name)) for j, name in enumerate(e[0])]
    problems = []
    for i, (grow, erow) in enumerate(zip(g[1:], e[1:]), start=1):
        if len(grow) != len(g[0]) or len(erow) != len(e[0]):
            problems.append(f"row {i}: wrong number of cells")
            continue
        for name, je, jg in columns:
            if not same_value(_scalar(grow[jg]), _scalar(erow[je])):
                problems.append(f"row {i} {name}: {grow[jg]!r}, expected {erow[je]!r}")
    return problems


def _compare_json(got: object, expected: object, where: str, problems: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(got, dict) or not set(expected) <= set(got):
            problems.append(f"{where}: keys missing")
            return
        for key in expected:
            _compare_json(got[key], expected[key], f"{where}.{key}", problems)
    elif isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            problems.append(f"{where}: list shape differs")
            return
        for i, (g, e) in enumerate(zip(got, expected)):
            _compare_json(g, e, f"{where}[{i}]", problems)
    elif not same_value(got, expected):
        problems.append(f"{where}: {got!r}, expected {expected!r}")
