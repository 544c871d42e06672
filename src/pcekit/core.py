"""Data model and I/O for two-period crossover and parallel-arm trial data.

A crossover subject contributes one row with both period observations; the
treatment indicator is 0 for control and 1 for experimental. Missing values
are represented as ``None`` in memory and as ``NA`` on disk (empty cells are
accepted on read). Floats are written with ``repr`` so a write/read cycle is
bit-exact.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import InsufficientDataError, MissingDataError, PcekitError, SchemaError

MISSING_TOKEN = "NA"

_CROSSOVER_HEAD = ("subject_id", "sequence")
_CROSSOVER_FIXED_TAIL = ("t_p1", "t_p2", "a_p1", "a_p2", "y_p1", "y_p2")
_PARALLEL_HEAD = ("subject_id", "treatment")
_COVARIATE_PREFIX = "x_"


class TreatmentSequence(Enum):
    """Randomized period order: control-first (CF) or experimental-first (EF)."""

    CONTROL_FIRST = "CF"
    EXPERIMENTAL_FIRST = "EF"

    @property
    def treatments(self) -> tuple[int, int]:
        """Treatment indicators for (period 1, period 2)."""
        if self is TreatmentSequence.CONTROL_FIRST:
            return (0, 1)
        return (1, 0)


class CompleterRule(Enum):
    """Which fields must be non-missing in both periods to keep a subject."""

    OUTCOME = "outcome"
    STRATUM_VAR = "stratum_var"
    BOTH = "both"


@dataclass(frozen=True)
class SubjectRecord:
    """One crossover subject: covariates plus both period observations."""

    subject_id: str
    covariate_names: tuple[str, ...]
    covariates: tuple[float, ...]
    sequence: TreatmentSequence
    a_p1: int | None
    a_p2: int | None
    y_p1: float | None
    y_p2: float | None

    def __post_init__(self) -> None:
        if len(self.covariate_names) != len(self.covariates):
            raise SchemaError(
                f"subject {self.subject_id!r}: {len(self.covariate_names)} covariate "
                f"names but {len(self.covariates)} values"
            )
        for a, col in ((self.a_p1, "a_p1"), (self.a_p2, "a_p2")):
            if a is not None and a not in (0, 1):
                raise SchemaError(f"subject {self.subject_id!r}: {col}={a!r} not in {{0,1}}")

    @property
    def t_p1(self) -> int:
        return self.sequence.treatments[0]

    @property
    def t_p2(self) -> int:
        return self.sequence.treatments[1]

    def period_of_arm(self, t: int) -> int:
        """Period (1 or 2) in which treatment arm t was received."""
        if t not in (0, 1):
            raise ValueError(f"treatment arm must be 0 or 1, got {t!r}")
        return 1 if self.t_p1 == t else 2

    def a_for_arm(self, t: int) -> int | None:
        return self.a_p1 if self.period_of_arm(t) == 1 else self.a_p2

    def y_for_arm(self, t: int) -> float | None:
        return self.y_p1 if self.period_of_arm(t) == 1 else self.y_p2


@dataclass(frozen=True)
class ParallelObservation:
    """One subject-arm observation in parallel form."""

    subject_id: str
    covariate_names: tuple[str, ...]
    covariates: tuple[float, ...]
    t: int
    a: int | None
    y: float | None

    def __post_init__(self) -> None:
        if self.t not in (0, 1):
            raise SchemaError(f"subject {self.subject_id!r}: t={self.t!r} not in {{0,1}}")
        if self.a is not None and self.a not in (0, 1):
            raise SchemaError(f"subject {self.subject_id!r}: a={self.a!r} not in {{0,1}}")
        if len(self.covariate_names) != len(self.covariates):
            raise SchemaError(
                f"subject {self.subject_id!r}: {len(self.covariate_names)} covariate "
                f"names but {len(self.covariates)} values"
            )


@dataclass(frozen=True)
class StratumLabel:
    """Joint principal stratum S_kl by potential adherence (a0, a1) = (A(0), A(1))."""

    a0: int
    a1: int

    def __post_init__(self) -> None:
        for v in (self.a0, self.a1):
            if v not in (0, 1):
                raise ValueError(f"stratum coordinates must be 0 or 1, got {v!r}")

    def __str__(self) -> str:
        return f"S{self.a0}{self.a1}"


JOINT_LABELS: tuple[StratumLabel, ...] = (
    StratumLabel(0, 0),
    StratumLabel(0, 1),
    StratumLabel(1, 0),
    StratumLabel(1, 1),
)


@dataclass(frozen=True)
class StratumTable:
    """Counts of subjects per joint principal stratum."""

    counts: dict[StratumLabel, int]
    n_total: int

    def __post_init__(self) -> None:
        if set(self.counts) != set(JOINT_LABELS):
            raise ValueError("counts must cover exactly the four joint strata")
        if sum(self.counts.values()) != self.n_total:
            raise ValueError("stratum counts do not sum to n_total")
        if self.n_total <= 0:
            raise InsufficientDataError("cannot tabulate strata with no classified subjects")

    @property
    def proportions(self) -> dict[StratumLabel, float]:
        return {lab: c / self.n_total for lab, c in self.counts.items()}


def _parse_int01(token: str, what: str, row: int) -> int | None:
    token = token.strip()
    if token == "" or token == MISSING_TOKEN:
        return None
    if token in ("0", "1"):
        return int(token)
    raise SchemaError(f"row {row}: {what}={token!r} is not 0, 1, or missing")


def _parse_float(token: str, what: str, row: int, allow_missing: bool) -> float | None:
    token = token.strip()
    if token == "" or token == MISSING_TOKEN:
        if allow_missing:
            return None
        raise SchemaError(f"row {row}: {what} may not be missing")
    try:
        value = float(token)
    except ValueError as exc:
        raise SchemaError(f"row {row}: {what}={token!r} is not a number") from exc
    if not math.isfinite(value):
        raise SchemaError(f"row {row}: {what}={token!r} is not a finite number")
    return value


def csv_cell(v: object) -> str:
    """One CSV cell, in data files and reports alike: a missing value or NaN
    is NA, a float its repr (which reads back to the same number), a bool 0
    or 1, and anything else its str."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return MISSING_TOKEN
    if isinstance(v, float):
        return repr(float(v))
    return str(int(v)) if isinstance(v, bool) else str(v)


def _data_row(header: Sequence[str], values: Sequence) -> list[str]:
    """The cells of one written row, whose first value is the subject id. A
    non-finite number would not load back, so it is refused here, by name."""
    for column, v in zip(header, values):
        if isinstance(v, float) and not math.isfinite(v):
            raise SchemaError(f"subject {values[0]!r}: {column}={v!r} is not a finite number")
    return [csv_cell(v) for v in values]


def _split_header(
    header: Sequence[str], fixed_head: tuple[str, ...], fixed_tail: tuple[str, ...]
) -> tuple[str, ...]:
    """Validate a header of the form head + x_* columns + tail; return x_ names."""
    n_head, n_tail = len(fixed_head), len(fixed_tail)
    if len(header) < n_head + n_tail:
        raise SchemaError(f"header has {len(header)} columns, needs at least {n_head + n_tail}")
    if tuple(header[:n_head]) != fixed_head:
        raise SchemaError(f"header must start with {','.join(fixed_head)}")
    if n_tail and tuple(header[-n_tail:]) != fixed_tail:
        raise SchemaError(f"header must end with {','.join(fixed_tail)}")
    names = tuple(header[n_head : len(header) - n_tail])
    for name in names:
        if not name.startswith(_COVARIATE_PREFIX):
            raise SchemaError(f"covariate column {name!r} must be prefixed {_COVARIATE_PREFIX!r}")
    if len(set(names)) != len(names):
        raise SchemaError("duplicate covariate columns in header")
    return names


def decode_utf8(data: bytes, path: str | Path) -> str:
    """Text of a file's bytes, less one leading byte-order mark; a byte
    sequence that is not UTF-8 is a SchemaError naming the file and the
    offset of the first bad byte."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text (byte {data[exc.start]:#04x} at offset {exc.start})"
        ) from None


def _csv_rows(path: str | Path) -> Iterator[list[str]]:
    """The non-empty CSV rows of the file, each parsed when it is taken; a row
    the csv module cannot parse is a SchemaError naming the file and line."""
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from (row for row in reader if row)
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(path: str | Path) -> list[list[str]]:
    rows = list(_csv_rows(path))
    if not rows:
        raise SchemaError(f"{path}: empty file")
    return rows


def data_shape(path: str | Path) -> str:
    """'crossover' or 'parallel', as the first two columns of the file's
    header name; the loader of that shape checks the rest."""
    head = tuple(next(_csv_rows(path), [])[:2])
    if head == _CROSSOVER_HEAD:
        return "crossover"
    if head == _PARALLEL_HEAD:
        return "parallel"
    raise SchemaError(f"{path}: unrecognized header; not a crossover or parallel file")


def load_crossover_csv(path: str | Path) -> list[SubjectRecord]:
    """Read crossover records; schema and consistency problems name the row."""
    rows = _read_rows(path)
    names = _split_header(rows[0], _CROSSOVER_HEAD, _CROSSOVER_FIXED_TAIL)
    width = 2 + len(names) + len(_CROSSOVER_FIXED_TAIL)
    records: list[SubjectRecord] = []
    seen_ids: set[str] = set()
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise SchemaError(f"row {i}: expected {width} cells, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise SchemaError(f"row {i}: empty subject_id")
        if sid in seen_ids:
            raise SchemaError(f"row {i}: duplicate subject_id {sid!r}")
        seen_ids.add(sid)
        seq_token = row[1].strip()
        try:
            seq = TreatmentSequence(seq_token)
        except ValueError as exc:
            raise SchemaError(f"row {i}: sequence={seq_token!r} not in {{CF,EF}}") from exc
        covs = tuple(
            _parse_float(tok, f"{names[j]}", i, allow_missing=False)  # type: ignore[misc]
            for j, tok in enumerate(row[2 : 2 + len(names)])
        )
        tail = row[2 + len(names) :]
        t1 = _parse_int01(tail[0], "t_p1", i)
        t2 = _parse_int01(tail[1], "t_p2", i)
        if (t1, t2) != seq.treatments:
            raise SchemaError(
                f"row {i}: treatments ({tail[0]},{tail[1]}) inconsistent with sequence {seq.value}"
            )
        records.append(
            SubjectRecord(
                subject_id=sid,
                covariate_names=names,
                covariates=covs,  # type: ignore[arg-type]
                sequence=seq,
                a_p1=_parse_int01(tail[2], "a_p1", i),
                a_p2=_parse_int01(tail[3], "a_p2", i),
                y_p1=_parse_float(tail[4], "y_p1", i, allow_missing=True),
                y_p2=_parse_float(tail[5], "y_p2", i, allow_missing=True),
            )
        )
    return records


def write_crossover_csv(records: Sequence[SubjectRecord], path: str | Path) -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    names = records[0].covariate_names
    for rec in records:
        if rec.covariate_names != names:
            raise SchemaError("records disagree on covariate columns")
    header = [*_CROSSOVER_HEAD, *names, *_CROSSOVER_FIXED_TAIL]
    rows = [
        _data_row(
            header,
            [rec.subject_id, rec.sequence.value, *rec.covariates,
             rec.t_p1, rec.t_p2, rec.a_p1, rec.a_p2, rec.y_p1, rec.y_p2],
        )
        for rec in records
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_parallel_csv(path: str | Path) -> list[ParallelObservation]:
    """Read parallel-arm observations (one row per subject and arm)."""
    rows = _read_rows(path)
    names = _split_header(rows[0], _PARALLEL_HEAD, ("a", "y"))
    width = 2 + len(names) + 2
    obs: list[ParallelObservation] = []
    seen: set[tuple[str, int]] = set()
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise SchemaError(f"row {i}: expected {width} cells, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise SchemaError(f"row {i}: empty subject_id")
        t = _parse_int01(row[1], "treatment", i)
        if t is None:
            raise SchemaError(f"row {i}: treatment may not be missing")
        if (sid, t) in seen:
            raise SchemaError(f"row {i}: duplicate subject_id {sid!r} in arm {t}")
        seen.add((sid, t))
        covs = tuple(
            _parse_float(tok, f"{names[j]}", i, allow_missing=False)  # type: ignore[misc]
            for j, tok in enumerate(row[2 : 2 + len(names)])
        )
        obs.append(
            ParallelObservation(
                subject_id=sid,
                covariate_names=names,
                covariates=covs,  # type: ignore[arg-type]
                t=t,
                a=_parse_int01(row[-2], "a", i),
                y=_parse_float(row[-1], "y", i, allow_missing=True),
            )
        )
    return obs


def write_parallel_csv(obs: Sequence[ParallelObservation], path: str | Path) -> None:
    if not obs:
        raise ValueError("refusing to write an empty observation list")
    names = obs[0].covariate_names
    for o in obs:
        if o.covariate_names != names:
            raise SchemaError("observations disagree on covariate columns")
    header = [*_PARALLEL_HEAD, *names, "a", "y"]
    rows = [_data_row(header, [o.subject_id, o.t, *o.covariates, o.a, o.y]) for o in obs]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def as_parallel(records: Sequence[SubjectRecord], t: int) -> list[ParallelObservation]:
    """Project each subject's arm-t period into a parallel observation."""
    if t not in (0, 1):
        raise ValueError(f"treatment arm must be 0 or 1, got {t!r}")
    return [
        ParallelObservation(
            subject_id=rec.subject_id,
            covariate_names=rec.covariate_names,
            covariates=rec.covariates,
            t=t,
            a=rec.a_for_arm(t),
            y=rec.y_for_arm(t),
        )
        for rec in records
    ]


A_MISSING = -1  # adherence sentinel in TrialColumns.a


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """A dataset as arrays, with one row per crossover subject or per parallel observation.

    Columns of ``a`` and ``y`` are indexed by arm (0 control, 1 experimental),
    not by period. A parallel observation fills only its own arm; the other
    arm reads as missing. A crossover subject received arm t in period 2
    exactly when ``ef != t``. Build with ``as_columns``, which validates;
    ``take`` trusts its input.
    """

    covariate_names: tuple[str, ...]
    x: np.ndarray  # (n, p) covariates
    a: np.ndarray  # (n, 2) int8 adherence, A_MISSING where unobserved
    y: np.ndarray  # (n, 2) outcomes, NaN where unobserved
    ef: np.ndarray | None  # (n,) bool, experimental first; None for parallel observations

    @property
    def crossover(self) -> bool:
        """Rows are crossover subjects, so both arms can be observed."""
        return self.ef is not None

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, idx: np.ndarray) -> "TrialColumns":
        """The rows at idx, in that order (a bootstrap resample), or where a mask is true."""
        ef = None if self.ef is None else self.ef[idx]
        return TrialColumns(self.covariate_names, self.x[idx], self.a[idx], self.y[idx], ef)


Dataset = Union[Sequence[SubjectRecord], Sequence[ParallelObservation], TrialColumns]


def _check_finite(values: np.ndarray, observed: np.ndarray, ids: Sequence[str],
                  columns: Sequence[str]) -> None:
    bad = observed & ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SchemaError(
            f"subject {ids[i]!r}: {columns[j]}={float(values[i, j])!r} is not a finite number"
        )


def _nan_if_none(v: float | None) -> float:
    return np.nan if v is None else float(v)


def _sentinel_if_none(v: int | None) -> int:
    return A_MISSING if v is None else v


def as_columns(data: Dataset) -> TrialColumns:
    """Columns of crossover records or parallel observations (returned as is if columns).

    Rejects empty input, mixed record types, disagreeing covariate columns and
    non-finite covariates or outcomes, naming the subject and the column.
    """
    if isinstance(data, TrialColumns):
        return data
    data = list(data)
    if not data:
        raise InsufficientDataError("no data")
    crossover = isinstance(data[0], SubjectRecord)
    kind = SubjectRecord if crossover else ParallelObservation
    names = data[0].covariate_names
    for rec in data:
        if not isinstance(rec, kind):
            raise SchemaError("data mixes crossover records and parallel observations")
        if rec.covariate_names != names:
            raise SchemaError("records disagree on covariate columns")
    n = len(data)
    ids = [rec.subject_id for rec in data]
    x = np.asarray([rec.covariates for rec in data], dtype=float).reshape(n, len(names))
    _check_finite(x, np.ones(x.shape, dtype=bool), ids, names)
    ef = None
    if crossover:
        y_p = np.asarray([[_nan_if_none(r.y_p1), _nan_if_none(r.y_p2)] for r in data])
        observed = np.asarray([[r.y_p1 is not None, r.y_p2 is not None] for r in data])
        _check_finite(y_p, observed, ids, ("y_p1", "y_p2"))
        a_p = np.asarray([[_sentinel_if_none(r.a_p1), _sentinel_if_none(r.a_p2)] for r in data],
                         dtype=np.int8)
        # an experimental-first subject received arm 1 in period 1
        ef = np.asarray([r.sequence is TreatmentSequence.EXPERIMENTAL_FIRST for r in data])
        a = np.where(ef[:, None], a_p[:, ::-1], a_p)
        y = np.where(ef[:, None], y_p[:, ::-1], y_p)
    else:
        rows, arm = np.arange(n), np.asarray([o.t for o in data])
        y_own = np.asarray([[_nan_if_none(o.y)] for o in data])
        _check_finite(y_own, np.asarray([[o.y is not None] for o in data]), ids, ("y",))
        a = np.full((n, 2), A_MISSING, dtype=np.int8)
        a[rows, arm] = [_sentinel_if_none(o.a) for o in data]
        y = np.full((n, 2), np.nan)
        y[rows, arm] = y_own[:, 0]
    return TrialColumns(names, x, a, y, ef)


def completer_mask(cols: TrialColumns, require: CompleterRule) -> np.ndarray:
    """(n,) mask of the rows with the required fields observed in both arms."""
    has_y = ~np.isnan(cols.y).any(axis=1)
    has_a = (cols.a != A_MISSING).all(axis=1)
    if require is CompleterRule.OUTCOME:
        return has_y
    if require is CompleterRule.STRATUM_VAR:
        return has_a
    return has_y & has_a


def _require_completers(cols: TrialColumns, require: CompleterRule) -> None:
    """Raise MissingDataError naming the first row that is not a completer."""
    missing = np.flatnonzero(~completer_mask(cols, require))
    if missing.size:
        rule = f"CompleterRule.{require.name}"
        raise MissingDataError(
            f"row {missing[0]} lacks a field {rule} requires in both arms; keep the "
            f"rows of completer_mask(cols, {rule}) first"
        )


def completer_filter(
    records: Sequence[SubjectRecord], require: CompleterRule
) -> list[SubjectRecord]:
    """Keep subjects with the required fields observed in both periods."""
    records = list(records)
    if not records:
        return []
    keep = completer_mask(as_columns(records), require)
    return [rec for rec, k in zip(records, keep.tolist()) if k]


def stratum_counts(cols: TrialColumns) -> np.ndarray:
    """Subjects per joint stratum, in JOINT_LABELS order (cell index 2*A(0) + A(1)).

    Needs crossover rows with adherence observed in both arms; take
    ``completer_mask(cols, CompleterRule.STRATUM_VAR)`` first if not.
    """
    if not cols.crossover:
        raise PcekitError("stratum counts need crossover data")
    _require_completers(cols, CompleterRule.STRATUM_VAR)
    return np.bincount(2 * cols.a[:, 0] + cols.a[:, 1], minlength=len(JOINT_LABELS))


def classify_strata(records: Sequence[SubjectRecord]) -> StratumTable:
    """Tabulate joint strata from crossover adherence in both arms."""
    counts = stratum_counts(as_columns(records))
    return StratumTable(dict(zip(JOINT_LABELS, counts.tolist())), int(counts.sum()))
