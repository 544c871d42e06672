"""Data model and I/O for two-period crossover and parallel-arm trial data.

A crossover subject contributes one row with both period observations; the
treatment indicator is 0 for control and 1 for experimental. A missing value
is ``NA`` on disk (empty cells are accepted on read), ``None`` in a record,
and NaN (outcome) or ``A_MISSING`` (adherence) in ``TrialColumns``. Files
are read and written a column at a time, by ``load_columns`` and
``write_columns``; the record loaders and writers are adapters over them.
Floats are written with ``repr`` so a write/read cycle is bit-exact.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import InsufficientDataError, MissingDataError, PcekitError, SchemaError

MISSING_TOKEN = "NA"
A_MISSING = -1  # adherence sentinel in TrialColumns.a

_CROSSOVER_HEAD = ("subject_id", "sequence")
_CROSSOVER_FIXED_TAIL = ("t_p1", "t_p2", "a_p1", "a_p2", "y_p1", "y_p2")
_PARALLEL_HEAD = ("subject_id", "treatment")
_COVARIATE_PREFIX = "x_"


def check_integer(name: str, value: object, low: int, limit: float = math.inf,
                  error: type[Exception] = ValueError) -> None:
    """Refuse, by name and value, as an ``error``, all but an integer in [low, limit)."""
    try:
        ok = not isinstance(value, bool) and low <= operator.index(value) < limit
    except TypeError:
        ok = False
    if not ok:
        below = f" and below {limit}" if limit < math.inf else ""
        raise error(f"{name} must be an integer of at least {low}{below}, not {value!r}")


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
    """One crossover subject: covariates plus both period observations.

    sequence may be given by value ("EF") or member; the member is stored.
    """

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
        try:
            object.__setattr__(self, "sequence", TreatmentSequence(self.sequence))
        except ValueError:
            raise SchemaError(
                f"subject {self.subject_id!r}: sequence={self.sequence!r} not in {{CF,EF}}"
            ) from None
        for a, col in ((self.a_p1, "a_p1"), (self.a_p2, "a_p2")):
            if a is not None:
                check_integer(f"subject {self.subject_id!r}: {col}", a, 0, 2, error=SchemaError)

    @property
    def t_p1(self) -> int:
        return self.sequence.treatments[0]

    @property
    def t_p2(self) -> int:
        return self.sequence.treatments[1]

    def period_of_arm(self, t: int) -> int:
        """Period (1 or 2) in which treatment arm t was received."""
        check_integer("t", t, 0, 2)
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
        check_integer(f"subject {self.subject_id!r}: t", self.t, 0, 2, error=SchemaError)
        if self.a is not None:
            check_integer(f"subject {self.subject_id!r}: a", self.a, 0, 2, error=SchemaError)
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
        check_integer("stratum coordinate a0", self.a0, 0, 2)
        check_integer("stratum coordinate a1", self.a1, 0, 2)

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


def csv_cell(v: object) -> str:
    """One CSV cell, in data files and reports alike: a missing value or NaN
    is NA, a float its repr (which reads back to the same number), a bool 0
    or 1, and anything else its str."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return MISSING_TOKEN
    if isinstance(v, float):
        return repr(float(v))
    return str(int(v)) if isinstance(v, bool) else str(v)


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


def _read_rows(path: str | Path, either_shape: bool = False) -> list[list[str]]:
    """The file's non-empty CSV rows, read and decoded once; a row the csv
    module cannot parse is a SchemaError naming the file and line. With
    either_shape, a header of neither shape is refused before the rows below
    it are parsed."""
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = (row for row in reader if row)
    try:
        header = next(rows, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        if either_shape and tuple(header[:2]) not in (_CROSSOVER_HEAD, _PARALLEL_HEAD):
            raise SchemaError(f"{path}: unrecognized header; not a crossover or parallel file")
        return [header, *rows]
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None


# A file's data rows are checked a column at a time. Each check notes a
# fault, (data row index, message), at the first row it fails on, and the
# file is refused for the earliest: of the faults on one row, the first
# noted. Checks are noted in the order of a row's cells, so the message is
# that of the first faulty row's first failing check.
_Faults = list[tuple[int, str]]

_BAD = 2  # the code of a token outside a coded column's codes
_FLAGS = {"0": 0, "1": 1, "": A_MISSING, MISSING_TOKEN: A_MISSING}
_SEQUENCES = {s.value: int(s is TreatmentSequence.EXPERIMENTAL_FIRST) for s in TreatmentSequence}
_MISSING_TOKENS = frozenset(("", MISSING_TOKEN))
_AS_NAN = dict.fromkeys(_MISSING_TOKENS, "nan")
_SEQUENCE_CELLS = {code: token for token, code in _SEQUENCES.items()}  # for write_columns


def _note(faults: _Faults, bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Note the first row where a column check fails (``bad``), with its message."""
    if bad.any():
        i = int(bad.argmax())
        faults.append((i, message(i)))


def _raise_first(faults: _Faults) -> None:
    """Refuse the file for its first faulty row's first failing check."""
    if faults:
        i, message = min(faults, key=lambda fault: fault[0])
        raise SchemaError(f"row {i + 2}: {message}")


def _data_columns(rows: list[list[str]], faults: _Faults) -> tuple[list, list[list[str]]]:
    """The data rows as columns, raw and with every cell stripped, up to
    the first row whose width is not the header's, which is a fault."""
    width, body = len(rows[0]), rows[1:]
    widths = list(map(len, body))
    if widths.count(width) != len(body):
        w = next(i for i, k in enumerate(widths) if k != width)
        faults.append((w, f"expected {width} cells, got {widths[w]}"))
        body = body[:w]
    raw = list(zip(*body)) or [()] * width
    return raw, [list(map(str.strip, column)) for column in raw]


def _ids(ids: list[str], faults: _Faults) -> None:
    _note(faults, np.fromiter(map(operator.not_, ids), bool, len(ids)),
          lambda i: "empty subject_id")


def _repeats(keys: list) -> np.ndarray:
    """(n,) mask of the rows whose key an earlier row has."""
    repeated = np.zeros(len(keys), dtype=bool)
    if len(set(keys)) < len(keys):
        seen: set = set()
        for i, key in enumerate(keys):
            repeated[i] = key in seen
            seen.add(key)
    return repeated


def _codes(tokens: list[str], codes: dict[str, int], faults: _Faults,
           message: Callable[[str], str]) -> np.ndarray:
    """(n,) int8 codes of a column of stripped tokens; a token without one is a fault."""
    values = np.fromiter(map(codes.get, tokens, repeat(_BAD)), np.int8, len(tokens))
    _note(faults, values == _BAD, lambda i: message(tokens[i]))
    return values


def _flags(tokens: list[str], what: str, faults: _Faults, required: bool = False) -> np.ndarray:
    """(n,) int8 0/1 flags of a column of stripped tokens, A_MISSING where missing."""
    flags = _codes(tokens, _FLAGS, faults, lambda t: f"{what}={t!r} is not 0, 1, or missing")
    if required:
        _note(faults, flags == A_MISSING, lambda i: f"{what} may not be missing")
    return flags


def _float_or_none(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _numbers(tokens: list[str], what: str, faults: _Faults, required: bool = False) -> np.ndarray:
    """(n,) floats of a column of stripped tokens as Python's float() reads
    them, NaN where missing; every other value must be a finite number."""
    missing = np.fromiter(map(_MISSING_TOKENS.__contains__, tokens), bool, len(tokens))
    if required:
        _note(faults, missing, lambda i: f"{what} may not be missing")
    # a missing token reads as NaN, so None marks a token float() refuses
    read = list(map(_float_or_none, map(_AS_NAN.get, tokens, tokens)))
    if None in read:
        i = read.index(None)
        faults.append((i, f"{what}={tokens[i]!r} is not a number"))
    # an unread token is NaN here too, but on its row the fault above comes first
    values = np.array(read, dtype=float)
    _note(faults, ~np.isfinite(values) & ~missing,
          lambda i: f"{what}={tokens[i]!r} is not a finite number")
    return values


def _covariates(names: tuple[str, ...], columns: list[list[str]], n: int,
                faults: _Faults) -> np.ndarray:
    """(n, p) covariates from their columns of stripped tokens; none may be missing."""
    x = np.empty((n, len(names)))
    for j, (name, tokens) in enumerate(zip(names, columns)):
        x[:, j] = _numbers(tokens, name, faults, required=True)
    return x


def _parse_crossover(rows: list[list[str]]) -> tuple[list[str], TrialColumns]:
    """The subject ids and columns of a crossover file's rows; schema and
    consistency problems name the row."""
    names = _split_header(rows[0], _CROSSOVER_HEAD, _CROSSOVER_FIXED_TAIL)
    faults: _Faults = []
    raw, (ids, sequences, *cells) = _data_columns(rows, faults)
    p = len(names)
    _ids(ids, faults)
    _note(faults, _repeats(ids), lambda i: f"duplicate subject_id {ids[i]!r}")
    ef = _codes(sequences, _SEQUENCES, faults, lambda t: f"sequence={t!r} not in {{CF,EF}}")
    x = _covariates(names, cells[:p], len(ids), faults)
    t_p = [_flags(tokens, col, faults) for tokens, col in zip(cells[p:], ("t_p1", "t_p2"))]
    # (t_p1, t_p2) is (0, 1) for CF, coded 0, and (1, 0) for EF, coded 1
    _note(faults, (t_p[0] != ef) | (t_p[1] != 1 - ef),
          lambda i: f"treatments ({raw[2 + p][i]},{raw[3 + p][i]}) inconsistent with "
                    f"sequence {sequences[i]}")
    a_p = [_flags(tokens, col, faults) for tokens, col in zip(cells[p + 2:], ("a_p1", "a_p2"))]
    y_p = [_numbers(tokens, col, faults) for tokens, col in zip(cells[p + 4:], ("y_p1", "y_p2"))]
    _raise_first(faults)
    return ids, _period_columns(names, x, ef == 1, np.column_stack(a_p), np.column_stack(y_p))


def load_crossover_csv(path: str | Path) -> list[SubjectRecord]:
    """Read crossover records; schema and consistency problems name the row."""
    return crossover_records(*_parse_crossover(_read_rows(path)))


def write_crossover_csv(records: Sequence[SubjectRecord], path: str | Path) -> None:
    if not records:
        raise ValueError("refusing to write an empty record list")
    write_columns([rec.subject_id for rec in records], as_columns(records), path)


def _parse_parallel(rows: list[list[str]]) -> tuple[list[str], np.ndarray, TrialColumns]:
    """The subject ids, (n,) arms and columns of a parallel file's rows;
    schema problems name the row."""
    names = _split_header(rows[0], _PARALLEL_HEAD, ("a", "y"))
    faults: _Faults = []
    _, (ids, arms, *cells) = _data_columns(rows, faults)
    _ids(ids, faults)
    t = _flags(arms, "treatment", faults, required=True)
    _note(faults, _repeats(list(zip(ids, t.tolist()))),
          lambda i: f"duplicate subject_id {ids[i]!r} in arm {t[i]}")
    x = _covariates(names, cells[:-2], len(ids), faults)
    a_own = _flags(cells[-2], "a", faults)
    y_own = _numbers(cells[-1], "y", faults)
    _raise_first(faults)
    return ids, t, _parallel_columns(names, x, t, a_own, y_own)


def load_parallel_csv(path: str | Path) -> list[ParallelObservation]:
    """Read parallel-arm observations (one row per subject and arm)."""
    ids, t, cols = _parse_parallel(_read_rows(path))
    own = (np.arange(len(ids)), t)
    return [
        ParallelObservation(sid, cols.covariate_names, tuple(x), arm,
                            None if a == A_MISSING else a, None if math.isnan(y) else y)
        for sid, x, arm, a, y in zip(ids, cols.x.tolist(), t.tolist(),
                                     cols.a[own].tolist(), cols.y[own].tolist())
    ]


def write_parallel_csv(obs: Sequence[ParallelObservation], path: str | Path) -> None:
    if not obs:
        raise ValueError("refusing to write an empty observation list")
    write_columns([o.subject_id for o in obs], as_columns(obs), path, [o.t for o in obs])


def load_columns(path: str | Path) -> TrialColumns:
    """A crossover or parallel file, as the first two columns of its header
    name, read once into columns; a file without data rows is an
    InsufficientDataError."""
    rows = _read_rows(path, either_shape=True)
    parse = _parse_parallel if tuple(rows[0][:2]) == _PARALLEL_HEAD else _parse_crossover
    cols = parse(rows)[-1]
    if not len(cols):
        raise InsufficientDataError("no data")
    return cols


def write_columns(ids: Sequence[str], cols: TrialColumns, path: str | Path,
                  arms: Sequence[int] | None = None) -> None:
    """Write crossover columns by period, the i-th row named ids[i], or
    parallel columns with the i-th observation in arm arms[i]. A non-finite
    covariate or outcome would not load back, so it is refused, by subject
    and column, before the file is opened."""
    if len(ids) != len(cols) or cols.crossover == (arms is not None):
        raise ValueError("write one id per row, and arms with parallel columns only")
    if cols.crossover:
        head, tail = _CROSSOVER_HEAD, _CROSSOVER_FIXED_TAIL
        t_p1 = cols.ef.astype(np.int8)  # (t_p1, t_p2) is (0, 1) for CF and (1, 0) for EF
        lead = list(map(_SEQUENCE_CELLS.get, t_p1.tolist()))
        flags = np.column_stack([t_p1, 1 - t_p1, by_period(cols.ef, cols.a)])
        y = by_period(cols.ef, cols.y)
    else:
        head, tail = _PARALLEL_HEAD, ("a", "y")
        own = (np.arange(len(ids)), arms)
        lead, flags, y = arms, cols.a[own][:, None], cols.y[own][:, None]
    _check_finite(cols.x, True, ids, cols.covariate_names)
    _check_finite(y, ~np.isnan(y), ids, tail[-y.shape[1]:])
    flags = np.where(flags == A_MISSING, None, flags)  # csv_cell writes None and NaN as NA
    columns = [*cols.x.T.tolist(), *flags.T.tolist(), *y.T.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*head, *cols.covariate_names, *tail])
        writer.writerows(zip(ids, lead, *(map(csv_cell, column) for column in columns)))


def as_parallel(records: Sequence[SubjectRecord], t: int) -> list[ParallelObservation]:
    """Project each subject's arm-t period into a parallel observation."""
    check_integer("t", t, 0, 2)
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


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """A dataset as arrays, with one row per crossover subject or per parallel observation.

    Columns of ``a`` and ``y`` are indexed by arm (0 control, 1 experimental),
    not by period. A parallel observation fills only its own arm; the other
    arm reads as missing. A crossover subject received arm t in period 2
    exactly when ``ef != t``. Build with ``load_columns`` or ``as_columns``,
    which validate; ``take`` trusts its input. Outside ``take``, only the two
    builders ``_period_columns`` and ``_parallel_columns`` construct one.
    The covariates a model uses are chosen once, with ``select``; every
    estimate then reads ``x`` and ``covariate_names`` as they are.
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

    def select(self, covariates: Iterable[str] | None) -> "TrialColumns":
        """The same rows with only the named covariate columns, in the order
        named; itself for None, which means every covariate. The names are
        checked by ``covariate_index``."""
        if covariates is None:
            return self
        idx = covariate_index(self.covariate_names, covariates)
        names = tuple(self.covariate_names[i] for i in idx)
        return replace(self, covariate_names=names, x=self.x[:, idx])


Dataset = Union[Sequence[SubjectRecord], Sequence[ParallelObservation], TrialColumns]


def covariate_index(available: tuple[str, ...], names: Iterable[str]) -> list[int]:
    """Positions in available of the named covariates, the names read once;
    names given as one string or not as a collection, a repeated name or an
    unknown one fail."""
    if isinstance(names, (str, bytes)) or not isinstance(names, Iterable):
        raise PcekitError(f"covariates must be a collection of names, not {names!r}")
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise PcekitError(f"covariate {name!r} is listed more than once in {names!r}")
    try:
        return [available.index(n) for n in names]
    except ValueError as exc:
        raise PcekitError(f"unknown covariate among {names!r}; have {available!r}") from exc


def _check_finite(values: np.ndarray, observed: np.ndarray | bool, ids: Sequence[str],
                  columns: Sequence[str]) -> None:
    bad = observed & ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SchemaError(
            f"subject {ids[i]!r}: {columns[j]}={float(values[i, j])!r} is not a finite number"
        )


def by_period(ef: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(n, 2) columns by arm as columns by period, or back: an
    experimental-first row (``ef``) received arm 1 in period 1."""
    return np.where(ef[:, None], values[:, ::-1], values)


def _period_columns(names: tuple[str, ...], x: Sequence, ef: Sequence, a_p: Sequence,
                    y_p: Sequence) -> TrialColumns:
    """Columns of crossover rows from their covariates, experimental-first
    flags, and adherence (A_MISSING if missing) and outcomes (NaN) by period."""
    n, ef = len(ef), np.asarray(ef, dtype=bool)
    a = by_period(ef, np.asarray(a_p, dtype=np.int8).reshape(n, 2))
    y = by_period(ef, np.asarray(y_p, dtype=float).reshape(n, 2))
    return TrialColumns(names, np.asarray(x, dtype=float).reshape(n, len(names)), a, y, ef)


def _parallel_columns(names: tuple[str, ...], x: np.ndarray, arm: Sequence, a_own: Sequence,
                      y_own: Sequence) -> TrialColumns:
    """Columns of parallel observations from their (n, p) covariates, arms,
    and own-arm adherence (A_MISSING if missing) and outcomes (NaN)."""
    n = len(arm)
    own = (np.arange(n), arm)
    a = np.full((n, 2), A_MISSING, dtype=np.int8)
    a[own] = a_own
    y = np.full((n, 2), np.nan)
    y[own] = y_own
    return TrialColumns(names, x, a, y, None)


def crossover_records(ids: Sequence[str], cols: TrialColumns) -> list[SubjectRecord]:
    """Crossover columns as records by period, the i-th named ids[i]."""
    return [
        SubjectRecord(sid, cols.covariate_names, tuple(x),
                      TreatmentSequence.EXPERIMENTAL_FIRST if first
                      else TreatmentSequence.CONTROL_FIRST,
                      *(None if v == A_MISSING else v for v in a),
                      *(None if math.isnan(v) else v for v in y))
        for sid, x, first, a, y in zip(ids, cols.x.tolist(), cols.ef.tolist(),
                                       by_period(cols.ef, cols.a).tolist(),
                                       by_period(cols.ef, cols.y).tolist())
    ]


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
    if not all(isinstance(rec, kind) for rec in data):
        raise SchemaError("data mixes crossover records and parallel observations")
    names = data[0].covariate_names
    if any(rec.covariate_names != names for rec in data):
        raise SchemaError("records disagree on covariate columns")
    ids = [rec.subject_id for rec in data]
    x = np.asarray([rec.covariates for rec in data], dtype=float).reshape(len(data), len(names))
    _check_finite(x, True, ids, names)
    if crossover:
        a, y = [(r.a_p1, r.a_p2) for r in data], [(r.y_p1, r.y_p2) for r in data]
    else:
        a, y = [(o.a,) for o in data], [(o.y,) for o in data]
    # None is missing: A_MISSING in a, NaN in y
    a = np.where(np.equal(a, None), A_MISSING, a).astype(np.int8)
    y_observed, y = np.not_equal(y, None), np.asarray(y, dtype=float)
    _check_finite(y, y_observed, ids, ("y_p1", "y_p2") if crossover else ("y",))
    if crossover:
        ef = [r.sequence is TreatmentSequence.EXPERIMENTAL_FIRST for r in data]
        return _period_columns(names, x, ef, a, y)
    return _parallel_columns(names, x, [o.t for o in data], a[:, 0], y[:, 0])


def completer_mask(cols: TrialColumns, require: CompleterRule | str) -> np.ndarray:
    """(n,) mask of the rows with the required fields observed in both arms,
    by a ``CompleterRule`` given by value ("outcome") or member."""
    require = CompleterRule(require)
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
    records: Sequence[SubjectRecord], require: CompleterRule | str
) -> list[SubjectRecord]:
    """Keep subjects with the required fields observed in both periods, by a
    ``CompleterRule`` given by value or member."""
    require = CompleterRule(require)
    records = list(records)
    if not records:
        return []
    keep = completer_mask(as_columns(records), require)
    return [rec for rec, k in zip(records, keep.tolist()) if k]


def stratum_codes(a: np.ndarray) -> np.ndarray:
    """(n,) joint-stratum codes of (n, 2) 0/1 adherence by arm, observed in
    both arms: 2*A(0) + A(1), the stratum's index in JOINT_LABELS."""
    return 2 * a[:, 0] + a[:, 1]


def stratum_counts(cols: TrialColumns) -> np.ndarray:
    """Subjects per joint stratum, in JOINT_LABELS order: the tally of ``stratum_codes``.

    Needs crossover rows with adherence observed in both arms; take
    ``completer_mask(cols, CompleterRule.STRATUM_VAR)`` first if not.
    """
    if not cols.crossover:
        raise PcekitError("stratum counts need crossover data")
    _require_completers(cols, CompleterRule.STRATUM_VAR)
    return np.bincount(stratum_codes(cols.a), minlength=len(JOINT_LABELS))


def classify_strata(records: Dataset) -> StratumTable:
    """Tabulate joint strata from crossover adherence in both arms."""
    counts = stratum_counts(as_columns(records))
    return StratumTable(dict(zip(JOINT_LABELS, counts.tolist())), int(counts.sum()))
