"""The column-wise loader against the row-wise parser it replaced.

``core.load_columns`` checks a file's data rows a column at a time. The
row-wise parser below, kept as it was, checked them one row at a time, cell
by cell, and is the reference: for any file both give the same columns, to
the byte, or refuse it with the same message. The differential examples
are the cell and byte mutations of ``test_cli_fuzz.py``, derandomized.
"""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit.core import (
    _CROSSOVER_FIXED_TAIL,
    _CROSSOVER_HEAD,
    _PARALLEL_HEAD,
    A_MISSING,
    MISSING_TOKEN,
    ParallelObservation,
    TreatmentSequence,
    TrialColumns,
    _period_columns,
    _read_rows,
    _split_header,
    as_columns,
    as_parallel,
    crossover_records,
    load_columns,
    load_crossover_csv,
    load_parallel_csv,
    write_crossover_csv,
    write_parallel_csv,
)
from pcekit.errors import InsufficientDataError, PcekitError, SchemaError
from pcekit.simulator import generate_trial, scenario

from test_cli_fuzz import BYTES, FUZZ, TOKENS, mutate_bytes, mutate_cells

# ---- the row-wise reference ------------------------------------------------


def _nan_if_none(v: float | None) -> float:
    return math.nan if v is None else float(v)


def _sentinel_if_none(v: int | None) -> int:
    return A_MISSING if v is None else v


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


def _row_id(row: Sequence[str], width: int, i: int) -> str:
    """The subject id of data row i, once the row is checked to be as wide as the header."""
    if len(row) != width:
        raise SchemaError(f"row {i}: expected {width} cells, got {len(row)}")
    sid = row[0].strip()
    if not sid:
        raise SchemaError(f"row {i}: empty subject_id")
    return sid


def _row_covariates(row: Sequence[str], names: tuple[str, ...], i: int) -> tuple[float, ...]:
    """The covariates of data row i, in the cells after its first two."""
    return tuple(_parse_float(tok, name, i, allow_missing=False)  # type: ignore[misc]
                 for name, tok in zip(names, row[2:]))


def _parse_crossover(rows: list[list[str]]) -> tuple[list[str], TrialColumns]:
    """The subject ids and columns of a crossover file's rows; schema and
    consistency problems name the row."""
    names = _split_header(rows[0], _CROSSOVER_HEAD, _CROSSOVER_FIXED_TAIL)
    ids: dict[str, None] = {}  # in row order
    x, ef, a_p, y_p = [], [], [], []
    for i, row in enumerate(rows[1:], start=2):
        sid = _row_id(row, len(rows[0]), i)
        if sid in ids:
            raise SchemaError(f"row {i}: duplicate subject_id {sid!r}")
        ids[sid] = None
        seq_token = row[1].strip()
        try:
            seq = TreatmentSequence(seq_token)
        except ValueError as exc:
            raise SchemaError(f"row {i}: sequence={seq_token!r} not in {{CF,EF}}") from exc
        x.append(_row_covariates(row, names, i))
        tail = row[2 + len(names) :]
        if (_parse_int01(tail[0], "t_p1", i), _parse_int01(tail[1], "t_p2", i)) != seq.treatments:
            raise SchemaError(
                f"row {i}: treatments ({tail[0]},{tail[1]}) inconsistent with sequence {seq.value}"
            )
        ef.append(seq is TreatmentSequence.EXPERIMENTAL_FIRST)
        a_p.append([_sentinel_if_none(_parse_int01(tok, col, i))
                    for tok, col in zip(tail[2:4], ("a_p1", "a_p2"))])
        y_p.append([_nan_if_none(_parse_float(tok, col, i, allow_missing=True))
                    for tok, col in zip(tail[4:], ("y_p1", "y_p2"))])
    return list(ids), _period_columns(names, x, ef, a_p, y_p)


def _parse_parallel(rows: list[list[str]]) -> list[ParallelObservation]:
    """The observations of a parallel file's rows; schema problems name the row."""
    names = _split_header(rows[0], _PARALLEL_HEAD, ("a", "y"))
    obs: list[ParallelObservation] = []
    seen: set[tuple[str, int]] = set()
    for i, row in enumerate(rows[1:], start=2):
        sid = _row_id(row, len(rows[0]), i)
        t = _parse_int01(row[1], "treatment", i)
        if t is None:
            raise SchemaError(f"row {i}: treatment may not be missing")
        if (sid, t) in seen:
            raise SchemaError(f"row {i}: duplicate subject_id {sid!r} in arm {t}")
        seen.add((sid, t))
        obs.append(ParallelObservation(sid, names, _row_covariates(row, names, i), t,
                                       _parse_int01(row[-2], "a", i),
                                       _parse_float(row[-1], "y", i, allow_missing=True)))
    return obs


def reference_load_columns(path) -> TrialColumns:
    rows = _read_rows(path, either_shape=True)
    if tuple(rows[0][:2]) == _PARALLEL_HEAD:
        return as_columns(_parse_parallel(rows))
    cols = _parse_crossover(rows)[1]
    if not len(cols):
        raise InsufficientDataError("no data")
    return cols


# each shape's record loader and its row-wise reference
RECORD_LOADERS = {
    "crossover": (load_crossover_csv,
                  lambda path: crossover_records(*_parse_crossover(_read_rows(path)))),
    "parallel": (load_parallel_csv, lambda path: _parse_parallel(_read_rows(path))),
}


# ---- comparisons ------------------------------------------------------------


def column_bytes(cols: TrialColumns) -> tuple:
    """Everything of the columns, bitwise (NaN equals NaN, 0.0 differs from
    -0.0), and their memory layout, which later sums may depend on."""
    arrays = (cols.x, cols.a, cols.y, cols.ef)
    return cols.covariate_names, [
        None if v is None else (v.dtype.str, v.shape, v.strides, v.tobytes()) for v in arrays
    ]


def outcome(load, path, key) -> tuple:
    """What a loader makes of a file: the key of its result, or its error's type and text."""
    try:
        return ("ok", key(load(path)))
    except PcekitError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_as_reference(path, shape: str) -> None:
    assert outcome(load_columns, path, column_bytes) == outcome(
        reference_load_columns, path, column_bytes
    )
    # repr tells -0.0 from 0.0, which == does not
    load, reference = RECORD_LOADERS[shape]
    assert outcome(load, path, repr) == outcome(reference, path, repr)


@pytest.fixture(scope="module")
def base_files(tmp_path_factory) -> dict[str, bytes]:
    """A crossover file as test_cli_fuzz.py mutates it, and the same trial in parallel form."""
    records = generate_trial(scenario("paper_like", n_subjects=16, seed=2))
    root = tmp_path_factory.mktemp("reference")
    write_crossover_csv(records, root / "crossover.csv")
    write_parallel_csv(as_parallel(records, 0) + as_parallel(records, 1), root / "parallel.csv")
    return {shape: (root / f"{shape}.csv").read_bytes() for shape in ("crossover", "parallel")}


# tokens float() reads that a stricter parser might not, and near misses
LOADER_TOKENS = TOKENS + [" +1.5e1 ", "1_000", "_1", "1__0", "\x1c1", "١", " NA ", "Na",
                          "cf", " EF ", "-0.0", "1e-400", "0x1", "\t0\t", "01", "1.0"]
SHAPE = st.sampled_from(["crossover", "parallel"])
DIFFERENTIAL = settings(FUZZ, max_examples=300)


@DIFFERENTIAL
@given(
    shape=SHAPE,
    edits=st.lists(
        st.tuples(st.integers(0, 33), st.integers(0, 8), st.sampled_from(LOADER_TOKENS)),
        max_size=4,
    ),
)
def test_mutated_cells_load_as_the_row_wise_parser_loads_them(base_files, tmp_path, shape, edits):
    path = tmp_path / "cells.csv"
    path.write_bytes(mutate_cells(base_files[shape], edits))
    assert_same_as_reference(path, shape)


@DIFFERENTIAL
@given(
    shape=SHAPE,
    edits=st.lists(st.tuples(st.integers(0, 4000), st.sampled_from(BYTES)), max_size=3),
    cut=st.none() | st.integers(0, 1500),
)
def test_mutated_bytes_load_as_the_row_wise_parser_loads_them(
    base_files, tmp_path, shape, edits, cut
):
    path = tmp_path / "bytes.csv"
    path.write_bytes(mutate_bytes(base_files[shape], edits, cut))
    assert_same_as_reference(path, shape)


@pytest.mark.parametrize(
    "header,rows,message",
    [
        ("subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2",
         ["s1,CF,1.0,0,1,1,0,1.0,oops", "s2,XX,oops,0,1,1,0,1.0,2.0"],
         "row 2: y_p2='oops' is not a number"),
        ("subject_id,treatment,x_base,a,y",
         ["p1,0,1.0,1,inf", "p2,NA,oops,1,2.0", "p2,1,1.0,1"],
         "row 2: y='inf' is not a finite number"),
    ],
    ids=["crossover", "parallel"],
)
def test_a_later_column_fault_in_an_earlier_row_comes_first(header, rows, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    for load in (load_columns, reference_load_columns):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load(path)


def test_a_large_file_loads_to_the_bytes_of_its_records(tmp_path):
    path = tmp_path / "large.csv"
    write_crossover_csv(generate_trial(scenario("paper_like", n_subjects=5000, seed=3)), path)
    got = column_bytes(load_columns(path))
    assert got == column_bytes(as_columns(load_crossover_csv(path)))
    assert got == column_bytes(reference_load_columns(path))


def test_tokens_that_float_reads_still_load(tmp_path):
    path = tmp_path / "tokens.csv"
    header = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"
    path.write_text(f"{header}\ns1,CF, +1.5e1 ,0,1,1,0,1_000,NA\n", encoding="utf-8")
    cols = load_columns(path)
    assert cols.x.tolist() == [[15.0]]
    assert cols.y[0, 0] == 1000.0 and np.isnan(cols.y[0, 1])
    assert column_bytes(cols) == column_bytes(reference_load_columns(path))
