import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from pcekit.core import (
    A_MISSING,
    JOINT_LABELS,
    CompleterRule,
    ParallelObservation,
    StratumLabel,
    StratumTable,
    SubjectRecord,
    TreatmentSequence,
    as_columns,
    as_parallel,
    by_period,
    classify_strata,
    completer_filter,
    completer_mask,
    crossover_records,
    load_columns,
    load_crossover_csv,
    load_parallel_csv,
    stratum_codes,
    write_columns,
    write_crossover_csv,
    write_parallel_csv,
)
from pcekit.errors import InsufficientDataError, MissingDataError, SchemaError
from pcekit.simulator import scenario, scenario_names, subject_ids, trial_columns

from conftest import make_record

DATA = Path(__file__).resolve().parent / "data"


def test_sequence_treatment_mapping():
    assert TreatmentSequence("CF").treatments == (0, 1)
    assert TreatmentSequence("EF").treatments == (1, 0)


def test_record_arm_accessors():
    cf = make_record("a", "CF", a=(1, 0), y=(10.0, 20.0))
    assert (cf.t_p1, cf.t_p2) == (0, 1)
    assert cf.period_of_arm(0) == 1 and cf.period_of_arm(1) == 2
    assert cf.a_for_arm(0) == 1 and cf.a_for_arm(1) == 0
    assert cf.y_for_arm(0) == 10.0 and cf.y_for_arm(1) == 20.0
    ef = make_record("b", "EF", a=(1, 0), y=(10.0, 20.0))
    assert ef.a_for_arm(1) == 1 and ef.a_for_arm(0) == 0
    assert ef.y_for_arm(1) == 10.0 and ef.y_for_arm(0) == 20.0
    with pytest.raises(ValueError):
        cf.period_of_arm(2)


def test_record_validation():
    with pytest.raises(SchemaError, match="covariate"):
        make_record("a", x=(1.0, 2.0), covariate_names=("x_base",))
    with pytest.raises(SchemaError, match="a_p1"):
        make_record("a", a=(2, 0))


def test_stratum_label_rendering_and_membership():
    assert str(StratumLabel(1, 0)) == "S10"
    with pytest.raises(ValueError):
        StratumLabel(None, 1)
    with pytest.raises(ValueError):
        StratumLabel(3, 0)


def test_stratum_table_proportions():
    counts = {
        StratumLabel(0, 0): 4,
        StratumLabel(0, 1): 3,
        StratumLabel(1, 0): 2,
        StratumLabel(1, 1): 1,
    }
    table = StratumTable(counts=counts, n_total=10)
    assert table.proportions[StratumLabel(0, 0)] == 0.4
    with pytest.raises(ValueError):
        StratumTable(counts=counts, n_total=11)


def parallel_obs(**changes):
    fields = dict(subject_id="p1", covariate_names=("x_base",), covariates=(1.0,), t=0, a=1, y=2.0)
    return ParallelObservation(**{**fields, **changes})


@pytest.mark.parametrize("build, error, message", [
    (lambda: parallel_obs(t=2), SchemaError, r"subject 'p1': t=2 not in \{0,1\}"),
    (lambda: parallel_obs(a=2), SchemaError, r"subject 'p1': a=2 not in \{0,1\}"),
    (lambda: parallel_obs(covariates=()), SchemaError,
     "subject 'p1': 1 covariate names but 0 values"),
    (lambda: StratumTable({StratumLabel(0, 0): 1}, 1), ValueError,
     "counts must cover exactly the four joint strata"),
    (lambda: StratumTable(dict.fromkeys(JOINT_LABELS, 0), 0), InsufficientDataError,
     "cannot tabulate strata with no classified subjects"),
], ids=["observation-arm", "observation-adherence", "observation-covariates",
        "table-keys", "table-empty"])
def test_observation_and_table_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_classify_strata_uses_arm_coordinates():
    # same (a_p1, a_p2) lands in different strata depending on the sequence
    records = [
        make_record("cf", "CF", a=(1, 0)),  # arm0=1, arm1=0 -> S10
        make_record("ef", "EF", a=(1, 0)),  # arm1=1, arm0=0 -> S01
        make_record("both", "CF", a=(1, 1)),
    ]
    table = classify_strata(records)
    assert table.counts[StratumLabel(1, 0)] == 1
    assert table.counts[StratumLabel(0, 1)] == 1
    assert table.counts[StratumLabel(1, 1)] == 1
    assert table.counts[StratumLabel(0, 0)] == 0


def test_stratum_codes_index_joint_labels_in_order():
    a = np.array([[lab.a0, lab.a1] for lab in JOINT_LABELS], dtype=np.int8)
    assert stratum_codes(a).tolist() == [0, 1, 2, 3]
    assert [JOINT_LABELS[c] for c in stratum_codes(a[::-1])] == list(JOINT_LABELS[::-1])


def test_classify_strata_rejects_missing_adherence():
    rec = make_record("a", a=(1, None))
    with pytest.raises(MissingDataError, match="STRATUM_VAR"):
        classify_strata([rec])
    with pytest.raises(InsufficientDataError):
        classify_strata([])


def test_completer_filter_rules():
    full = make_record("full")
    no_y = make_record("noy", y=(None, 3.0))
    no_a = make_record("noa", a=(None, 1))
    records = [full, no_y, no_a]
    assert completer_filter(records, CompleterRule.OUTCOME) == [full, no_a]
    assert completer_filter(records, CompleterRule.STRATUM_VAR) == [full, no_y]
    assert completer_filter(records, CompleterRule.BOTH) == [full]


def test_completer_filter_of_no_records_is_empty():
    assert completer_filter([], CompleterRule.BOTH) == []


def test_completer_rules_take_values():
    path = DATA / "crossover_missing.csv"
    cols, records = load_columns(path), load_crossover_csv(path)
    for rule in CompleterRule:
        assert completer_mask(cols, rule.value).tolist() == completer_mask(cols, rule).tolist()
        assert completer_filter(records, rule.value) == completer_filter(records, rule)
    assert int(completer_mask(cols, "outcome").sum()) == 96
    assert int(completer_mask(cols, "both").sum()) == 79
    with pytest.raises(ValueError, match="'bogus'"):
        completer_mask(cols, "bogus")
    with pytest.raises(ValueError, match="'bogus'"):
        completer_filter(records, "bogus")
    with pytest.raises(ValueError, match="'bogus'"):
        completer_filter([], "bogus")


def test_record_sequence_takes_values_and_refuses_others():
    def record(sequence):
        return SubjectRecord("s1", ("x_base",), (1.0,), sequence, 1, 0, 10.0, 12.0)

    by_value = record("EF")
    assert by_value.sequence is TreatmentSequence.EXPERIMENTAL_FIRST
    assert by_value == record(TreatmentSequence.EXPERIMENTAL_FIRST)
    # experimental first: arm 1 is period 1
    assert as_columns([by_value]).a.tolist() == [[0, 1]]
    assert as_columns([record("CF")]).a.tolist() == [[1, 0]]
    for bad in ("XX", "ef", None, 1):
        with pytest.raises(SchemaError, match=r"subject 's1': sequence=.* not in \{CF,EF\}"):
            record(bad)


def test_as_parallel_projection():
    rec = make_record("a", "EF", a=(1, 0), y=(5.0, None))
    arm1 = as_parallel([rec], 1)[0]
    assert (arm1.t, arm1.a, arm1.y) == (1, 1, 5.0)
    arm0 = as_parallel([rec], 0)[0]
    assert (arm0.t, arm0.a, arm0.y) == (0, 0, None)
    with pytest.raises(ValueError):
        as_parallel([rec], 2)


def test_crossover_csv_round_trip(tmp_path):
    records = [
        make_record("s1", "CF", x=(0.1 + 0.2,), a=(1, 0), y=(1 / 3, -2.5)),
        make_record("s2", "EF", x=(41.3,), a=(None, 1), y=(None, 1e-17)),
    ]
    path = tmp_path / "trial.csv"
    write_crossover_csv(records, path)
    assert load_crossover_csv(path) == records


def test_parallel_csv_round_trip(tmp_path):
    obs = as_parallel(
        [make_record("s1", "CF", x=(2.25,), a=(1, None), y=(7.0, None))], 0
    )
    path = tmp_path / "arm0.csv"
    write_parallel_csv(obs, path)
    assert load_parallel_csv(path) == obs


@pytest.mark.parametrize(
    "row,message",
    [
        ("s1,XX,1.0,0,1,1,0,1.0,2.0", "sequence"),
        ("s1,CF,1.0,1,0,1,0,1.0,2.0", "inconsistent"),
        ("s1,CF,1.0,0,1,2,0,1.0,2.0", "a_p1"),
        ("s1,CF,1.0,0,1,1,0,oops,2.0", "y_p1"),
        ("s1,CF,,0,1,1,0,1.0,2.0", "x_base may not be missing"),
        ("s1,CF,1.0,0,1,1,0,1.0", "expected 9 cells"),
        (",CF,1.0,0,1,1,0,1.0,2.0", "empty subject_id"),
    ],
)
def test_crossover_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    header = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=message) as excinfo:
        load_crossover_csv(path)
    assert "row 2" in str(excinfo.value)


@pytest.mark.parametrize(
    "row,message",
    [
        ("s1,1,1.0,1", "expected 5 cells"),
        (",1,1.0,1,2.0", "empty subject_id"),
        ("s1,,1.0,1,2.0", "treatment may not be missing"),
        ("s1,NA,1.0,1,2.0", "treatment may not be missing"),
        ("s1,2,1.0,1,2.0", "treatment"),
        ("s1,1,1.0,2,2.0", "a="),
    ],
)
def test_parallel_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"subject_id,treatment,x_base,a,y\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=message) as excinfo:
        load_parallel_csv(path)
    assert "row 2" in str(excinfo.value)


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize("column", ["x_base", "y_p1", "y_p2"])
def test_crossover_csv_rejects_non_finite_numbers(tmp_path, column, token):
    header = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"
    cells = dict(x_base="1.0", y_p1="1.0", y_p2="2.0")
    cells[column] = token
    row = f"s1,CF,{cells['x_base']},0,1,1,0,{cells['y_p1']},{cells['y_p2']}"
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\ns0,CF,0.5,0,1,0,0,0.0,0.0\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"row 3: {column}='{token}' is not a finite number"):
        load_crossover_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x_base", "y"])
def test_parallel_csv_rejects_non_finite_numbers(tmp_path, column, token):
    x, y = (token, "1.0") if column == "x_base" else ("1.0", token)
    path = tmp_path / "bad.csv"
    path.write_text(f"subject_id,treatment,x_base,a,y\np1,0,{x},1,{y}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"row 2: {column}='{token}' is not a finite number"):
        load_parallel_csv(path)


NON_FINITE_RECORDS = [
    (make_record("s1", x=(math.nan,)), "subject 's1': x_base=nan"),
    (make_record("s1", y=(math.inf, 1.0)), "subject 's1': y_p1=inf"),
    (make_record("s1", y=(None, -math.inf)), "subject 's1': y_p2=-inf"),
    (
        ParallelObservation("p1", ("x_base",), (1.0,), t=1, a=0, y=math.nan),
        "subject 'p1': y=nan",
    ),
]

# hand-built columns, as (ids, columns, arms): s1 is experimental-first, so
# its arm-0 outcome is its period-2 one; a NaN outcome in columns is missing
_CROSSOVER = as_columns([make_record("s0"), make_record("s1", "EF")])
_PARALLEL = as_columns([ParallelObservation("p1", ("x_base",), (1.0,), t=1, a=0, y=1.0)])
NON_FINITE_COLUMNS = [
    ((["s0", "s1"], dataclasses.replace(_CROSSOVER, x=np.array([[1.0], [math.inf]])), None),
     "subject 's1': x_base=inf"),
    ((["s0", "s1"], dataclasses.replace(_CROSSOVER, x=np.array([[math.nan], [1.0]])), None),
     "subject 's0': x_base=nan"),
    ((["s0", "s1"], dataclasses.replace(_CROSSOVER, y=np.array([[10.0, 12.0], [-math.inf, 10.0]])),
      None), "subject 's1': y_p2=-inf"),
    ((["p1"], dataclasses.replace(_PARALLEL, y=np.array([[math.nan, math.inf]])), [1]),
     "subject 'p1': y=inf"),
]


@pytest.mark.parametrize("record,message", NON_FINITE_RECORDS)
def test_columns_reject_non_finite_numbers(record, message):
    data = [make_record("s0"), record] if isinstance(record, SubjectRecord) else [record]
    with pytest.raises(SchemaError, match=f"{message} is not a finite number"):
        as_columns(data)


@pytest.mark.parametrize("record,message", NON_FINITE_RECORDS + NON_FINITE_COLUMNS)
def test_writers_reject_non_finite_numbers(record, message, tmp_path):
    # a written nan or inf would not load back, so nothing is written
    path = tmp_path / "out.csv"
    with pytest.raises(SchemaError, match=f"{message} is not a finite number"):
        if isinstance(record, SubjectRecord):
            write_crossover_csv([make_record("s0"), record], path)
        elif isinstance(record, ParallelObservation):
            write_parallel_csv([record], path)
        else:
            ids, cols, arms = record
            write_columns(ids, cols, path, arms)
    assert not path.exists()


def test_record_writer_refuses_a_covariate_fault_before_an_earlier_outcome_fault(tmp_path):
    # records are checked as as_columns checks them: every covariate, then the outcomes
    records = [make_record("s0", y=(math.inf, 1.0)), make_record("s1", x=(math.nan,))]
    path = tmp_path / "out.csv"
    with pytest.raises(SchemaError, match="^subject 's1': x_base=nan is not a finite number"):
        write_crossover_csv(records, path)
    assert not path.exists()


def test_write_columns_refuses_ids_or_arms_that_do_not_fit(tmp_path):
    path = tmp_path / "out.csv"
    for ids, cols, arms in [(["s0"], _CROSSOVER, None), (["s0", "s1"], _CROSSOVER, [0, 1]),
                            (["p1"], _PARALLEL, None)]:
        with pytest.raises(ValueError, match="one id per row"):
            write_columns(ids, cols, path, arms)
    assert not path.exists()


def test_columns_index_by_arm_with_sentinels():
    records = [
        make_record("a", "CF", x=(1.5,), a=(1, 0), y=(10.0, 20.0)),
        make_record("b", "EF", x=(2.5,), a=(None, 1), y=(30.0, None)),
    ]
    cols = as_columns(records)
    assert cols.crossover and len(cols) == 2
    assert cols.x.tolist() == [[1.5], [2.5]]
    # EF: period 1 is arm 1
    assert cols.a.tolist() == [[1, 0], [1, A_MISSING]]
    assert cols.y[0].tolist() == [10.0, 20.0]
    assert math.isnan(cols.y[1, 0]) and cols.y[1, 1] == 30.0
    assert as_columns(cols) is cols
    taken = cols.take(np.asarray([1, 1, 0]))
    assert taken.a.tolist() == [[1, A_MISSING], [1, A_MISSING], [1, 0]]

    obs = as_parallel(records[:1], 1)
    par = as_columns(obs)
    assert not par.crossover
    assert par.a.tolist() == [[A_MISSING, 0]]
    assert math.isnan(par.y[0, 0]) and par.y[0, 1] == 20.0


def test_columns_reject_mixed_and_empty_data():
    with pytest.raises(InsufficientDataError):
        as_columns([])
    record = make_record("a")
    with pytest.raises(SchemaError, match="mixes"):
        as_columns([record, *as_parallel([record], 0)])
    with pytest.raises(SchemaError, match="disagree"):
        as_columns([record, make_record("b", covariate_names=("x_other",))])


def test_crossover_csv_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.csv"
    header = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"
    row = "s1,CF,1.0,0,1,1,0,1.0,2.0"
    path.write_text(f"{header}\n{row}\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="row 3.*duplicate"):
        load_crossover_csv(path)


def test_parallel_csv_rejects_a_repeated_subject_arm_row(tmp_path):
    lines = (DATA / "parallel_ps.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "dup.csv"
    path.write_text("\n".join(lines + lines[1:3]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"row {len(lines) + 1}: duplicate subject_id 's001'"):
        load_parallel_csv(path)


def test_crossover_csv_rejects_bad_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,sequence,weight,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="x_"):
        load_crossover_csv(path)
    path.write_text("subject_id,sequence,t_p1,t_p2\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="columns"):
        load_crossover_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty"):
        load_crossover_csv(path)


def test_csv_rejects_duplicate_covariate_columns(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("subject_id,sequence,x_a,x_a,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2\n"
                    "s1,CF,1.0,2.0,0,1,1,0,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate covariate columns in header"):
        load_crossover_csv(path)


def test_crossover_csv_rejects_an_over_long_cell(tmp_path):
    # the csv module refuses a field past its limit of 131072 characters
    path = tmp_path / "long.csv"
    header = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"
    path.write_text(f"{header}\ns1,CF,{'1' * 140_000},0,1,1,0,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{path}: line 2: field larger than field limit"):
        load_crossover_csv(path)


def test_missing_tokens_accept_na_and_blank(tmp_path):
    path = tmp_path / "na.csv"
    header = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"
    path.write_text(f"{header}\ns1,CF,1.0,0,1,NA,1,,2.0\n", encoding="utf-8")
    rec = load_crossover_csv(path)[0]
    assert rec.a_p1 is None and rec.y_p1 is None
    assert rec.a_p2 == 1 and rec.y_p2 == 2.0


def test_joint_labels_cover_the_grid():
    assert len(JOINT_LABELS) == 4
    assert {(lab.a0, lab.a1) for lab in JOINT_LABELS} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_parallel_writer_refuses_an_empty_list(tmp_path):
    with pytest.raises(ValueError, match="refusing to write an empty observation list"):
        write_parallel_csv([], tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_write_refuses_empty_and_mixed_columns(tmp_path):
    with pytest.raises(ValueError):
        write_crossover_csv([], tmp_path / "x.csv")
    mixed = [
        make_record("a"),
        make_record("b", covariate_names=("x_other",)),
    ]
    with pytest.raises(SchemaError, match="disagree"):
        write_crossover_csv(mixed, tmp_path / "x.csv")


INPUT_FILES = sorted(p for p in DATA.glob("*.csv") if ".out." not in p.name and "truth" not in p.name)


def assert_same_columns(got, want):
    assert got.covariate_names == want.covariate_names
    for field in ("x", "a", "y", "ef"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            assert g is None, field
            continue
        # bitwise: NaN equals NaN, and 0.0 differs from -0.0
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), field


@pytest.mark.parametrize("path", INPUT_FILES, ids=lambda p: p.name)
def test_load_columns_equals_the_columns_of_the_loaded_records(path):
    header = path.read_text(encoding="utf-8").split(",", 2)[:2]
    load = load_crossover_csv if header[1] == "sequence" else load_parallel_csv
    assert_same_columns(load_columns(path), as_columns(load(path)))


@pytest.mark.parametrize("path", INPUT_FILES, ids=lambda p: p.name)
def test_input_files_round_trip_through_the_record_writers_to_their_bytes(path, tmp_path):
    if load_columns(path).crossover:
        load, write = load_crossover_csv, write_crossover_csv
    else:
        load, write = load_parallel_csv, write_parallel_csv
    out = tmp_path / path.name
    write(load(path), out)
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", scenario_names())
def test_write_columns_round_trips_a_simulated_trial(name, tmp_path):
    config = dataclasses.replace(scenario(name, n_subjects=60, seed=9), missing_y_prob=(0.2, 0.3))
    cols = trial_columns(config)
    assert np.isnan(cols.y).any()  # NA cells are written and read back
    path = tmp_path / "trial.csv"
    write_columns(subject_ids(len(cols)), cols, path)
    assert_same_columns(load_columns(path), cols)


def test_write_columns_round_trips_parallel_columns(tmp_path):
    source = DATA / "parallel_ps.csv"
    obs, cols = load_parallel_csv(source), load_columns(source)
    assert any(o.a is None and o.y is None for o in obs)  # no observed cell: only arms gives its arm
    path = tmp_path / "parallel.csv"
    write_columns([o.subject_id for o in obs], cols, path, [o.t for o in obs])
    assert_same_columns(load_columns(path), cols)
    assert path.read_bytes() == source.read_bytes()


def test_input_files_cover_both_shapes():
    shapes = {load_columns(path).crossover for path in INPUT_FILES}
    assert len(INPUT_FILES) >= 6 and shapes == {True, False}


@pytest.mark.parametrize(
    "header", ["subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2", "subject_id,treatment,a,y"]
)
def test_load_columns_refuses_a_header_without_rows(header, tmp_path):
    path = tmp_path / "head.csv"
    path.write_text(f"{header}\n\n", encoding="utf-8")
    with pytest.raises(InsufficientDataError, match="^no data$"):
        load_columns(path)


CROSSOVER_HEADER = "subject_id,sequence,x_base,t_p1,t_p2,a_p1,a_p2,y_p1,y_p2"


@pytest.mark.parametrize(
    "header,rows,message",
    [
        # a duplicate id is found before a bad covariate
        (CROSSOVER_HEADER, ["s1,CF,1.0,0,1,1,0,1.0,2.0", "s1,CF,oops,0,1,1,0,1.0,2.0"],
         "row 3: duplicate subject_id 's1'"),
        # a bad sequence is found before a bad covariate
        (CROSSOVER_HEADER, ["s1,XX,oops,0,1,1,0,1.0,2.0"], "row 2: sequence='XX' not in"),
        # a wrong width is found before an empty id
        (CROSSOVER_HEADER, [",CF,1.0,0,1,1,0,1.0"], "row 2: expected 9 cells, got 8"),
        ("subject_id,treatment,x_base,a,y", [",1,1.0,1"], "row 2: expected 5 cells, got 4"),
        # a missing treatment is found before a bad covariate
        ("subject_id,treatment,x_base,a,y", ["s1,NA,oops,1,2.0"],
         "row 2: treatment may not be missing"),
        ("subject_id,treatment,x_base,a,y", ["s1,1,1.0,1,2.0", "s1,1,oops,1,2.0"],
         "row 3: duplicate subject_id 's1' in arm 1"),
    ],
    ids=["dup-id+covariate", "sequence+covariate", "width+empty-id", "parallel-width+empty-id",
         "parallel-treatment+covariate", "parallel-dup-id+covariate"],
)
def test_a_row_with_two_faults_reports_the_first(header, rows, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    load = load_crossover_csv if "sequence" in header else load_parallel_csv
    for loader in (load, load_columns):
        with pytest.raises(SchemaError, match=f"^{message}"):
            loader(path)


def test_by_period_swaps_experimental_first_rows_and_undoes_itself():
    ef = np.asarray([False, True])
    values = np.asarray([[1, 2], [3, 4]])
    assert by_period(ef, values).tolist() == [[1, 2], [4, 3]]
    assert by_period(ef, by_period(ef, values)).tolist() == values.tolist()


def test_crossover_records_invert_as_columns():
    records = [
        make_record("a", "CF", x=(1.5,), a=(1, None), y=(10.0, None)),
        make_record("b", "EF", x=(-0.0,), a=(None, 0), y=(None, 2.5)),
    ]
    assert crossover_records(["a", "b"], as_columns(records)) == records
