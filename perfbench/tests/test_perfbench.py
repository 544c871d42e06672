"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from checks import compare_text  # noqa: E402
from make_reference import make_references  # noqa: E402
from tracing import Probe, Span, Tracer, instrument, self_times  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_DIR,
    TIMED_STREAM,
    WORKLOADS,
    check_against_input,
    generate_trial,
    write_crossover_csv,
)

from yardstick import REFERENCE_S, at_reference_speed  # noqa: E402

from pcekit import core, diagnostics, estimators, glm  # noqa: E402
from pcekit.resampling import BootstrapSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, n=min(w.n, 150), bootstrap=min(w.bootstrap, 10),
                               replicates=min(w.replicates, 2), oracle_n=10_000)


def test_self_times_on_nested_spans():
    spans = [
        Span(0, None, "a", 0.0, 10.0),
        Span(1, 0, "b", 1.0, 4.0),
        Span(2, 1, "c", 2.0, 3.0),
        Span(3, 0, "c", 5.0, 7.0),
        Span(4, None, "b", 11.0, 12.0),
    ]
    times = self_times(spans)
    # a: 10 - (3 + 2); b: (3 - 1) + 1; c: 1 + 2
    assert times == {"a": 5.0, "b": 3.0, "c": 3.0}
    assert sum(times.values()) == 11.0  # the two top-level spans


def test_tracer_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(Probe("x", "inner", "inner"), lambda v: v + 1)
    outer = tracer.wrap(Probe("x", "outer", "outer", "outer_calls"), lambda v: inner(v) * inner(v))
    assert outer(2) == 9
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert self_times(tracer.spans) == {"inner": 2.0, "outer": 3.0}
    assert tracer.counts["outer_calls"] == 1


def test_wrappers_are_transparent(tmp_path):
    trial = generate_trial("a4p_violated", 120, 0, TIMED_STREAM)
    write_crossover_csv(trial, tmp_path / "in.csv")
    data = core.load_crossover_csv(tmp_path / "in.csv")
    spec = BootstrapSpec(n_replicates=20, seed=3)
    original_fit = glm.fit_logistic

    plain_table = estimators.estimate_pce_table(data, bootstrap_spec=spec)
    plain_test = diagnostics.independence_test(data, n_bootstrap=30, seed=1)
    tracer = Tracer()
    with instrument(tracer):
        assert estimators.fit_logistic is not original_fit
        assert estimators.fit_logistic.__name__ == "fit_logistic"
        traced_table = estimators.estimate_pce_table(data, bootstrap_spec=spec)
        traced_test = diagnostics.independence_test(data, n_bootstrap=30, seed=1)
    for name in ("glm", "estimators", "diagnostics"):
        assert getattr(sys.modules[f"pcekit.{name}"], "fit_logistic") is original_fit

    assert repr(traced_table) == repr(plain_table)
    assert repr(traced_test) == repr(plain_test)
    assert tracer.counts["resampling.replicates"] == 20
    # one index vector per replicate, and per resample attempt of the test
    assert tracer.counts["resampling.index_draws"] == 120 * (20 + 30 + plain_test.n_rejected)
    # at least one fit per arm on the full data and on each replicate and resample
    assert tracer.counts["glm.logistic_fits"] >= 2 * (21 + 1 + 30)


def test_reference_speed_scales_by_the_neighbouring_yardsticks():
    assert at_reference_speed(1.5, REFERENCE_S, REFERENCE_S) == pytest.approx(1.5)
    # a host running at half speed doubles both the command and its yardsticks
    assert at_reference_speed(3.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(1.5)
    # a change of speed during the command is split between both sides
    assert at_reference_speed(2.25, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(1.5)


def test_wrapper_records_a_span_when_the_call_raises():
    tracer = Tracer()
    with instrument(tracer):
        with pytest.raises(ValueError):
            core.as_parallel([], 5)
    assert [s.name for s in tracer.spans] == ["core.project"]
    assert tracer.counts["core.project_calls"] == 1


def test_benchmark_json_names_what_the_benchmark_emits():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert END_TO_END == {"setup_s", "wall_s", "units_per_s", "peak_rss_mb"}
    emitted = set(Tracer().layer_metrics()) | {
        "trace.wall_s", "trace.overhead_ratio", "trace.accounted_share"}
    assert PER_LAYER == emitted


def _edit_csv(text: str, row: int, col: int, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_comparator_accepts_last_bit_changes_and_rejects_altered_outputs():
    ref = (REFERENCE_DIR / "estimate_boot_small-0.csv").read_text()
    point = float(list(csv.reader(io.StringIO(ref)))[1][3])
    assert compare_text("csv", ref, ref) == []
    assert compare_text("csv", _edit_csv(ref, 1, 3, repr(point * (1 + 1e-12))), ref) == []
    assert compare_text("csv", _edit_csv(ref, 1, 3, repr(point * (1 + 1e-6))), ref)
    assert compare_text("csv", _edit_csv(ref, 1, 3, "NA"), ref)
    assert compare_text("csv", _edit_csv(ref, 1, 7, "299"), ref)
    assert compare_text("csv", ref.rsplit("\n", 2)[0] + "\n", ref)
    # a new column is accepted, a lost one is not
    widened = "\n".join(line + ",x" for line in ref.splitlines()) + "\n"
    assert compare_text("csv", widened, ref) == []
    assert compare_text("csv", ref, widened)

    ref = (REFERENCE_DIR / "diagnose_refit-0.json").read_text()
    doc = json.loads(ref)
    doc["results"]["independence"]["n_rejected"] += 1
    assert compare_text("json", json.dumps(doc), ref)
    doc = json.loads(ref)
    doc["results"]["independence"]["p_value"] *= 1 + 1e-12
    assert compare_text("json", json.dumps(doc), ref) == []
    doc["results"]["independence"]["p_value"] *= 1 + 1e-6
    assert compare_text("json", json.dumps(doc), ref)
    doc = json.loads(ref)
    doc["meta"] = {"seed": 0}
    assert compare_text("json", json.dumps(doc), ref) == []
    del doc["results"]["effects"]["n_cf"]
    assert compare_text("json", json.dumps(doc), ref)


def test_input_check_catches_a_wrong_direct_mean(tmp_path):
    from pcekit import cli

    workload = _tiny("estimate_boot_small")
    trial = generate_trial(workload.preset, workload.n, 4, TIMED_STREAM)
    write_crossover_csv(trial, tmp_path / "in.csv")
    assert cli.main(workload.argv(tmp_path / "in.csv", tmp_path / "out.csv", 4)) == 0
    text = (tmp_path / "out.csv").read_text()
    assert check_against_input(workload, trial, text) == []
    rows = list(csv.reader(io.StringIO(text)))
    i = next(i for i, r in enumerate(rows) if r[:3] == ["S11", "direct", "arm0"])
    altered = _edit_csv(text, i, 3, repr(float(rows[i][3]) + 1e-3))
    assert check_against_input(workload, trial, altered)


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_completes_at_a_tiny_size(name, tmp_path, quick_setup):
    workload = _tiny(name)
    make_references([workload], tmp_path)
    facts, result = bench.run_benchmark(workload, seed=7, seconds=1, trace=1,
                                        reference_dir=tmp_path)
    assert facts["problems"] == []
    # the reference command, then at least two untraced-traced pairs
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert facts["counters_repeat"] and facts["reference_byte_identical"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["trace.accounted_share"] == pytest.approx(1.0, abs=0.01)


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path, quick_setup):
    workload = _tiny("replicate_study")
    make_references([workload], tmp_path)
    facts, result = bench.run_benchmark(workload, seed=2, seconds=1, trace=0,
                                        reference_dir=tmp_path)
    assert result["correct"] and result["attempted"] >= 4
    assert set(result["metrics"]) == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_an_altered_reference_fails_the_run(tmp_path, quick_setup):
    workload = _tiny("estimate_boot_small")
    make_references([workload], tmp_path)
    for path in tmp_path.glob("*.csv"):
        path.write_text(_edit_csv(path.read_text(), 2, 3, "1.5"))
    facts, result = bench.run_benchmark(workload, seed=0, seconds=1, trace=0,
                                        reference_dir=tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert facts["error_rate"] == 1 / result["attempted"]
    assert any(p.startswith("reference seed") for p in facts["problems"])
