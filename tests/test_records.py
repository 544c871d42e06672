"""Result records are immutable named tuples with a fixed field order.

The order is part of the output: ``to_dict`` and ``diagnose``'s CSV rows
list a record's fields in it.
"""

import csv
from pathlib import Path

import pytest

from pcekit import cli
from pcekit.core import CompleterRule, completer_mask, load_columns
from pcekit.diagnostics import (
    CrossoverEffectsReport,
    IgnorabilityReport,
    IndependenceReport,
    MonotonicityReport,
    RegressionRow,
    crossover_effects_test,
    ignorability_regressions,
)
from pcekit.estimators import EstimateSummary
from pcekit.glm import LogisticFit, OlsFit
from pcekit.resampling import BootstrapResult, VectorBootstrapResult
from pcekit.simulator import TruthRow, TruthTable

DATA = Path(__file__).resolve().parent / "data"

FIELDS = {
    MonotonicityReport: ["direction", "table", "violating_proportion", "note"],
    RegressionRow: ["outcome_arm", "adherence_arm", "coefficient", "standard_error", "p_value",
                    "adjusted_mean_a0", "adjusted_mean_a1"],
    IgnorabilityReport: ["rows", "n_subjects"],
    IndependenceReport: ["method", "observed", "estimated", "discrepancy", "p_value",
                         "secondary_discrepancy", "secondary_p_value", "n_subjects",
                         "n_bootstrap", "n_rejected"],
    CrossoverEffectsReport: ["n_cf", "n_ef", "treatment_effect", "treatment_t", "treatment_p",
                             "period_effect", "period_t", "period_p", "sequence_t",
                             "sequence_p"],
    EstimateSummary: ["stratum", "quantity", "method", "point", "se", "ci", "n_effective",
                      "note"],
    OlsFit: ["names", "coefficients", "standard_errors", "t_stats", "p_values", "sigma2", "dof"],
    LogisticFit: ["names", "coefficients", "converged", "diverged", "iterations",
                  "final_gradient_norm", "deviance", "deviance_path"],
    BootstrapResult: ["point", "se", "ci", "n_effective", "n_failures", "failure_counts",
                      "warnings"],
    VectorBootstrapResult: ["points", "se", "ci", "n_effective", "n_failures",
                            "failure_counts", "warnings"],
    TruthRow: ["stratum", "probability", "prob_mc_se", "mu0", "mu1", "pce", "pce_mc_se",
               "n_members"],
    TruthTable: ["rows", "oracle_n", "seed"],
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_named_tuples_in_a_fixed_order(record):
    fields = FIELDS[record]
    assert list(record._fields) == fields
    r = record(*range(len(fields)))
    assert r == tuple(range(len(fields)))
    assert list(r._asdict()) == fields
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, -1)


def test_reports_and_diagnose_rows_follow_the_field_order(tmp_path):
    data = load_columns(DATA / "crossover_missing.csv")
    effects = crossover_effects_test(data.take(completer_mask(data, CompleterRule.OUTCOME)))
    assert list(effects.to_dict()) == FIELDS[CrossoverEffectsReport]
    ignorability = ignorability_regressions(data.take(completer_mask(data, CompleterRule.BOTH)))
    assert [list(row) for row in ignorability.to_dict()["regressions"]] == \
        [FIELDS[RegressionRow]] * 4

    out = tmp_path / "diagnose.csv"
    assert cli.main(["diagnose", "--input", str(DATA / "crossover_missing.csv"),
                     "--checks", "ignorability,effects", "--format", "csv",
                     "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = {name: [r["key"] for r in rows if r["section"] == name]
            for name in ("ignorability", "effects")}
    assert keys["effects"] == FIELDS[CrossoverEffectsReport]
    assert keys["ignorability"] == ["n"] + [f"regressions.{i}.{f}" for i in range(4)
                                            for f in FIELDS[RegressionRow]]
