"""The package's public names: ``pcekit.X`` and ``from pcekit import X``
give each module's own object, though a bare ``import pcekit`` loads no
submodule (see test_imports.py)."""

import importlib

import pytest

import pcekit

# the module that defines each public name; the package re-exports the
# names and the submodules themselves
DEFINED_IN = {
    "core": [
        "JOINT_LABELS", "CompleterRule", "ParallelObservation", "StratumLabel", "StratumTable",
        "SubjectRecord", "TreatmentSequence", "TrialColumns", "as_columns", "as_parallel",
        "classify_strata", "completer_filter", "completer_mask", "load_columns",
        "load_crossover_csv", "load_parallel_csv", "stratum_counts", "write_columns",
        "write_crossover_csv", "write_parallel_csv",
    ],
    "diagnostics": [
        "CrossoverEffectsReport", "IgnorabilityReport", "IndependenceReport",
        "MonotonicityDirection", "MonotonicityReport", "crossover_effects_test",
        "ignorability_regressions", "independence_test", "monotonicity_report",
    ],
    "errors": [
        "BootstrapError", "ConfigError", "ConvergenceError", "DegenerateResponseError",
        "DiagnosticError", "InestimableStratumError", "InsufficientDataError",
        "MissingDataError", "PcekitError", "SchemaError", "SingularDesignError",
    ],
    "estimators": [
        "EstimateSummary", "PceMethod", "PrincipalScoreModel", "ProbMethod",
        "StratumProbEstimate", "estimate_mu_direct", "estimate_mu_hayden", "estimate_pce_table",
        "estimate_stratum_probs", "fit_principal_score", "principal_scores",
    ],
    "glm": [
        "DesignMatrix", "LogisticFit", "OlsFit", "fit_logistic", "fit_ols", "predict_probs",
        "t_two_sided_p",
    ],
    "resampling": [
        "BootstrapResult", "BootstrapSpec", "bootstrap", "exceedance_p", "percentile_interval",
    ],
    "simulator": [
        "DgpConfig", "TruthRow", "TruthTable", "generate_trial", "scenario", "scenario_names",
        "trial_columns", "true_pce",
    ],
}
NAMES = [(module, name) for module, names in DEFINED_IN.items() for name in names]


def test_all_is_pinned():
    assert pcekit.__all__ == [
        "BootstrapError", "BootstrapResult", "BootstrapSpec", "CompleterRule", "ConfigError",
        "ConvergenceError", "CrossoverEffectsReport", "DegenerateResponseError",
        "DesignMatrix", "DgpConfig", "DiagnosticError", "EstimateSummary", "IgnorabilityReport",
        "IndependenceReport", "InestimableStratumError", "InsufficientDataError",
        "JOINT_LABELS", "LogisticFit", "MissingDataError", "MonotonicityDirection",
        "MonotonicityReport", "OlsFit", "ParallelObservation", "PceMethod", "PcekitError",
        "PrincipalScoreModel", "ProbMethod", "SchemaError", "SingularDesignError",
        "StratumLabel", "StratumProbEstimate", "StratumTable", "SubjectRecord",
        "TreatmentSequence", "TrialColumns", "TruthRow", "TruthTable", "as_columns",
        "as_parallel", "bootstrap", "classify_strata", "completer_filter", "completer_mask",
        "core", "crossover_effects_test", "diagnostics", "errors", "estimate_mu_direct",
        "estimate_mu_hayden", "estimate_pce_table", "estimate_stratum_probs", "estimators",
        "exceedance_p", "fit_logistic", "fit_ols", "fit_principal_score", "generate_trial",
        "glm", "ignorability_regressions", "independence_test", "load_columns",
        "load_crossover_csv", "load_parallel_csv", "monotonicity_report",
        "percentile_interval", "predict_probs", "principal_scores", "resampling", "scenario",
        "scenario_names", "simulator", "stratum_counts", "t_two_sided_p", "trial_columns",
        "true_pce", "write_columns", "write_crossover_csv", "write_parallel_csv",
    ]
    assert sorted([*DEFINED_IN, *(name for _, name in NAMES)]) == pcekit.__all__


@pytest.mark.parametrize(("module", "name"), NAMES, ids=[name for _, name in NAMES])
def test_name_is_the_defining_modules_object(module, name):
    owner = importlib.import_module(f"pcekit.{module}")
    obj = getattr(pcekit, name)
    assert obj is getattr(owner, name)
    assert getattr(obj, "__module__", owner.__name__) == owner.__name__


@pytest.mark.parametrize("module", DEFINED_IN)
def test_submodule_names_are_the_submodules(module):
    assert getattr(pcekit, module) is importlib.import_module(f"pcekit.{module}")


def test_dir_lists_every_public_name():
    assert set(pcekit.__all__) <= set(dir(pcekit))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from pcekit import *", namespace)
    assert all(namespace[name] is getattr(pcekit, name) for name in pcekit.__all__)
    assert set(namespace) - {"__builtins__"} == set(pcekit.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        pcekit.frobnicate  # noqa: B018
    with pytest.raises(ImportError, match="frobnicate"):
        exec("from pcekit import frobnicate", {})
