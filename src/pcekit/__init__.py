"""Principal causal effect estimation with crossover-based diagnostics.

Estimate per-stratum treatment effects by principal-score weighting or
direct stratification, check the identification assumptions the weighting
route relies on against crossover data, and simulate trials with a known
ground truth to study both.

The package loads lazily (PEP 562): a bare ``import pcekit`` loads no
submodule, and ``pcekit.X`` or ``from pcekit import X`` loads only the
submodule that defines X.
"""

# each submodule and the names the package re-exports from it
_EXPORTS = {
    "core": (
        "JOINT_LABELS", "CompleterRule", "ParallelObservation", "StratumLabel", "StratumTable",
        "SubjectRecord", "TreatmentSequence", "TrialColumns", "as_columns", "as_parallel",
        "classify_strata", "completer_filter", "completer_mask", "load_columns",
        "load_crossover_csv", "load_parallel_csv", "stratum_counts", "write_columns",
        "write_crossover_csv", "write_parallel_csv",
    ),
    "diagnostics": (
        "CrossoverEffectsReport", "IgnorabilityReport", "IndependenceReport",
        "MonotonicityDirection", "MonotonicityReport", "crossover_effects_test",
        "ignorability_regressions", "independence_test", "monotonicity_report",
    ),
    "errors": (
        "BootstrapError", "ConfigError", "ConvergenceError", "DegenerateResponseError",
        "DiagnosticError", "InestimableStratumError", "InsufficientDataError",
        "MissingDataError", "PcekitError", "SchemaError", "SingularDesignError",
    ),
    "estimators": (
        "EstimateSummary", "PceMethod", "PrincipalScoreModel", "ProbMethod",
        "StratumProbEstimate", "estimate_mu_direct", "estimate_mu_hayden", "estimate_pce_table",
        "estimate_stratum_probs", "fit_principal_score", "principal_scores",
    ),
    "glm": (
        "DesignMatrix", "LogisticFit", "OlsFit", "fit_logistic", "fit_ols", "predict_probs",
        "t_two_sided_p",
    ),
    "resampling": (
        "BootstrapResult", "BootstrapSpec", "bootstrap", "exceedance_p", "percentile_interval",
    ),
    "simulator": (
        "DgpConfig", "TruthRow", "TruthTable", "generate_trial", "scenario", "scenario_names",
        "trial_columns", "true_pce",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's machinery, which -X importtime reports (unlike
    # importlib.import_module's); the import binds the submodule here
    __import__(f"{__name__}.{module}")
    return globals()[module] if module == name else getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
