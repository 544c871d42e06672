"""Principal causal effect estimation with crossover-based diagnostics.

Estimate per-stratum treatment effects by principal-score weighting or
direct stratification, check the identification assumptions the weighting
route relies on against crossover data, and simulate trials with a known
ground truth to study both.
"""

from .core import (
    JOINT_LABELS,
    CompleterRule,
    ParallelObservation,
    StratumLabel,
    StratumTable,
    SubjectRecord,
    TreatmentSequence,
    TrialColumns,
    as_columns,
    as_parallel,
    classify_strata,
    completer_filter,
    completer_mask,
    load_columns,
    load_crossover_csv,
    load_parallel_csv,
    stratum_counts,
    write_columns,
    write_crossover_csv,
    write_parallel_csv,
)
from .diagnostics import (
    CrossoverEffectsReport,
    IgnorabilityReport,
    IndependenceReport,
    MonotonicityDirection,
    MonotonicityReport,
    crossover_effects_test,
    ignorability_regressions,
    independence_test,
    monotonicity_report,
)
from .errors import (
    BootstrapError,
    ConfigError,
    ConvergenceError,
    DegenerateResponseError,
    DiagnosticError,
    InestimableStratumError,
    InsufficientDataError,
    MissingDataError,
    PcekitError,
    SchemaError,
    SingularDesignError,
)
from .estimators import (
    EstimateSummary,
    PceMethod,
    PrincipalScoreModel,
    ProbMethod,
    StratumProbEstimate,
    estimate_mu_direct,
    estimate_mu_hayden,
    estimate_pce_table,
    estimate_stratum_probs,
    fit_principal_score,
    principal_scores,
)
from .glm import (
    DesignMatrix,
    LogisticFit,
    OlsFit,
    fit_logistic,
    fit_ols,
    predict_probs,
    t_two_sided_p,
)
from .resampling import (
    BootstrapResult,
    BootstrapSpec,
    bootstrap,
    exceedance_p,
    percentile_interval,
)
from .simulator import (
    DgpConfig,
    TruthRow,
    TruthTable,
    generate_trial,
    scenario,
    scenario_names,
    trial_columns,
    true_pce,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
