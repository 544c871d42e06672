"""Checks of the identification assumptions against crossover data.

Crossover trials observe both potential adherences, so the assumptions the
principal-score estimators rest on become testable: monotonicity shows up
as an (almost) empty stratum cell, within-arm and cross-world ignorability
as adherence coefficients in outcome regressions, and cross-world
independence as agreement between observed stratum proportions and their
independence-based reconstruction. The reconstructions live in one table,
``estimators._RECONSTRUCTIONS``; the independence test runs the entry of its
method, the full-data form on the data and on rows the chunk form leaves,
and the chunk form on batches of resamples.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    JOINT_LABELS,
    CompleterRule,
    Dataset,
    StratumLabel,
    StratumTable,
    TrialColumns,
    _require_completers,
    as_columns,
    by_period,
    check_integer,
    classify_strata,
    stratum_codes,
)
from .errors import BootstrapError, DiagnosticError, InsufficientDataError
from .estimators import ProbMethod, _RECONSTRUCTIONS, _prob_vector
from .glm import DesignMatrix, fit_ols, t_two_sided_p
from .resampling import SEED_LIMIT, draw_replicates, exceedance_p, resample_counts


def _crossover_columns(data: Dataset) -> TrialColumns:
    """Records or columns as columns; every check needs crossover subjects."""
    cols = as_columns(data)
    if not cols.crossover:
        raise DiagnosticError("diagnostics need crossover data")
    return cols


class MonotonicityDirection(Enum):
    """Which stratum cells monotone adherence forbids."""

    INCREASING = "increasing"  # A(1) >= A(0): forbids S10
    DECREASING = "decreasing"  # A(1) <= A(0): forbids S01
    EQUAL = "equal"  # A(1) == A(0): forbids both off-diagonal cells

    @property
    def forbidden(self) -> tuple[StratumLabel, ...]:
        if self is MonotonicityDirection.INCREASING:
            return (StratumLabel(1, 0),)
        if self is MonotonicityDirection.DECREASING:
            return (StratumLabel(0, 1),)
        return (StratumLabel(0, 1), StratumLabel(1, 0))


class MonotonicityReport(NamedTuple):
    direction: MonotonicityDirection
    table: StratumTable
    violating_proportion: float
    note: str

    def to_dict(self) -> dict:
        return {
            "direction": self.direction.value,
            "n": self.table.n_total,
            "counts": {str(lab): self.table.counts[lab] for lab in JOINT_LABELS},
            "proportions": {str(lab): self.table.proportions[lab] for lab in JOINT_LABELS},
            "violating_proportion": self.violating_proportion,
            "note": self.note,
        }


def monotonicity_report(
    data: Dataset, direction: MonotonicityDirection | str = MonotonicityDirection.INCREASING
) -> MonotonicityReport:
    """Tabulate strata and the share of subjects in cells monotonicity forbids.

    direction is a ``MonotonicityDirection``, by value ("decreasing") or
    member. Subjects need adherence in both periods (stratum-variable
    completers).
    """
    direction = MonotonicityDirection(direction)
    table = classify_strata(_crossover_columns(data))
    forbidden = direction.forbidden
    violating = sum(table.counts[lab] for lab in forbidden)
    prop = violating / table.n_total
    cells = ", ".join(str(lab) for lab in forbidden)
    note = (
        f"monotonicity ({direction.value}) requires empty {cells}; observed "
        f"{violating} of {table.n_total} subjects ({prop:.1%}) there"
    )
    return MonotonicityReport(
        direction=direction, table=table, violating_proportion=prop, note=note
    )


class RegressionRow(NamedTuple):
    """One outcome-on-adherence regression (covariate- and period-adjusted)."""

    outcome_arm: int
    adherence_arm: int
    coefficient: float
    standard_error: float
    p_value: float
    adjusted_mean_a0: float
    adjusted_mean_a1: float


class IgnorabilityReport(NamedTuple):
    """Own-arm rows gauge within-treatment ignorability, cross-arm rows the
    cross-world version; a significant cross-arm coefficient is the red flag
    for weighting-based estimation."""

    rows: tuple[RegressionRow, ...]
    n_subjects: int

    def row(self, outcome_arm: int, adherence_arm: int) -> RegressionRow:
        for r in self.rows:
            if (r.outcome_arm, r.adherence_arm) == (outcome_arm, adherence_arm):
                return r
        raise KeyError((outcome_arm, adherence_arm))

    def to_dict(self) -> dict:
        return {"n": self.n_subjects, "regressions": [r._asdict() for r in self.rows]}


def ignorability_regressions(
    data: Dataset, covariates: Sequence[str] | None = None
) -> IgnorabilityReport:
    """Regress each arm's outcome on each arm's adherence, X, and period.

    Needs completers for adherence and outcome in both periods. Four rows
    come back in (outcome, adherence) order (0,0), (1,1), (0,1), (1,0).
    """
    cols = _crossover_columns(data)
    _require_completers(cols, CompleterRule.BOTH)
    cols = cols.select(covariates)
    names, x = cols.covariate_names, cols.x
    # contiguous copies: fit_ols on a strided column view differs in the last bits
    y = {t: np.ascontiguousarray(cols.y[:, t]) for t in (0, 1)}
    a = {t: cols.a[:, t].astype(float) for t in (0, 1)}
    period2 = {t: (cols.ef != t).astype(float) for t in (0, 1)}

    rows = []
    for outcome_arm, adherence_arm in ((0, 0), (1, 1), (0, 1), (1, 0)):
        regressors = [a[adherence_arm], *x.T, period2[outcome_arm]]
        design = DesignMatrix.with_intercept(("adherence", *names, "period2"), regressors)
        fit = fit_ols(design, y[outcome_arm])
        coef_a = fit.coef("adherence")
        idx_a = fit.names.index("adherence")
        base = float(fit.coefficients[0])
        base += float(np.sum(fit.coefficients[2:-1] * x.mean(axis=0))) if names else 0.0
        base += float(fit.coefficients[-1]) * float(period2[outcome_arm].mean())
        rows.append(
            RegressionRow(
                outcome_arm=outcome_arm,
                adherence_arm=adherence_arm,
                coefficient=coef_a,
                standard_error=float(fit.standard_errors[idx_a]),
                p_value=float(fit.p_values[idx_a]),
                adjusted_mean_a0=base,
                adjusted_mean_a1=base + coef_a,
            )
        )
    return IgnorabilityReport(rows=tuple(rows), n_subjects=len(cols))


class IndependenceReport(NamedTuple):
    method: ProbMethod
    observed: dict[StratumLabel, float]
    estimated: dict[StratumLabel, float]
    discrepancy: float  # max absolute cell gap
    p_value: float
    secondary_discrepancy: float  # sum of squared cell gaps
    secondary_p_value: float
    n_subjects: int
    n_bootstrap: int
    n_rejected: int

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "n": self.n_subjects,
            "observed": {str(lab): self.observed[lab] for lab in JOINT_LABELS},
            "estimated": {str(lab): self.estimated[lab] for lab in JOINT_LABELS},
            "discrepancy": self.discrepancy,
            "p_value": self.p_value,
            "secondary_discrepancy": self.secondary_discrepancy,
            "secondary_p_value": self.secondary_p_value,
            "n_bootstrap": self.n_bootstrap,
            "n_rejected": self.n_rejected,
        }


def independence_test(
    data: Dataset, method: ProbMethod | str = ProbMethod.COND_INDEP,
    covariates: Sequence[str] | None = None, n_bootstrap: int = 500, seed: int = 0,
) -> IndependenceReport:
    """Bootstrap test of observed stratum proportions against an
    independence-based reconstruction.

    The statistic is the largest absolute cell gap. The null distribution
    comes from subject-level resampling with every model refit, with each
    replicate's gap centered at the full-sample gap, so the p-value measures
    whether the observed gap exceeds pure sampling noise. Replicates where a
    model cannot be refit are rejected and redrawn; more than 10% rejections
    aborts the test. Subjects need adherence in both periods.

    method is a model-based ``ProbMethod``, by value ("indep") or member;
    its entry in ``estimators._RECONSTRUCTIONS`` holds a full-data form and a
    chunk form. Each replicate is a row of multinomial counts over the
    subjects. Chunks of rows, ``resampling._CHUNK_ELEMENTS`` index draws
    each, go to the chunk form, which refits them together from the starts
    the full-data form returned on the data; the engine runs the full-data
    form, from the same starts, on each row the chunk form leaves, and its
    verdict rejects the row or not.
    """
    method = ProbMethod(method)
    if method is ProbMethod.OBSERVED:
        raise ValueError("compare against a model-based method, not the observed table")
    check_integer("n_bootstrap", n_bootstrap, 1)
    check_integer("seed", seed, 0, SEED_LIMIT)
    cols = _crossover_columns(data)
    n = len(cols)
    if n < 4:
        raise InsufficientDataError("too few subjects for the independence test")

    cols = cols.select(covariates)
    obs_vec = _prob_vector(cols, ProbMethod.OBSERVED)
    full, batch = _RECONSTRUCTIONS[method]
    est_vec, warm = full(cols, None)
    gap0 = obs_vec - est_vec
    d_obs = float(np.max(np.abs(gap0)))
    ssq_obs = float(np.sum(gap0**2))

    # cell membership as (n, 4) indicators, so counts @ cells tallies a resample
    cells = np.eye(len(JOINT_LABELS))[stratum_codes(cols.a)]

    def gaps(counts: np.ndarray, est_b: np.ndarray) -> np.ndarray:
        """Centered max and sum-of-squares gaps of resamples given as counts."""
        centered = counts @ cells / n - est_b - gap0
        return np.column_stack([np.max(np.abs(centered), axis=1), np.sum(centered**2, axis=1)])

    def chunk(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts = resample_counts(idx, n)
        est_b, left = batch(cols, counts, warm)
        return gaps(counts, est_b), left

    def one(row: np.ndarray) -> np.ndarray:
        est_b = full(cols.take(row), warm)[0]
        return gaps(resample_counts(row[None, :], n), est_b)[0]

    try:
        null, rejected = draw_replicates(seed, n, n_bootstrap, chunk, one, redraw=True)
    except BootstrapError as exc:
        raise DiagnosticError(f"{exc}; the data are too sparse for this test") from exc

    return IndependenceReport(
        method=method,
        observed=dict(zip(JOINT_LABELS, obs_vec.tolist())),
        estimated=dict(zip(JOINT_LABELS, est_vec.tolist())),
        discrepancy=d_obs,
        p_value=exceedance_p(null[:, 0], d_obs),
        secondary_discrepancy=ssq_obs,
        secondary_p_value=exceedance_p(null[:, 1], ssq_obs),
        n_subjects=n,
        n_bootstrap=n_bootstrap,
        n_rejected=sum(rejected.values()),
    )


class CrossoverEffectsReport(NamedTuple):
    """Two-stage crossover analysis on period differences and sums."""

    n_cf: int
    n_ef: int
    treatment_effect: float
    treatment_t: float
    treatment_p: float
    period_effect: float
    period_t: float
    period_p: float
    sequence_t: float
    sequence_p: float

    def to_dict(self) -> dict:
        return self._asdict()


def _pooled_t(v1: np.ndarray, v2: np.ndarray) -> tuple[float, float]:
    n1, n2 = v1.size, v2.size
    dof = n1 + n2 - 2
    sp2 = ((n1 - 1) * np.var(v1, ddof=1) + (n2 - 1) * np.var(v2, ddof=1)) / dof
    diff = float(np.mean(v1) - np.mean(v2))
    se = float(np.sqrt(sp2 * (1.0 / n1 + 1.0 / n2)))
    if se == 0.0:
        t = 0.0 if diff == 0.0 else float(np.sign(diff) * np.inf)
    else:
        t = diff / se
    return t, float(t_two_sided_p(t, dof))


def crossover_effects_test(data: Dataset) -> CrossoverEffectsReport:
    """Treatment, period, and sequence (carry-over) tests from period
    differences and sums, compared between sequence groups.

    Needs outcome completers (y in both periods) and at least two subjects
    per sequence. The sequence test doubles as the carry-over check: with no
    carry-over, period sums have equal means in both sequence groups.
    """
    cols = _crossover_columns(data)
    _require_completers(cols, CompleterRule.OUTCOME)
    y_p = by_period(cols.ef, cols.y)
    d, s = y_p[:, 0] - y_p[:, 1], y_p[:, 0] + y_p[:, 1]
    d_cf, d_ef = d[~cols.ef], d[cols.ef]
    s_cf, s_ef = s[~cols.ef], s[cols.ef]
    if d_cf.size < 2 or d_ef.size < 2:
        raise InsufficientDataError(
            f"need at least two outcome completers per sequence, have "
            f"CF={d_cf.size}, EF={d_ef.size}"
        )

    # with y_p1 - y_p2: E[d_CF] = -tau - pi and E[d_EF] = tau - pi, so the
    # group contrast isolates the treatment effect and the sum isolates the
    # period effect
    treatment_t, treatment_p = _pooled_t(d_ef, d_cf)
    period_t, period_p = _pooled_t(d_cf, -d_ef)
    sequence_t, sequence_p = _pooled_t(s_cf, s_ef)
    return CrossoverEffectsReport(
        treatment_effect=float((np.mean(d_ef) - np.mean(d_cf)) / 2.0),
        treatment_t=treatment_t,
        treatment_p=treatment_p,
        period_effect=float(-(np.mean(d_cf) + np.mean(d_ef)) / 2.0),
        period_t=period_t,
        period_p=period_p,
        sequence_t=sequence_t,
        sequence_p=sequence_p,
        n_cf=int(d_cf.size),
        n_ef=int(d_ef.size),
    )
