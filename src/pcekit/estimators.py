"""Principal-stratum mean and probability estimators.

Two routes to stratum means: principal-score weighting, which reweights
arm-t outcomes by the cross-arm adherence probability g_{1-t}(X) and so
works on parallel-arm data, and direct stratification, which needs the
joint stratum observed and so requires crossover records. Stratum
probabilities come either from observed crossover proportions or from a
model-based reconstruction that takes the two potential adherences as
independent, conditionally on X or unconditionally.

Two tables hold the forms, in enum order: ``_ROUTES`` one per
``PceMethod`` and ``_RECONSTRUCTIONS`` one per model-based ``ProbMethod``.
Each entry is one count-weighted form, (cols, (b, n) counts, arm scores)
-> the values of each count row: (b, 4, 2) arm means per joint stratum
for a route, (b, 4) cell probabilities for a reconstruction. A row of
counts says how often each subject occurs in a resample; the data is the
row of all ones. The scores, indexed by arm, are each arm's (b, n)
principal scores at every subject, and None for a form that fits no model
(outside ``_SCORED``).

Two drivers run the forms of both tables. ``_exact`` runs them on the data,
or on one resample's rows, as one all-ones row; its scores come from
``fit_logistic``, with its errors. ``_batched`` runs them on a chunk of
resamples' counts; its scores come from ``fit_logistic_counts``, and it
leaves to ``_exact`` the rows whose refits fail. Both fit from starts:
None on the data, so each principal score is fit from zero there, and the
data's fitted coefficients on every resample.

Every estimate is computed on ``TrialColumns``; the functions that take
records or observations are adapters that validate and convert them. The
public functions choose the covariates once, with ``TrialColumns.select``,
so every score is fit on all the covariates of the columns it is given.
Every form marks an empty stratum cell, one with no subjects or no weight,
with NaN; only the record adapters raise ``InestimableStratumError``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    A_MISSING,
    JOINT_LABELS,
    CompleterRule,
    Dataset,
    ParallelObservation,
    StratumLabel,
    SubjectRecord,
    TrialColumns,
    as_columns,
    check_integer,
    completer_mask,
    stratum_codes,
    stratum_counts,
)
from .errors import (
    ConvergenceError,
    InestimableStratumError,
    InsufficientDataError,
    MissingDataError,
    PcekitError,
)
from .glm import (
    DesignMatrix,
    LogisticFit,
    expit,
    fit_logistic,
    fit_logistic_counts,
    intercept_design,
    predict_probs,
)
from .resampling import BootstrapSpec, bootstrap_vector, resample_counts

SCORE_CLIP = 1e-12
EXTREME_SCORE_BAND = (1e-3, 1.0 - 1e-3)


class PceMethod(Enum):
    PS = "ps"
    DIRECT = "direct"


class ProbMethod(Enum):
    OBSERVED = "observed"
    COND_INDEP = "cond-indep"
    INDEP = "indep"


@dataclass(frozen=True)
class PrincipalScoreModel:
    """Logistic model for Pr(A(arm)=1 | X); construction rejects failed fits."""

    arm: int
    fit: LogisticFit
    covariate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        check_integer("arm", self.arm, 0, 2)
        if not self.fit.converged:
            detail = "separation detected" if self.fit.diverged else "iteration cap reached"
            raise ConvergenceError(f"principal-score fit for arm {self.arm} did not converge ({detail})")


def _fit_score(
    x: np.ndarray, a: np.ndarray, names: tuple[str, ...], arm: int, start: np.ndarray | None = None
) -> PrincipalScoreModel:
    """Fit Pr(A(arm)=1 | X) on covariate rows x and their observed 0/1 adherence a,
    from start, or from fit_logistic's zero start without one."""
    design = DesignMatrix(("intercept", *names), intercept_design(x))
    fit = fit_logistic(design, a.astype(float), start=start)
    return PrincipalScoreModel(arm=arm, fit=fit, covariate_names=names)


def _one_arm(obs: Sequence[ParallelObservation], need_y: bool) -> int:
    """The arm all of obs come from; each needs its adherence, and with need_y its outcome."""
    if not obs:
        raise InsufficientDataError("no observations")
    arm = obs[0].t
    for o in obs:
        if o.t != arm:
            raise ValueError("observations must all come from one arm")
        if o.a is None or (need_y and o.y is None):
            what = "adherence" if o.a is None else "outcome"
            raise MissingDataError(f"subject {o.subject_id!r} missing {what}; "
                                   "filter to the arm's completers first")
    return arm


def fit_principal_score(
    obs: Sequence[ParallelObservation], covariates: Sequence[str] | None = None
) -> PrincipalScoreModel:
    """Fit Pr(A(t)=1 | X) on one arm's observations (adherence must be observed)."""
    arm = _one_arm(obs, need_y=False)
    cols = as_columns(obs).select(covariates)
    return _fit_score(cols.x, cols.a[:, arm], cols.covariate_names, arm)


def principal_scores(model: PrincipalScoreModel, subjects: Dataset) -> np.ndarray:
    """Predicted adherence probabilities for subjects' covariates, unclipped."""
    x = as_columns(subjects).select(model.covariate_names).x
    return predict_probs(model.fit, intercept_design(x))


def _extreme(g: np.ndarray) -> np.ndarray:
    return (g < EXTREME_SCORE_BAND[0]) | (g > EXTREME_SCORE_BAND[1])


def _warn_if_extreme(frac_extreme: float, stacklevel: int) -> None:
    if frac_extreme > 0.5:
        warnings.warn(
            f"{frac_extreme:.0%} of principal scores are outside [0.001, 0.999]; "
            "weights may be unstable",
            stacklevel=stacklevel,
        )


def estimate_mu_hayden(
    obs: Sequence[ParallelObservation],
    cross_model: PrincipalScoreModel,
    stratum: StratumLabel,
) -> float:
    """Principal-score-weighted stratum mean of one arm's outcomes.

    obs must be one arm's observations with a and y observed; cross_model
    must be fit on the opposite arm. For stratum (k, l), subjects with the
    own-arm adherence value are weighted by the cross-arm score raised to
    the stratum's other coordinate: g^c (1-g)^(1-c). This is the ``ps``
    route's form on one all-ones row, given the model's scores.
    """
    arm = _one_arm(obs, need_y=True)
    if cross_model.arm != 1 - arm:
        raise ValueError(f"cross_model is for arm {cross_model.arm}; need arm {1 - arm}")
    cols = as_columns(obs)
    # obs hold one arm, so the score that would weight the other arm goes unread
    scores = np.zeros((2, 1, len(cols)))
    scores[1 - arm] = principal_scores(cross_model, cols)
    means = _ps_means(cols, np.ones((1, len(cols))), scores)[0]
    mu = float(means[JOINT_LABELS.index(stratum), arm])
    if np.isnan(mu):
        raise InestimableStratumError(
            f"no weight in stratum {stratum} for arm {arm}: no subjects with "
            f"a={stratum.a0 if arm == 0 else stratum.a1}"
        )
    return mu


def estimate_mu_direct(
    records: Sequence[SubjectRecord], stratum: StratumLabel, t: int
) -> float:
    """Plain mean of arm-t outcomes over every member of the stratum.

    Every record needs both adherences and every member an arm-t outcome,
    else ``MissingDataError``; a member may lack its other-arm outcome. So
    this is not the ``direct`` route of ``estimate_pce_table``, which
    averages over full completers only: on data with missing outcomes the
    two differ. The mean is ``_stratum_means`` on one all-ones row over the
    records with an arm-t outcome."""
    check_integer("t", t, 0, 2)
    records = list(records)
    if not records:
        raise InestimableStratumError(f"no subjects observed in stratum {stratum}")
    cols = as_columns(records)
    missing_a = np.flatnonzero(~completer_mask(cols, CompleterRule.STRATUM_VAR))
    if missing_a.size:
        raise MissingDataError(
            f"subject {records[missing_a[0]].subject_id!r} missing adherence; "
            "filter to completers first"
        )
    in_stratum = stratum_codes(cols.a) == JOINT_LABELS.index(stratum)
    missing_y = np.flatnonzero(in_stratum & np.isnan(cols.y[:, t]))
    if missing_y.size:
        raise MissingDataError(
            f"subject {records[missing_y[0]].subject_id!r} missing arm-{t} outcome; "
            "filter to completers first"
        )
    if not in_stratum.any():
        raise InestimableStratumError(f"no subjects observed in stratum {stratum}")
    has_y = ~np.isnan(cols.y[:, t])
    mu = _stratum_means(np.ones((1, int(has_y.sum()))), cols.a[has_y], cols.y[has_y, t, None])
    return float(mu[0, JOINT_LABELS.index(stratum), 0])


@dataclass(frozen=True)
class StratumProbEstimate:
    method: ProbMethod
    probs: dict[StratumLabel, float]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", ProbMethod(self.method))
        if set(self.probs) != set(JOINT_LABELS):
            raise ValueError("probs must cover exactly the four joint strata")
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"stratum probabilities sum to {total!r}, not 1")


def _adherence_rows(cols: TrialColumns) -> np.ndarray:
    """(n, 2) mask of observed adherence; both arms need at least one row."""
    observed = cols.a != A_MISSING
    if not observed.any(axis=0).all():
        raise InsufficientDataError("need adherence observations in both arms")
    return observed


def _cell_table(g0: np.ndarray | float, g1: np.ndarray | float) -> np.ndarray:
    """Stratum probabilities g0^k (1-g0)^(1-k) g1^l (1-g1)^(1-l), in
    JOINT_LABELS order along a new last axis, from arm adherence probabilities
    that are taken as independent."""
    return np.stack([(1.0 - g0) * (1.0 - g1), (1.0 - g0) * g1, g0 * (1.0 - g1), g0 * g1], axis=-1)


def _cell_sums(counts: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """(b, 4) count-weighted sums over the n subjects of each resample's
    stratum probabilities under independence, in JOINT_LABELS order, from
    (b, n) counts and arm adherence probabilities.

    Each cell is a dot product along a contiguous row of the counts times
    one arm's factor, so its additions run in another order than a plain
    sum's and its last bits may differ.
    """
    w0, w1, u1 = counts * (1.0 - g0), counts * g0, 1.0 - g1
    return np.column_stack([np.einsum("ij,ij->i", w, q) for w in (w0, w1) for q in (u1, g1)])


def _cond_indep_probs(
    cols: TrialColumns, counts: np.ndarray, scores: Sequence[np.ndarray]
) -> np.ndarray:
    """(b, 4) joint-cell probabilities under independence given X, in
    JOINT_LABELS order: each count row's average over the n subjects of the
    cell probabilities that the two arms' scores give, every subject
    counted, whichever adherence it has observed."""
    return _cell_sums(counts, *scores) / counts.shape[1]


def _indep_probs(
    cols: TrialColumns, counts: np.ndarray, scores: Sequence[np.ndarray] | None
) -> np.ndarray:
    """(b, 4) joint-cell probabilities under unconditional independence, in
    JOINT_LABELS order, from each arm's count-weighted adherence rate over
    its observed rows. No model is fit, so covariates and scores go unused.
    Each rate is a sum of whole counts over another, so a row of ones gives
    the plain mean's bits."""
    observed = _adherence_rows(cols)
    rates = counts @ np.where(observed, cols.a, 0) / (counts @ observed)
    return _cell_table(*rates.T)


# the count-weighted form of every model-based reconstruction, in enum order
_RECONSTRUCTIONS = {
    ProbMethod.COND_INDEP: _cond_indep_probs,
    ProbMethod.INDEP: _indep_probs,
}
# the entries whose forms weight by the arms' principal scores; for the
# others the drivers fit no model
_SCORED = frozenset({PceMethod.PS, ProbMethod.COND_INDEP})


def _arm_scores(cols: TrialColumns, beta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each arm's (b, n) adherence probabilities at every subject, from
    (2, b, q) principal-score coefficients."""
    design = intercept_design(cols.x)
    return tuple(expit(coef @ design.T) for coef in beta)


def _fit_arms_counts(
    cols: TrialColumns, counts: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both arms' principal scores refit on each (b, n) count row by
    ``fit_logistic_counts``, each from its arm's start: (2, b, q)
    coefficients and a (b,) mask of the rows whose two fits converged
    cleanly. When every subject has both adherences, one call fits the two
    responses, so the row gate's rank test runs once, and each arm's fits
    are those it would get alone, bit for bit. Otherwise each arm is fit on
    its own observed rows."""
    design = intercept_design(cols.x)
    observed = cols.a != A_MISSING
    if observed.all():
        beta, ok = fit_logistic_counts(design, cols.a.T, counts, starts)
    else:
        fits = [fit_logistic_counts(design[rows], cols.a[rows, t], counts[:, rows], starts[t])
                for t, rows in enumerate(observed.T)]
        beta, ok = (np.stack(parts) for parts in zip(*fits))
    return beta, ok[0] & ok[1]


def _exact(
    cols: TrialColumns, table: dict, keys: Sequence, starts: np.ndarray | None
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The forms of ``table`` named by keys on cols as one all-ones count
    row, run in table order and returned in the order of keys, and the
    starts a resample's evaluation takes.

    If a form weights by principal scores, both arms are first fit by
    ``fit_logistic`` on their observed rows (``_fit_score``), each from its
    arm's start, or from zero when starts is None; a failed fit raises its
    error. Their (2, q) coefficients are then the starts returned. Otherwise
    no model is fit and the starts pass through.
    """
    scores = None
    if _SCORED.intersection(keys):
        observed = _adherence_rows(cols)
        starts = np.stack([
            _fit_score(cols.x[rows], cols.a[rows, t], cols.covariate_names, t,
                       None if starts is None else starts[t]).fit.coefficients
            for t, rows in enumerate(observed.T)
        ])
        scores = _arm_scores(cols, starts[:, None])
    ones = np.ones((1, len(cols)))
    values = {key: form(cols, ones, scores)[0] for key, form in table.items() if key in keys}
    return [values[key] for key in keys], starts


def _batched(
    cols: TrialColumns, table: dict, keys: Sequence, counts: np.ndarray, starts: np.ndarray | None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The forms of ``table`` named by keys on each (b, n) count row of a
    chunk of resamples, run in table order and returned in the order of
    keys, and a (b,) mask of the rows left to ``_exact``, which read NaN.

    If a form weights by principal scores, both arms are refit on every row
    from the starts ``_exact`` returned on the data (``_fit_arms_counts``),
    and the rows whose fits do not converge cleanly are left: the forms run
    on the others only.
    """
    left = np.zeros(counts.shape[0], dtype=bool)
    scores = None
    if _SCORED.intersection(keys):
        beta, ok = _fit_arms_counts(cols, counts, starts)
        left = ~ok
        if left.any():
            counts, beta = counts[ok], beta[:, ok]
        scores = _arm_scores(cols, beta)
    values = {key: form(cols, counts, scores) for key, form in table.items() if key in keys}
    if left.any():  # each form's rows back in place, NaN on the rows left
        for key, part in values.items():
            values[key] = np.full((left.size, *part.shape[1:]), np.nan)
            values[key][~left] = part
    return [values[key] for key in keys], left


def _prob_vector(cols: TrialColumns, method: ProbMethod) -> np.ndarray:
    """Joint-cell probabilities in JOINT_LABELS order."""
    if method is ProbMethod.OBSERVED:
        return stratum_counts(cols) / len(cols)
    return _exact(cols, _RECONSTRUCTIONS, [method], None)[0][0]


def estimate_stratum_probs(
    data: Dataset, method: ProbMethod | str, covariates: Sequence[str] | None = None
) -> StratumProbEstimate:
    """Joint stratum probabilities by the requested method, by value
    ("indep") or member.

    Observed proportions need crossover completers (adherence in both
    periods); the model-based methods work on either data shape. The
    covariate names are checked whether or not the method uses them.
    """
    method = ProbMethod(method)
    cols = as_columns(data).select(covariates)
    probs = dict(zip(JOINT_LABELS, _prob_vector(cols, method).tolist()))
    return StratumProbEstimate(method=method, probs=probs, n=len(cols))


QUANTITIES = ("arm0", "arm1", "diff")


class EstimateSummary(NamedTuple):
    stratum: StratumLabel
    quantity: str  # arm0 | arm1 | diff
    method: PceMethod
    point: float  # NaN when inestimable (see note)
    se: float | None = None
    ci: tuple[float, float] | None = None
    n_effective: int | None = None
    note: str | None = None


def _ps_means(cols: TrialColumns, counts: np.ndarray, scores: Sequence[np.ndarray]) -> np.ndarray:
    """(b, 4, 2) principal-score-weighted arm means per joint stratum of each
    (b, n) count row, NaN where an arm has no weight in a stratum.

    Arm t's complete rows (adherence and outcome observed) are weighted by
    the other arm's (b, n) scores, clipped to [SCORE_CLIP, 1 - SCORE_CLIP].
    The extreme-score warning is raised once per arm and row whose
    count-weighted share of scores outside the band passes one half; the
    share is counted only when some score of the arm lies outside it.

    Each arm's four strata come from one product: the count-weighted cross
    scores, c(1-g) and c g, times the (n', 4) table [1{a=0}, 1{a=0} y,
    1{a=1}, 1{a=1} y] of its complete rows. Stratum (own, cross) reads its
    weight total and weighted outcome sum from row block ``cross``, columns
    2 own and 2 own + 1: a subject with the own-arm adherence is weighted by
    g or 1 - g as the stratum's cross-arm coordinate is 1 or 0.
    """
    b = counts.shape[0]
    mu = np.empty((b, len(JOINT_LABELS), 2))
    share = np.empty((b, 2))
    codes = np.arange(len(JOINT_LABELS))
    with np.errstate(invalid="ignore", divide="ignore"):  # rows with no weight read NaN
        for t in (0, 1):
            use = (cols.a[:, t] != A_MISSING) & ~np.isnan(cols.y[:, t])
            c, g = counts[:, use], scores[1 - t][:, use]
            lo, hi = EXTREME_SCORE_BAND  # a NaN score is not banded: it is counted
            banded = lo <= g.min(initial=lo) and g.max(initial=hi) <= hi
            share[:, t] = 0.0 if banded else (c * _extreme(g)).sum(axis=1) / c.sum(axis=1)
            np.clip(g, SCORE_CLIP, 1.0 - SCORE_CLIP, out=g)
            w = np.empty((2, b, c.shape[1]))  # by the cross-arm coordinate
            np.subtract(1.0, g, out=w[0])
            w[0] *= c
            np.multiply(c, g, out=w[1])
            onehot = np.eye(2)[cols.a[use, t]]  # 1{a=0}, 1{a=1}
            table = np.stack([onehot, onehot * cols.y[use, t, None]], axis=2).reshape(-1, 4)
            sums = (w.reshape(2 * b, c.shape[1]) @ table).reshape(2, b, 4)
            # a stratum's code is 2 A(0) + A(1); arm t's own coordinate is A(t)
            own, cross = (codes >> 1, codes & 1) if t == 0 else (codes & 1, codes >> 1)
            total = sums[cross, :, 2 * own].T
            mu[:, :, t] = np.where(total > 0.0, sums[cross, :, 2 * own + 1].T / total, np.nan)
    for r, t in np.argwhere(share > 0.5).tolist():
        _warn_if_extreme(float(share[r, t]), stacklevel=4)
    return mu


def _stratum_means(counts: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(b, 4, k) count-weighted means of the k outcome columns y per joint
    stratum of the (n, 2) adherence a, NaN where a stratum has no count.
    One product gives every stratum's count and outcome sums: the counts
    times the (n, 4 (k + 1)) table [onehot, onehot y_1, ...] of one-hot
    stratum codes."""
    onehot = np.eye(len(JOINT_LABELS))[stratum_codes(a)]
    sums = counts @ np.hstack([onehot, *(onehot * col[:, None] for col in y.T)])
    # (b, 4, k + 1): each stratum's count, then its outcome sums
    sums = sums.reshape(counts.shape[0], y.shape[1] + 1, len(JOINT_LABELS)).transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):  # an empty stratum reads 0/0 = NaN
        return sums[:, :, 1:] / sums[:, :, :1]


def _direct_means(
    cols: TrialColumns, counts: np.ndarray, scores: Sequence[np.ndarray] | None
) -> np.ndarray:
    """(b, 4, 2) arm means per joint stratum over the full completers of each
    (b, n) count row, NaN where a stratum is empty. No model is fit, so the
    scores go unused."""
    if not cols.crossover:
        raise PcekitError("direct stratification needs crossover data")
    complete = completer_mask(cols, CompleterRule.BOTH)
    return _stratum_means(counts[:, complete], cols.a[complete], cols.y[complete])


# the count-weighted form of every route, in the order routes run in
_ROUTES = {
    PceMethod.PS: _ps_means,
    PceMethod.DIRECT: _direct_means,
}


def _table_values(
    cols: TrialColumns, methods: Sequence[PceMethod], starts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """All table cells in (method, stratum, quantity) order, NaN =
    inestimable, and the starts a resample's refits take: the routes'
    forms on cols as one all-ones row (``_exact``)."""
    means, starts = _exact(cols, _ROUTES, methods, starts)
    return _table_layout(means), starts


def _table_layout(cells: Sequence[np.ndarray]) -> np.ndarray:
    """(..., 4, 2) arm means per method, flattened along the last axis in
    (method, stratum, quantity) order, the quantities being arm0, arm1, diff.
    A stratum needs both arms: one arm's NaN makes all three cells NaN."""
    parts = []
    for mu in cells:
        diff = mu[..., 1:] - mu[..., :1]
        parts.append(np.concatenate([np.where(np.isnan(diff), np.nan, mu), diff], axis=-1))
    return np.concatenate([p.reshape(*p.shape[:-2], -1) for p in parts], axis=-1)


def _table_chunk(
    cols: TrialColumns, methods: Sequence[PceMethod], idx: np.ndarray, starts: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_table_values`` of a chunk of resamples, given as (b, n) index rows,
    each refit from starts, those ``_table_values`` returned on the data.

    Each resample is a row of multinomial counts over the subjects, so every
    mean is a count-weighted sum (``_batched``). Returns the (b, m) values
    and a (b,) mask of the rows left to ``_table_values``.
    """
    means, left = _batched(cols, _ROUTES, methods, resample_counts(idx, len(cols)), starts)
    return _table_layout(means), left


def estimate_pce_table(
    data: Dataset,
    methods: Sequence[PceMethod | str] = tuple(PceMethod),
    covariates: Sequence[str] | None = None,
    bootstrap_spec: BootstrapSpec | None = None,
) -> list[EstimateSummary]:
    """Per-stratum arm means and treatment contrasts by the requested methods.

    methods (default: every route): one or several, by value ("ps") or member.
    Crossover records support both methods; parallel observations support
    only principal-score weighting. Bootstrap resampling is at the subject
    level and refits all models inside each replicate, each from the
    coefficients of the full-data fit behind the points, whether the
    replicate is refit in a batch or alone. Cells inestimable on the full
    data carry NaN points and a note instead of failing the table. The
    covariate names are checked whether or not a route uses them.
    """
    cols = as_columns(data).select(covariates)
    # one method, not a collection of them; PceMethod refuses a value it does not name
    lone = isinstance(methods, (str, bytes, PceMethod)) or not isinstance(methods, Iterable)
    methods = list(dict.fromkeys(map(PceMethod, [methods] if lone else methods)))
    if not methods:
        raise ValueError("at least one method required")
    boot = None
    if bootstrap_spec is None:
        points = _table_values(cols, methods, None)[0]
    else:
        # the bootstrap's own point is the full-data table, whose fits every
        # replicate's refits start from; replicates are evaluated a chunk at
        # a time, with _table_values for rows left over
        boot = bootstrap_vector(
            cols,
            lambda sample, starts: _table_values(sample, methods, starts),
            bootstrap_spec,
            lambda idx, starts: _table_chunk(cols, methods, idx, starts),
        )
        points = boot.points

    rows: list[EstimateSummary] = []
    # the (method, stratum, quantity) order _table_layout flattens to
    for i, (method, stratum, quantity) in enumerate(
        itertools.product(methods, JOINT_LABELS, QUANTITIES)
    ):
        point = float(points[i])
        inest = np.isnan(point)
        note = "inestimable on this data" if inest else None
        se = ci = n_eff = None
        if boot is not None and not inest:
            se = float(boot.se[i])
            ci = (float(boot.ci[i, 0]), float(boot.ci[i, 1]))
            n_eff = int(boot.n_effective[i])
        rows.append(EstimateSummary(stratum=stratum, quantity=quantity, method=method,
                                    point=point, se=se, ci=ci, n_effective=n_eff, note=note))
    return rows
