"""Principal-stratum mean and probability estimators.

Two routes to stratum means: principal-score weighting, which reweights
arm-t outcomes by the cross-arm adherence probability g_{1-t}(X) and so
works on parallel-arm data, and direct stratification, which needs the
joint stratum observed and so requires crossover records. Stratum
probabilities come either from observed crossover proportions or from a
model-based reconstruction that takes the two potential adherences as
independent, conditionally on X or unconditionally.

Two tables hold the forms, in enum order, and every form has one calling
convention. ``_ROUTES`` holds one entry per ``PceMethod``, and
``_RECONSTRUCTIONS`` one per model-based ``ProbMethod``. An entry's full-data
form maps (cols, starts) to its values and the starts a resample's refits
take: (4, 2) arm means per joint stratum for a route, (4,) cell
probabilities for a reconstruction. Its chunk form maps (cols, (b, n)
counts, starts) to the values of each resample, (b, 4, 2) or (b, 4), and a
(b,) mask of the rows left to the full-data form. The starts are None on
the data, so each principal score is fit from zero there, and the
full-data fits' coefficients on every resample; a form that fits no model
passes them through.

Every estimate is computed on ``TrialColumns``; the functions that take
records or observations are adapters that validate and convert them. The
public functions choose the covariates once, with ``TrialColumns.select``,
so every form fits on all the covariates of the columns it is given. Both
forms of a route mark an empty stratum cell, one with no subjects or no
weight, with NaN; only the record adapters raise ``InestimableStratumError``.
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


def _scores(model: PrincipalScoreModel, x: np.ndarray) -> np.ndarray:
    """Unclipped scores for covariate rows x, columns in the model's order."""
    return predict_probs(model.fit, intercept_design(x))


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
    return _scores(model, as_columns(subjects).select(model.covariate_names).x)


def _extreme(g: np.ndarray) -> np.ndarray:
    return (g < EXTREME_SCORE_BAND[0]) | (g > EXTREME_SCORE_BAND[1])


def _warn_if_extreme(frac_extreme: float, stacklevel: int) -> None:
    if frac_extreme > 0.5:
        warnings.warn(
            f"{frac_extreme:.0%} of principal scores are outside [0.001, 0.999]; "
            "weights may be unstable",
            stacklevel=stacklevel,
        )


def _clip_scores(g: np.ndarray) -> np.ndarray:
    _warn_if_extreme(float(np.mean(_extreme(g))), stacklevel=4)
    return np.clip(g, SCORE_CLIP, 1.0 - SCORE_CLIP)


def estimate_mu_hayden(
    obs: Sequence[ParallelObservation],
    cross_model: PrincipalScoreModel,
    stratum: StratumLabel,
) -> float:
    """Principal-score-weighted stratum mean of one arm's outcomes.

    obs must be one arm's observations with a and y observed; cross_model
    must be fit on the opposite arm. For stratum (k, l), subjects with the
    own-arm adherence value are weighted by the cross-arm score raised to
    the stratum's other coordinate: g^c (1-g)^(1-c).
    """
    arm = _one_arm(obs, need_y=True)
    if cross_model.arm != 1 - arm:
        raise ValueError(f"cross_model is for arm {cross_model.arm}; need arm {1 - arm}")
    cols = as_columns(obs)
    g = _clip_scores(principal_scores(cross_model, cols))
    mu = _hayden_mean(cols.a[:, arm], cols.y[:, arm], g, stratum, arm)
    if np.isnan(mu):
        raise InestimableStratumError(
            f"no weight in stratum {stratum} for arm {arm}: no subjects with "
            f"a={stratum.a0 if arm == 0 else stratum.a1}"
        )
    return mu


def _hayden_mean(
    a: np.ndarray, y: np.ndarray, g: np.ndarray, stratum: StratumLabel, arm: int
) -> float:
    """Weighted mean of one arm's outcomes y, with _hayden_weights; NaN when
    no subject has the stratum's own-arm adherence, so the weight is zero."""
    w = _hayden_weights(a, g, stratum, arm)
    total = float(np.sum(w))
    if total <= 0.0:
        return float("nan")
    return float(np.sum(w * y) / total)


def _hayden_weights(
    a: np.ndarray, g: np.ndarray, stratum: StratumLabel, arm: int
) -> np.ndarray:
    """Weights 1{a = own coordinate} times g or 1-g, as the stratum's cross-arm
    coordinate is 1 or 0."""
    own_coord = stratum.a0 if arm == 0 else stratum.a1
    cross_coord = stratum.a1 if arm == 0 else stratum.a0
    return (a == own_coord) * (g if cross_coord == 1 else 1.0 - g)


def estimate_mu_direct(
    records: Sequence[SubjectRecord], stratum: StratumLabel, t: int
) -> float:
    """Plain mean of arm-t outcomes among subjects observed in the stratum."""
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
    return float(np.mean(cols.y[in_stratum, t]))


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


def _fit_both_arms(
    cols: TrialColumns, observed: np.ndarray, starts: Sequence[np.ndarray] | None
) -> tuple[PrincipalScoreModel, PrincipalScoreModel]:
    """Each arm's principal-score model, fit on its adherence-observed rows
    from that arm's start, or from zero without starts."""
    m0, m1 = (_fit_score(cols.x[rows], cols.a[rows, t], cols.covariate_names, t,
                         None if starts is None else starts[t])
              for t, rows in enumerate(observed.T))
    return m0, m1


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
    one arm's factor, so its additions run in another order than a one-row
    full-data sum's and its last bits may differ. No report prints a cell,
    only how many replicates exceed a gap.
    """
    w0, w1, u1 = counts * (1.0 - g0), counts * g0, 1.0 - g1
    return np.column_stack([np.einsum("ij,ij->i", w, q) for w in (w0, w1) for q in (u1, g1)])


def _cond_indep_cells(
    cols: TrialColumns, starts: Sequence[np.ndarray] | None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Joint-cell probabilities under independence given X, in JOINT_LABELS
    order, and the coefficients of the two principal-score models they
    average, each fit from its arm's start: from zero for an estimate, from
    the full-data fit for a resample's."""
    m0, m1 = _fit_both_arms(cols, _adherence_rows(cols), starts)
    # each cell is summed as one contiguous row, in the order of a 1-D mean
    cells = np.ascontiguousarray(_cell_table(_scores(m0, cols.x), _scores(m1, cols.x)).T)
    return cells.mean(axis=1), (m0.fit.coefficients, m1.fit.coefficients)


def _cond_indep_cells_counts(
    cols: TrialColumns, counts: np.ndarray, starts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``_cond_indep_cells`` of each resample in a chunk, given as (b, n)
    counts over subjects with adherence observed in both arms: (b, 4) cells
    and a (b,) mask of the rows whose two refits from starts did not
    converge cleanly (they carry no usable cells and are left to
    ``_cond_indep_cells``). On one all-ones row the cells agree with
    ``_cond_indep_cells`` to rounding, not bit for bit: the batched fits and
    the cell sums (``_cell_sums``) each add in another order. Both arms are
    fit on the same design rows and counts, so one call to
    ``fit_logistic_counts`` gates the rows for both."""
    design = intercept_design(cols.x)
    beta, ok = fit_logistic_counts(design, cols.a.T, counts, np.stack(starts))
    g0, g1 = (expit(coef @ design.T) for coef in beta)
    return _cell_sums(counts, g0, g1) / counts.shape[1], ~(ok[0] & ok[1])


def _indep_cells(cols: TrialColumns, starts: Sequence | None) -> tuple[np.ndarray, Sequence | None]:
    """Joint-cell probabilities under unconditional independence, in
    JOINT_LABELS order, from each arm's adherence rate over its observed
    rows; no model is fit, so covariates go unused and starts pass through."""
    p0, p1 = (np.mean(cols.a[rows, t]) for t, rows in enumerate(_adherence_rows(cols).T))
    return _cell_table(p0, p1), starts


def _indep_cells_counts(
    cols: TrialColumns, counts: np.ndarray, starts: Sequence | None
) -> tuple[np.ndarray, np.ndarray]:
    """``_indep_cells`` of each resample in a chunk, given as (b, n) counts
    over subjects with adherence observed in both arms: (b, 4) cells, and a
    (b,) mask that leaves no row to ``_indep_cells``. The rates are whole
    counts over n, so a row of ones gives ``_indep_cells``'s bits."""
    rates = counts @ cols.a / counts.shape[1]
    return _cell_table(*rates.T), np.zeros(counts.shape[0], dtype=bool)


# (full-data form, chunk form) of every model-based reconstruction, in enum order
_RECONSTRUCTIONS = {
    ProbMethod.COND_INDEP: (_cond_indep_cells, _cond_indep_cells_counts),
    ProbMethod.INDEP: (_indep_cells, _indep_cells_counts),
}


def _prob_vector(cols: TrialColumns, method: ProbMethod) -> np.ndarray:
    """Joint-cell probabilities in JOINT_LABELS order."""
    if method is ProbMethod.OBSERVED:
        return stratum_counts(cols) / len(cols)
    return _RECONSTRUCTIONS[method][0](cols, None)[0]


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


def _ps_cells(
    cols: TrialColumns, starts: Sequence[np.ndarray] | None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(4, 2) principal-score-weighted arm means per joint stratum, NaN rows
    inestimable, and the coefficients of both arms' scores, each fit from its
    arm's start: from zero for an estimate, from the full-data fit for a
    resample's.

    Each arm's outcomes are weighted by the other arm's score, computed once
    for that arm's complete rows (adherence and outcome observed).
    """
    observed = _adherence_rows(cols)
    models = _fit_both_arms(cols, observed, starts)
    mu = np.full((len(JOINT_LABELS), 2), np.nan)
    for t in (0, 1):
        use = observed[:, t] & ~np.isnan(cols.y[:, t])
        if not use.any():
            continue
        g = _clip_scores(_scores(models[1 - t], cols.x[use]))
        a, y = cols.a[use, t], cols.y[use, t]
        mu[:, t] = [_hayden_mean(a, y, g, stratum, t) for stratum in JOINT_LABELS]
    mu[np.isnan(mu).any(axis=1)] = np.nan  # a stratum needs both arms
    return mu, (models[0].fit.coefficients, models[1].fit.coefficients)


def _direct_cells(
    cols: TrialColumns, starts: Sequence | None
) -> tuple[np.ndarray, Sequence | None]:
    """(4, 2) arm means per joint stratum over full completers, NaN rows
    empty; no model is fit, so starts pass through."""
    if not cols.crossover:
        raise PcekitError("direct stratification needs crossover data")
    complete = completer_mask(cols, CompleterRule.BOTH)
    codes, y = stratum_codes(cols.a[complete]), cols.y[complete]
    mu = np.full((len(JOINT_LABELS), 2), np.nan)
    for i in range(len(JOINT_LABELS)):
        mask = codes == i
        if mask.any():
            mu[i] = np.mean(y[mask, 0]), np.mean(y[mask, 1])
    return mu, starts


def _ps_cells_counts(
    cols: TrialColumns, counts: np.ndarray, starts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``_ps_cells`` of each resample in a chunk, given as (b, n) counts.

    Both arms' scores are refit for all rows at once by
    ``fit_logistic_counts``, each from its arm's start: the full-data fit's
    coefficients, which the fallback ``_ps_cells`` starts from too. That is
    the IRLS loop ``fit_logistic`` runs, so each row takes the path of its
    one-at-a-time fit. The row gate's rank test is scale-free, so a
    covariate in large units does not leave rows to the fallback. The arms
    are fit on different rows when some adherence is missing, so each arm
    has its own gate. Returns
    the (b, 4, 2) means and a (b,) mask of the rows whose two fits did not
    converge cleanly: they carry no usable means and are left to
    ``_ps_cells``. The extreme-score warning is raised here for the other
    rows, once per arm and replicate, as ``_clip_scores`` would.

    Each arm's four strata come from one product: the count-weighted cross
    scores, c(1-g) and c g, times the (n', 4) table [1{a=0}, 1{a=0} y,
    1{a=1}, 1{a=1} y] of its complete rows. Stratum (own, cross) reads its
    weight total and weighted outcome sum from row block ``cross``,
    columns 2 own and 2 own + 1, as ``_hayden_weights`` picks g or 1-g.
    """
    observed = cols.a != A_MISSING
    design = intercept_design(cols.x)
    b = counts.shape[0]
    clean = np.ones(b, dtype=bool)
    beta = []
    for t in (0, 1):
        rows = observed[:, t]
        coef, ok = fit_logistic_counts(design[rows], cols.a[rows, t], counts[:, rows], starts[t])
        beta.append(coef)
        clean &= ok
    mu = np.empty((b, len(JOINT_LABELS), 2))
    share = np.empty((b, 2))
    codes = np.arange(len(JOINT_LABELS))
    with np.errstate(invalid="ignore", divide="ignore"):  # rows with no weight read NaN
        for t in (0, 1):
            use = observed[:, t] & ~np.isnan(cols.y[:, t])
            c = counts[:, use]
            g = expit(beta[1 - t] @ design[use].T)
            share[:, t] = (c * _extreme(g)).sum(axis=1) / c.sum(axis=1)
            np.clip(g, SCORE_CLIP, 1.0 - SCORE_CLIP, out=g)
            w = np.empty((2, b, c.shape[1]))  # by the cross-arm coordinate
            np.subtract(1.0, g, out=w[0])
            w[0] *= c
            np.multiply(c, g, out=w[1])
            onehot = np.eye(2)[cols.a[use, t]]  # 1{a=0}, 1{a=1}
            table = np.stack([onehot, onehot * cols.y[use, t, None]], axis=2).reshape(-1, 4)
            sums = (w.reshape(2 * b, -1) @ table).reshape(2, b, 4)
            # a stratum's code is 2 A(0) + A(1); arm t's own coordinate is A(t)
            own, cross = (codes >> 1, codes & 1) if t == 0 else (codes & 1, codes >> 1)
            total = sums[cross, :, 2 * own].T
            mu[:, :, t] = np.where(total > 0.0, sums[cross, :, 2 * own + 1].T / total, np.nan)
    mu[np.isnan(mu).any(axis=2)] = np.nan  # a stratum needs both arms
    for r, t in np.argwhere(clean[:, None] & (share > 0.5)).tolist():
        _warn_if_extreme(float(share[r, t]), stacklevel=3)
    return mu, ~clean


def _direct_cells_counts(
    cols: TrialColumns, counts: np.ndarray, starts: Sequence | None
) -> tuple[np.ndarray, np.ndarray]:
    """``_direct_cells`` of each resample in a chunk, given as (b, n) counts:
    (b, 4, 2) means, and a (b,) mask that leaves no row to ``_direct_cells``.
    No model is fit, so the starts go unused.

    One product gives every stratum's count and both arms' outcome sums:
    the counts of the full completers times their (n', 12) table
    [onehot, onehot y0, onehot y1] of one-hot stratum codes."""
    complete = completer_mask(cols, CompleterRule.BOTH)
    onehot = np.eye(len(JOINT_LABELS))[stratum_codes(cols.a[complete])]
    y = cols.y[complete]
    sums = counts[:, complete] @ np.hstack([onehot, onehot * y[:, :1], onehot * y[:, 1:]])
    # (b, 4, 3): each stratum's count, then its outcome sum in arm 0 and arm 1
    sums = sums.reshape(-1, 3, len(JOINT_LABELS)).transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):  # an empty stratum reads 0/0 = NaN
        mu = sums[:, :, 1:] / sums[:, :, :1]
    return mu, np.zeros(counts.shape[0], dtype=bool)


# (full-data form, chunk form) of every route, in the order routes run in
_ROUTES = {
    PceMethod.PS: (_ps_cells, _ps_cells_counts),
    PceMethod.DIRECT: (_direct_cells, _direct_cells_counts),
}


def _table_values(
    cols: TrialColumns, methods: Sequence[PceMethod], starts: Sequence[np.ndarray] | None
) -> tuple[np.ndarray, Sequence[np.ndarray] | None]:
    """All table cells in (method, stratum, quantity) order, NaN =
    inestimable, and the starts a resample's refits take. Routes run in
    table order, each from the starts the one before it returned."""
    cells = {}
    for m, (form, _) in _ROUTES.items():
        if m in methods:
            cells[m], starts = form(cols, starts)
    return _table_layout([cells[method] for method in methods]), starts


def _table_layout(cells: Sequence[np.ndarray]) -> np.ndarray:
    """(..., 4, 2) arm means per method, flattened along the last axis in
    (method, stratum, quantity) order, the quantities being arm0, arm1, diff."""
    parts = [np.concatenate([mu, mu[..., 1:] - mu[..., :1]], axis=-1) for mu in cells]
    return np.concatenate([p.reshape(*p.shape[:-2], -1) for p in parts], axis=-1)


def _table_chunk(
    cols: TrialColumns, methods: Sequence[PceMethod], idx: np.ndarray,
    starts: Sequence[np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``_table_values`` of a chunk of resamples, given as (b, n) index rows,
    each refit from starts, those ``_table_values`` returned on the data.

    Each resample is a row of multinomial counts over the subjects, so every
    mean is a count-weighted sum. Returns the (b, m) values and a (b,) mask
    of the rows left to ``_table_values``: those any requested route leaves
    to its full-data form. Routes run in table order.
    """
    counts = resample_counts(idx, len(cols))
    runs = {m: form(cols, counts, starts) for m, (_, form) in _ROUTES.items() if m in methods}
    retry = np.logical_or.reduce([left for _, left in runs.values()])
    return _table_layout([runs[method][0] for method in methods]), retry


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
