"""Principal-stratum mean and probability estimators.

Two routes to stratum means: principal-score weighting, which reweights
arm-t outcomes by the cross-arm adherence probability g_{1-t}(X) and so
works on parallel-arm data, and direct stratification, which needs the
joint stratum observed and so requires crossover records. ``_ROUTES``
holds one entry per ``PceMethod``, in enum order: the route's full-data
form, (cols, covariates) -> (4, 2) arm means per joint stratum, and its
chunk form, (cols, covariates, (b, n) counts) -> the (b, 4, 2) means of
each resample and a (b,) mask of the rows left to the full-data form. Stratum
probabilities come either from observed crossover proportions or from a
model-based reconstruction that takes the two potential adherences as
independent, conditionally on X or unconditionally. ``_RECONSTRUCTIONS``
holds one entry per model-based ``ProbMethod``, in enum order: its full-data
form, (cols, covariates, starts) -> the (4,) cell probabilities and the starts
a resample's refit takes, and its chunk form, (x, a, (b, n) counts, starts) ->
the (b, 4) cells of each resample and a (b,) mask of the rows left to the
full-data form.

Every estimate is computed on ``TrialColumns``; the functions that take
records or observations are adapters that validate and convert them. Both
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
        if self.arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {self.arm!r}")
        if not self.fit.converged:
            detail = "separation detected" if self.fit.diverged else "iteration cap reached"
            raise ConvergenceError(f"principal-score fit for arm {self.arm} did not converge ({detail})")


def _covariate_index(available: tuple[str, ...], names: Sequence[str]) -> list[int]:
    """Positions in available of the named covariates; a repeated or unknown name fails."""
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise PcekitError(f"covariate {name!r} is listed more than once in {names!r}")
    try:
        return [available.index(n) for n in names]
    except ValueError as exc:
        raise PcekitError(f"unknown covariate among {names!r}; have {available!r}") from exc


def _selected_covariates(
    cols: TrialColumns, covariates: Sequence[str] | None
) -> tuple[tuple[str, ...], np.ndarray]:
    """Names and (n, len(names)) values of the covariates a model uses
    (default: all); names given as one string or not as a collection fail."""
    if covariates is None:
        return cols.covariate_names, cols.x
    if isinstance(covariates, (str, bytes)) or not isinstance(covariates, Iterable):
        raise PcekitError(f"covariates must be a collection of names, not {covariates!r}")
    return tuple(covariates), cols.x[:, _covariate_index(cols.covariate_names, covariates)]


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


def fit_principal_score(
    obs: Sequence[ParallelObservation], covariates: Sequence[str] | None = None
) -> PrincipalScoreModel:
    """Fit Pr(A(t)=1 | X) on one arm's observations (adherence must be observed)."""
    if not obs:
        raise InsufficientDataError("no observations to fit a principal score on")
    arm = obs[0].t
    for o in obs:
        if o.t != arm:
            raise ValueError("principal-score observations must all come from one arm")
        if o.a is None:
            raise MissingDataError(
                f"subject {o.subject_id!r} has missing adherence; drop a-missing rows first"
            )
    cols = as_columns(obs)
    names, x = _selected_covariates(cols, covariates)
    return _fit_score(x, cols.a[:, arm], names, arm)


def principal_scores(model: PrincipalScoreModel, subjects: Dataset) -> np.ndarray:
    """Predicted adherence probabilities for subjects' covariates, unclipped."""
    _, x = _selected_covariates(as_columns(subjects), model.covariate_names)
    return _scores(model, x)


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
    if not obs:
        raise InsufficientDataError("no observations")
    arm = obs[0].t
    for o in obs:
        if o.t != arm:
            raise ValueError("observations must all come from one arm")
        if o.a is None or o.y is None:
            raise MissingDataError(
                f"subject {o.subject_id!r} missing a or y; filter to arm completers first"
            )
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
    coordinate is 1 or 0; g may carry leading axes over a's."""
    own_coord = stratum.a0 if arm == 0 else stratum.a1
    cross_coord = stratum.a1 if arm == 0 else stratum.a0
    return (a == own_coord) * (g if cross_coord == 1 else 1.0 - g)


def estimate_mu_direct(
    records: Sequence[SubjectRecord], stratum: StratumLabel, t: int
) -> float:
    """Plain mean of arm-t outcomes among subjects observed in the stratum."""
    if t not in (0, 1):
        raise ValueError(f"treatment arm must be 0 or 1, got {t!r}")
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
    cols: TrialColumns, observed: np.ndarray, covariates: Sequence[str] | None,
    starts: Sequence[np.ndarray | None] = (None, None),
) -> tuple[tuple[PrincipalScoreModel, PrincipalScoreModel], np.ndarray]:
    """Each arm's principal-score model, fit on its adherence-observed rows
    from that arm's start, and the covariate values the models use."""
    names, x = _selected_covariates(cols, covariates)
    m0, m1 = (_fit_score(x[rows], cols.a[rows, t], names, t, starts[t])
              for t, rows in enumerate(observed.T))
    return (m0, m1), x


def _cell_table(g0: np.ndarray | float, g1: np.ndarray | float) -> np.ndarray:
    """Stratum probabilities g0^k (1-g0)^(1-k) g1^l (1-g1)^(1-l), in
    JOINT_LABELS order along a new last axis, from arm adherence probabilities
    that are taken as independent."""
    return np.stack([(1.0 - g0) * (1.0 - g1), (1.0 - g0) * g1, g0 * (1.0 - g1), g0 * g1], axis=-1)


def _cell_sums(counts: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """(b, 4) count-weighted sums over the n subjects of each resample's
    stratum probabilities under independence, in JOINT_LABELS order, from
    (b, n) counts and arm adherence probabilities.

    Each cell's products are formed as ``_cell_table`` forms them and laid
    out subject-major, (n, 4, b), so the sum runs down the outer axis and
    adds the subjects one after another, exactly as a sum over the middle
    axis of the (b, n, 4) product table does: the same bits, one resample
    included. Summing along a contiguous axis instead adds pairwise and
    moves the last bits.
    """
    c, h0, h1 = counts.T, g0.T, g1.T
    u0, u1 = 1.0 - h0, 1.0 - h1
    n, b = c.shape
    terms = np.empty((n, len(JOINT_LABELS), b))
    for k, (p, q) in enumerate(((u0, u1), (u0, h1), (h0, u1), (h0, h1))):
        # c * (p * q), with no temporary: a product's bits do not depend on its order
        np.multiply(p, q, out=terms[:, k])
        terms[:, k] *= c
    return np.ascontiguousarray(np.add.reduce(terms, axis=0).T)


def _cond_indep_cells(
    cols: TrialColumns, covariates: Sequence[str] | None, starts: Sequence[np.ndarray | None]
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Joint-cell probabilities under independence given X, in JOINT_LABELS
    order, and the coefficients of the two principal-score models they
    average, each fit from its arm's start: None for an estimate, the
    full-data fit for a resample's."""
    (m0, m1), x = _fit_both_arms(cols, _adherence_rows(cols), covariates, starts)
    # each cell is summed as one contiguous row, in the order of a 1-D mean
    cells = np.ascontiguousarray(_cell_table(_scores(m0, x), _scores(m1, x)).T).mean(axis=1)
    return cells, (m0.fit.coefficients, m1.fit.coefficients)


def _cond_indep_cells_counts(
    x: np.ndarray, a: np.ndarray, counts: np.ndarray, starts: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``_cond_indep_cells`` of each resample in a chunk, given as (b, n)
    counts over subjects with covariate values x and adherence a observed in
    both arms: (b, 4) cells and a (b,) mask of the rows whose two refits from
    starts did not converge cleanly (they carry no usable cells and are left
    to ``_cond_indep_cells``)."""
    design = intercept_design(x)
    beta0, ok0 = fit_logistic_counts(design, a[:, 0], counts, starts[0])
    beta1, ok1 = fit_logistic_counts(design, a[:, 1], counts, starts[1])
    g0, g1 = expit(beta0 @ design.T), expit(beta1 @ design.T)
    return _cell_sums(counts, g0, g1) / counts.shape[1], ~(ok0 & ok1)


def _indep_cells(
    cols: TrialColumns, covariates: Sequence[str] | None, starts: Sequence
) -> tuple[np.ndarray, Sequence]:
    """Joint-cell probabilities under unconditional independence, in
    JOINT_LABELS order, from each arm's adherence rate over its observed
    rows; no model is fit, so covariates go unused and starts pass through."""
    p0, p1 = (np.mean(cols.a[rows, t]) for t, rows in enumerate(_adherence_rows(cols).T))
    return _cell_table(p0, p1), starts


def _indep_cells_counts(
    x: np.ndarray, a: np.ndarray, counts: np.ndarray, starts: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    """``_indep_cells`` of each resample in a chunk, given as (b, n) counts
    over subjects with adherence a observed in both arms: (b, 4) cells, and a
    (b,) mask that leaves no row to ``_indep_cells``. The rates are whole
    counts over n, so a row of ones gives ``_indep_cells``'s bits."""
    return _cell_table(*(counts @ a / counts.shape[1]).T), np.zeros(counts.shape[0], dtype=bool)


# (full-data form, chunk form) of every model-based reconstruction, in enum order
_RECONSTRUCTIONS = {
    ProbMethod.COND_INDEP: (_cond_indep_cells, _cond_indep_cells_counts),
    ProbMethod.INDEP: (_indep_cells, _indep_cells_counts),
}


def _prob_vector(
    data: Dataset, method: ProbMethod, covariates: Sequence[str] | None
) -> np.ndarray:
    """Joint-cell probabilities in JOINT_LABELS order."""
    cols = as_columns(data)
    if method is ProbMethod.OBSERVED:
        return stratum_counts(cols) / len(cols)
    return _RECONSTRUCTIONS[method][0](cols, covariates, (None, None))[0]


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
    cols = as_columns(data)
    _selected_covariates(cols, covariates)
    probs = dict(zip(JOINT_LABELS, _prob_vector(cols, method, covariates).tolist()))
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


def _ps_cells(cols: TrialColumns, covariates: Sequence[str] | None) -> np.ndarray:
    """(4, 2) principal-score-weighted arm means per joint stratum; NaN rows inestimable.

    Each arm's outcomes are weighted by the other arm's score, computed once
    for that arm's complete rows (adherence and outcome observed).
    """
    observed = _adherence_rows(cols)
    models, x = _fit_both_arms(cols, observed, covariates)
    mu = np.full((len(JOINT_LABELS), 2), np.nan)
    for t in (0, 1):
        use = observed[:, t] & ~np.isnan(cols.y[:, t])
        if not use.any():
            continue
        g = _clip_scores(_scores(models[1 - t], x[use]))
        a, y = cols.a[use, t], cols.y[use, t]
        mu[:, t] = [_hayden_mean(a, y, g, stratum, t) for stratum in JOINT_LABELS]
    mu[np.isnan(mu).any(axis=1)] = np.nan  # a stratum needs both arms
    return mu


def _direct_cells(cols: TrialColumns, covariates: Sequence[str] | None) -> np.ndarray:
    """(4, 2) arm means per joint stratum over full completers; NaN rows empty."""
    if not cols.crossover:
        raise PcekitError("direct stratification needs crossover data")
    complete = completer_mask(cols, CompleterRule.BOTH)
    codes, y = stratum_codes(cols.a[complete]), cols.y[complete]
    mu = np.full((len(JOINT_LABELS), 2), np.nan)
    for i in range(len(JOINT_LABELS)):
        mask = codes == i
        if mask.any():
            mu[i] = np.mean(y[mask, 0]), np.mean(y[mask, 1])
    return mu


def _ps_cells_counts(
    cols: TrialColumns, covariates: Sequence[str] | None, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_ps_cells`` of each resample in a chunk, given as (b, n) counts.

    Both arms' scores are refit for all rows at once by
    ``fit_logistic_counts`` from fit_logistic's own zero start, so each row
    takes the IRLS path of its one-at-a-time fit. Returns the (b, 4, 2) means
    and a (b,) mask of the rows whose two fits did not converge cleanly: they
    carry no usable means and are left to ``_ps_cells``. The extreme-score
    warning is raised here for the other rows, once per arm and replicate, as
    ``_clip_scores`` would.
    """
    observed = cols.a != A_MISSING
    _, x = _selected_covariates(cols, covariates)
    design = intercept_design(x)
    b = counts.shape[0]
    clean = np.ones(b, dtype=bool)
    beta = []
    for t in (0, 1):
        rows = observed[:, t]
        coef, ok = fit_logistic_counts(
            design[rows], cols.a[rows, t], counts[:, rows], start=np.zeros(design.shape[1])
        )
        beta.append(coef)
        clean &= ok
    mu = np.empty((b, len(JOINT_LABELS), 2))
    share = np.empty((b, 2))
    with np.errstate(invalid="ignore", divide="ignore"):  # rows with no weight read NaN
        for t in (0, 1):
            use = observed[:, t] & ~np.isnan(cols.y[:, t])
            c = counts[:, use]
            g = expit(beta[1 - t] @ design[use].T)
            share[:, t] = (c * _extreme(g)).sum(axis=1) / c.sum(axis=1)
            g = np.clip(g, SCORE_CLIP, 1.0 - SCORE_CLIP)
            a, y = cols.a[use, t], cols.y[use, t]
            for i, stratum in enumerate(JOINT_LABELS):
                w = c * _hayden_weights(a, g, stratum, t)
                total = w.sum(axis=1)
                mu[:, i, t] = np.where(total > 0.0, (w @ y) / total, np.nan)
    mu[np.isnan(mu).any(axis=2)] = np.nan  # a stratum needs both arms
    for r, t in np.argwhere(clean[:, None] & (share > 0.5)).tolist():
        _warn_if_extreme(float(share[r, t]), stacklevel=3)
    return mu, ~clean


def _direct_cells_counts(
    cols: TrialColumns, covariates: Sequence[str] | None, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_direct_cells`` of each resample in a chunk, given as (b, n) counts:
    (b, 4, 2) means, and a (b,) mask that leaves no row to ``_direct_cells``."""
    complete = completer_mask(cols, CompleterRule.BOTH)
    c, codes, y = counts[:, complete], stratum_codes(cols.a[complete]), cols.y[complete]
    mu = np.empty((counts.shape[0], len(JOINT_LABELS), 2))
    with np.errstate(invalid="ignore"):  # an empty stratum reads 0/0 = NaN
        for i in range(len(JOINT_LABELS)):
            mask = codes == i
            mu[:, i] = (c[:, mask] @ y[mask]) / c[:, mask].sum(axis=1)[:, None]
    return mu, np.zeros(counts.shape[0], dtype=bool)


# (full-data form, chunk form) of every route, in the order routes run in
_ROUTES = {
    PceMethod.PS: (_ps_cells, _ps_cells_counts),
    PceMethod.DIRECT: (_direct_cells, _direct_cells_counts),
}


def _table_values(
    data: Dataset, methods: Sequence[PceMethod], covariates: Sequence[str] | None
) -> np.ndarray:
    """All table cells in (method, stratum, quantity) order; NaN = inestimable."""
    cols = as_columns(data)
    cells = {m: form(cols, covariates) for m, (form, _) in _ROUTES.items() if m in methods}
    return _table_layout([cells[method] for method in methods])


def _table_layout(cells: Sequence[np.ndarray]) -> np.ndarray:
    """(..., 4, 2) arm means per method, flattened along the last axis in
    (method, stratum, quantity) order, the quantities being arm0, arm1, diff."""
    parts = [np.concatenate([mu, mu[..., 1:] - mu[..., :1]], axis=-1) for mu in cells]
    return np.concatenate([p.reshape(*p.shape[:-2], -1) for p in parts], axis=-1)


def _table_chunk(
    cols: TrialColumns,
    methods: Sequence[PceMethod],
    covariates: Sequence[str] | None,
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_table_values`` of a chunk of resamples, given as (b, n) index rows.

    Each resample is a row of multinomial counts over the subjects, so every
    mean is a count-weighted sum. Returns the (b, m) values and a (b,) mask
    of the rows left to ``_table_values``: those any requested route leaves
    to its full-data form. Routes run in table order.
    """
    counts = resample_counts(idx, len(cols))
    runs = {m: form(cols, covariates, counts) for m, (_, form) in _ROUTES.items() if m in methods}
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
    level and refits all models inside each replicate; cells inestimable on
    the full data carry NaN points and a note instead of failing the table.
    The covariate names are checked whether or not a route uses them.
    """
    cols = as_columns(data)
    _selected_covariates(cols, covariates)
    # one method, not a collection of them; PceMethod refuses a value it does not name
    lone = isinstance(methods, (str, bytes, PceMethod)) or not isinstance(methods, Iterable)
    methods = list(dict.fromkeys(map(PceMethod, [methods] if lone else methods)))
    if not methods:
        raise ValueError("at least one method required")
    boot = None
    if bootstrap_spec is None:
        points = _table_values(cols, methods, covariates)
    else:
        # the bootstrap's own point is the full-data table; replicates are
        # evaluated a chunk at a time, with _table_values for rows left over
        boot = bootstrap_vector(
            cols,
            lambda sample: _table_values(sample, methods, covariates),
            bootstrap_spec,
            lambda idx: _table_chunk(cols, methods, covariates, idx),
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
