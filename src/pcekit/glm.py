"""Ordinary least squares and IRLS logistic regression on dense designs.

Both fits are deterministic given their inputs. OLS solves the normal
equations directly and reports classical t-based inference; logistic
regression maximizes the Bernoulli likelihood by iteratively reweighted
least squares with step-halving, and reports non-convergence explicitly
(separation is flagged, never silently penalized away).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateResponseError, InsufficientDataError, SingularDesignError

GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 100
DIVERGENCE_NORM = 1e6
# max |a - p| below this at the gradient stop means the fit is numerically
# perfect, which only separated data can achieve: no finite MLE exists
PERFECT_FIT_TOL = 1e-6
# fit_logistic_counts fits a resample only if its Gram matrix's smallest
# eigenvalue is above this share of the largest: far above matrix_rank's
# tolerance, so every row it fits is certainly full rank
GRAM_RATIO_TOL = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Named n-by-q design; the first column is conventionally the intercept."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError("design values must be a 2-D array")
        if self.values.shape[1] != len(self.names):
            raise ValueError(
                f"{len(self.names)} column names for {self.values.shape[1]} columns"
            )
        if len(set(self.names)) != len(self.names):
            raise ValueError("design column names must be unique")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("design contains non-finite values")

    @classmethod
    def with_intercept(
        cls, names: Sequence[str], columns: Sequence[np.ndarray] | np.ndarray
    ) -> "DesignMatrix":
        """Assemble [1, columns...]; ``names`` labels the non-intercept columns."""
        if not len(names):
            raise ValueError("with_intercept needs columns; use intercept_only for none")
        values = intercept_design(np.column_stack(columns))
        return cls(names=("intercept", *names), values=np.asarray(values, dtype=float))

    @classmethod
    def intercept_only(cls, n: int) -> "DesignMatrix":
        return cls(names=("intercept",), values=np.ones((n, 1)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


def intercept_design(x: np.ndarray) -> np.ndarray:
    """[1, x] for (n, p) covariate values: an (n, 1) column of ones when p is 0."""
    return np.column_stack([np.ones(x.shape[0]), x])


@dataclass(frozen=True)
class OlsFit:
    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    sigma2: float
    dof: int

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])


@dataclass(frozen=True)
class LogisticFit:
    names: tuple[str, ...]
    coefficients: np.ndarray
    converged: bool
    diverged: bool
    iterations: int
    final_gradient_norm: float
    deviance: float
    deviance_path: tuple[float, ...]

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])


def expit(x: float | np.ndarray) -> float | np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    Below x = -709.78, exp(-x) overflows to inf and the result is its limit,
    0.0; numpy's overflow warning is silenced because nothing went wrong.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def t_two_sided_p(t: float | np.ndarray, dof: int) -> float | np.ndarray:
    """P(|T_dof| >= |t|) via the regularized incomplete beta identity.

    For T ~ t with dof degrees of freedom, the two-sided tail equals
    I_x(dof/2, 1/2) evaluated at x = dof / (dof + t^2).
    """
    # imported here so that only the OLS t-tests load scipy, which would
    # otherwise be most of the time every command spends importing pcekit
    from scipy.special import betainc

    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = dof / (dof + np.square(t_arr))
    x = np.where(np.isinf(t_arr), 0.0, x)
    p = betainc(dof / 2.0, 0.5, x)
    return float(p) if np.isscalar(t) or t_arr.ndim == 0 else p


def _check_full_rank(design: DesignMatrix) -> None:
    x = design.values
    if np.linalg.matrix_rank(x) == design.q:
        return
    # name a culprit: scan for the first column explained by its predecessors
    n = x.shape[0]
    for j in range(design.q):
        col = x[:, j]
        if j == 0:
            if float(np.linalg.norm(col)) <= 1e-12 * np.sqrt(n):
                raise SingularDesignError(f"design column {design.names[0]!r} is all zeros")
            continue
        resid = col - x[:, :j] @ np.linalg.lstsq(x[:, :j], col, rcond=None)[0]
        if float(np.linalg.norm(resid)) <= 1e-8 * max(float(np.linalg.norm(col)), 1.0):
            raise SingularDesignError(
                f"design column {design.names[j]!r} is linearly dependent on earlier columns"
            )
    # borderline rank deficiency: name the dominant component of the null vector
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    j = int(np.argmax(np.abs(vt[-1])))
    raise SingularDesignError(f"design is rank deficient near column {design.names[j]!r}")


def fit_ols(design: DesignMatrix, y: np.ndarray) -> OlsFit:
    """Least squares via the normal equations, with t statistics and p-values."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != design.n:
        raise ValueError(f"y must be a length-{design.n} vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    if design.n <= design.q:
        raise InsufficientDataError(
            f"need more rows than columns for inference: n={design.n}, q={design.q}"
        )
    _check_full_rank(design)
    x = design.values
    xtx = x.T @ x
    coef = np.linalg.solve(xtx, x.T @ y)
    resid = y - x @ coef
    dof = design.n - design.q
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(xtx)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    t = np.empty_like(coef)
    pos = se > 0
    t[pos] = coef[pos] / se[pos]
    t[~pos] = np.where(coef[~pos] == 0.0, 0.0, np.sign(coef[~pos]) * np.inf)
    p = np.asarray(t_two_sided_p(t, dof))
    return OlsFit(
        names=design.names,
        coefficients=coef,
        standard_errors=se,
        t_stats=t,
        p_values=p,
        sigma2=sigma2,
        dof=dof,
    )


def _bernoulli_deviance(a: np.ndarray, eta: np.ndarray) -> float:
    # -2 log L, written with logaddexp so saturated probabilities stay finite
    return float(2.0 * np.sum(a * np.logaddexp(0.0, -eta) + (1.0 - a) * np.logaddexp(0.0, eta)))


def fit_logistic(
    design: DesignMatrix,
    a: np.ndarray,
    start: np.ndarray | None = None,
) -> LogisticFit:
    """Logistic MLE by IRLS with step-halving.

    Stops when max |gradient| <= GRADIENT_TOL or after MAX_ITERATIONS
    updates; the converged flag reflects which. Divergence (coefficient norm
    beyond 1e6, a collapsed weight matrix, or a numerically perfect fit, all
    separation symptoms) yields converged=False and diverged=True rather than
    an exception.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.shape[0] != design.n:
        raise ValueError(f"a must be a length-{design.n} vector")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("a must be binary 0/1")
    if design.n < design.q:
        raise InsufficientDataError(
            f"need at least as many rows as columns: n={design.n}, q={design.q}"
        )
    if np.all(a == a[0]):
        raise DegenerateResponseError("response is constant; logistic fit is undefined")
    _check_full_rank(design)

    x = design.values
    beta = np.zeros(design.q) if start is None else np.asarray(start, dtype=float).copy()
    if beta.shape != (design.q,):
        raise ValueError(f"start must have shape ({design.q},)")
    eta = x @ beta
    p = expit(eta)
    dev = _bernoulli_deviance(a, eta)
    path = [dev]
    converged = False
    diverged = False
    iterations = 0
    grad = x.T @ (a - p)
    gnorm = float(np.max(np.abs(grad)))

    for it in range(MAX_ITERATIONS + 1):
        if gnorm <= GRADIENT_TOL:
            if float(np.max(np.abs(a - p))) < PERFECT_FIT_TOL:
                diverged = True  # perfect fit certifies separation
            else:
                converged = True
            break
        if it == MAX_ITERATIONS:
            break  # iteration cap: converged stays False
        w = p * (1.0 - p)
        hess = (x * w[:, None]).T @ x
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            diverged = True
            break
        step = 1.0
        improved = False
        for _ in range(30):
            cand = beta + step * delta
            eta_c = x @ cand
            dev_c = _bernoulli_deviance(a, eta_c)
            if dev_c <= dev + 1e-12:
                improved = True
                break
            step *= 0.5
        if not improved:
            break  # stalled: no improving step along the Newton direction
        beta, eta, dev = cand, eta_c, dev_c
        p = expit(eta)
        iterations += 1
        path.append(dev)
        grad = x.T @ (a - p)
        gnorm = float(np.max(np.abs(grad)))
        if float(np.max(np.abs(beta))) > DIVERGENCE_NORM:
            diverged = True
            break

    return LogisticFit(
        names=design.names,
        coefficients=beta,
        converged=converged,
        diverged=diverged,
        iterations=iterations,
        final_gradient_norm=gnorm,
        deviance=dev,
        deviance_path=tuple(path),
    )


def _probs_and_deviances(
    sign: np.ndarray, eta: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """expit(eta) and each row's count-weighted deviance, from one exp(-|eta|).

    sign is 1 - 2a: -log p = log1p(e) + max(-eta, 0) for a = 1, and
    -log(1 - p) = log1p(e) + max(eta, 0) for a = 0, with e = exp(-|eta|).
    The numerator of p is 1 where eta >= 0 and e elsewhere, which is
    max(e, eta >= 0) because 0 <= e <= 1. eta is overwritten; a (1, n) eta
    serves every row of counts.
    """
    e = np.abs(eta)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.maximum(e, eta >= 0.0)
    p /= 1.0 + e
    loss = np.multiply(sign, eta, out=eta)
    np.maximum(loss, 0.0, out=loss)
    loss += np.log1p(e, out=e)
    weighted = np.multiply(counts, loss, out=loss if loss.shape == counts.shape else None)
    return p, 2.0 * np.sum(weighted, axis=1)


def fit_logistic_counts(
    design: np.ndarray, a: np.ndarray, counts: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Logistic MLEs for many frequency-weighted copies of one design at once.

    Row r of ``counts`` (b, n) says how often each of the n design rows
    occurs in resample r; its fit is the one ``fit_logistic`` computes on
    that resample with ``start`` as the warm start. Every row runs the same
    IRLS: the same tolerances, iteration cap and divergence norm, and up to
    30 step halvings under the same acceptance rule.

    Returns (b, q) coefficients and a (b,) mask of the rows that converged
    cleanly. The other rows carry no usable coefficients: a constant
    response, a rank-deficient resample, separation, a singular Hessian, a
    stall or the iteration cap. Refit those with ``fit_logistic`` for its
    exact verdict.

    The rows still iterating form a working set: their counts (``counts``
    itself while every row is in it), probabilities, coefficients and
    deviances as compact arrays. They are gathered again only when a row
    leaves, and when every row accepts its full Newton step the candidate
    arrays become the working set without a copy. The inputs are only read.
    A row's coefficients do not depend on which other rows share its chunk:
    every elementwise operation runs in a fixed order (w = c * p, then
    w *= 1 - p), each row's deviance is summed along its own contiguous
    row, and each matrix product has as many rows as there are rows taking
    that step, so BLAS takes the same path for the same data.
    """
    x = np.asarray(design, dtype=float)
    a = np.asarray(a, dtype=float)
    counts = np.ascontiguousarray(counts, dtype=float)
    b, n = counts.shape
    q = x.shape[1]
    sign = 1.0 - 2.0 * a
    # row i's outer product d_i d_i^T, flattened: counts @ outer sums them
    outer = (x[:, :, None] * x[:, None, :]).reshape(n, q * q)

    # a resample needs both responses and a clearly full-rank design; the
    # Gram threshold leaves any doubtful row to fit_logistic's rank check
    both = (counts @ a > 0.0) & (counts @ (1.0 - a) > 0.0)
    gram_eigs = np.linalg.eigvalsh((counts @ outer).reshape(b, q, q))
    full_rank = gram_eigs[:, 0] > GRAM_RATIO_TOL * gram_eigs[:, -1]
    converged = np.zeros(b, dtype=bool)

    start = np.asarray(start, dtype=float)
    beta = np.tile(start, (b, 1))
    rows = np.flatnonzero(both & full_rank)
    c = counts if rows.size == b else counts[rows]
    coef = beta[rows]
    # every row starts at the same coefficients: one eta row serves them all
    p, dev = _probs_and_deviances(sign, (x @ start)[None, :], c)
    p = np.repeat(p, rows.size, axis=0)

    def keep(stay: np.ndarray) -> None:
        """Write back the rows that leave the working set; gather the rest."""
        nonlocal rows, c, p, coef, dev
        beta[rows[~stay]] = coef[~stay]
        rows, c, p, coef, dev = rows[stay], c[stay], p[stay], coef[stay], dev[stay]

    for it in range(MAX_ITERATIONS + 1):
        if rows.size == 0:
            break
        resid = a - p
        grad = (c * resid) @ x
        small = np.max(np.abs(grad), axis=1) <= GRADIENT_TOL
        if small.any():
            # a numerically perfect fit certifies separation, not convergence
            worst = np.max(np.where(c[small] > 0.0, np.abs(resid[small]), 0.0), axis=1)
            converged[rows[small]] = worst >= PERFECT_FIT_TOL
            keep(~small)
            grad = grad[~small]
        if it == MAX_ITERATIONS or rows.size == 0:
            break  # iteration cap: rows still active stay unconverged

        w = c * p
        w *= 1.0 - p
        delta, solved = _solve_stack((w @ outer).reshape(rows.size, q, q), grad)
        if not solved.all():
            keep(solved)
            delta = delta[solved]

        # line search: the rows in k try coefficients cand; every row still
        # in k has failed as often as the others, so one step serves them
        k = np.arange(rows.size)
        cand, ck, step = coef + delta, c, 1.0
        for _ in range(30):
            p_c, dev_c = _probs_and_deviances(sign, cand @ x.T, ck)
            ok = dev_c <= dev[k] + 1e-12
            if k.size == rows.size and ok.all():
                coef, p, dev, k = cand, p_c, dev_c, k[:0]
                break
            coef[k[ok]], p[k[ok]], dev[k[ok]] = cand[ok], p_c[ok], dev_c[ok]
            k = k[~ok]
            if k.size == 0:
                break
            step *= 0.5
            cand, ck = coef[k] + step * delta[k], c[k]
        # rows left in k stalled: no improving step along the Newton direction
        leave = np.max(np.abs(coef), axis=1) > DIVERGENCE_NORM
        leave[k] = True
        if leave.any():
            keep(~leave)
    beta[rows] = coef
    return beta, converged


def _solve_stack(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps for a (k, q, q) stack of Hessians, and which of them solved."""
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0], np.ones(len(hess), dtype=bool)
    except np.linalg.LinAlgError:
        pass  # one singular matrix fails the stack: solve row by row
    delta = np.zeros_like(grad)
    solved = np.ones(len(hess), dtype=bool)
    for i in range(len(hess)):
        try:
            delta[i] = np.linalg.solve(hess[i], grad[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return delta, solved


def predict_probs(fit: LogisticFit, x: np.ndarray) -> np.ndarray:
    """Fitted probabilities for a design matrix with matching columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(fit.names):
        raise ValueError(f"expected an (n, {len(fit.names)}) design")
    return expit(x @ fit.coefficients)
