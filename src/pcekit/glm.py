"""Ordinary least squares and IRLS logistic regression on dense designs.

Both fits are deterministic given their inputs. OLS solves the normal
equations directly and reports classical t-based inference; logistic
regression maximizes the Bernoulli likelihood by iteratively reweighted
least squares with step-halving, and reports non-convergence explicitly
(separation is flagged, never silently penalized away).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
# Stirling's series log Γ(z) = (z - 1/2) log z - z + log(2π)/2 + Σ c_k z^(1-2k)
# with c_k = B_2k / (2k (2k - 1)), k = 1..7; from z = 8 on, the first term
# left out is under 1e-15, below math.lgamma's rounding at those z
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN_Z = 8.0
# the t-test's continued fraction stops once a step changes it by at most an
# ulp, which took at most 60 steps on a grid of t for dof from 1 to 1e10
_FRACTION_TOL = 2.0**-52
_FRACTION_MAX_STEPS = 1000
_FRACTION_TINY = 1e-300


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


class OlsFit(NamedTuple):
    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    sigma2: float
    dof: int

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])


class LogisticFit(NamedTuple):
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


def _stirling_remainder(z: float) -> float:
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / z


def _log_gamma_half_ratio(a: float) -> float:
    """log Γ(a + 1/2) - log Γ(a), to about 1e-15 absolute for every a > 0.

    The difference of two math.lgamma values loses their magnitude's
    rounding (1e-11 at a = 10^4); past _STIRLING_MIN_Z the terms that grow
    with a cancel in closed form and only small ones are left to round.
    """
    if a < _STIRLING_MIN_Z:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return ((a * math.log1p(0.5 / a) - 0.5) + 0.5 * math.log(a)
            + (_stirling_remainder(a + 0.5) - _stirling_remainder(a)))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """DiDonato and Morris's continued fraction for I_x(a, b), y = 1 - x.

    I_x(a, b) = x^a y^b / (B(a, b) F), F = b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)),
    evaluated by the modified Lentz method (Numerical Recipes section 5.2).
    Its terms are written in y as well as x, so no step cancels when x is
    near 1 (ACM TOMS 18:360, 1992, BFRAC).
    """
    k = a * y - b * x + 1.0
    f = a * k / (a + 1.0)
    c, d = f, 0.0
    xx, slope = x * x, 2.0 - x
    for m in range(1, _FRACTION_MAX_STEPS):
        den = a + (2 * m - 1)
        am = (m * (a + m - 1) / den) * ((a + b + m - 1) / den) * (b - m) * xx
        bm = m + m * (b - m) * x / den + (a + m) * (k + m * slope) / (den + 2.0)
        d = bm + am * d
        if d == 0.0:
            d = _FRACTION_TINY
        c = bm + am / c
        if c == 0.0:
            c = _FRACTION_TINY
        d = 1.0 / d
        step = c * d
        f *= step
        if abs(step - 1.0) <= _FRACTION_TOL:
            return f
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_tail(t: float, dof: int, a: float, scale: float) -> float:
    if math.isnan(t):
        return math.nan
    x = dof / (dof + t * t)
    if x == 0.0:  # |t| is inf, or t^2 overflows
        return 0.0
    y = 1.0 - x
    if y == 0.0:  # t^2 is lost in dof's rounding
        return 1.0
    front = scale * math.pow(x, a) * math.sqrt(y)
    # the fraction converges fast below the mean of Beta(a+1, b+1); past it,
    # take the complement, which loses little since p is above 0.08 there
    if x <= (a + 1.0) / (a + 2.5):
        return front / _beta_fraction(a, 0.5, x, y)
    return 1.0 - front / _beta_fraction(0.5, a, y, x)


def t_two_sided_p(t: float | np.ndarray, dof: int) -> float | np.ndarray:
    """P(|T_dof| >= |t|) via the regularized incomplete beta identity.

    For T ~ t with dof degrees of freedom, the two-sided tail equals
    I_x(dof/2, 1/2) evaluated at x = dof / (dof + t^2). It is computed with
    math alone, as in Numerical Recipes section 6.4: a front factor over a
    continued fraction, or one minus the symmetric term I_{1-x}(1/2, dof/2)
    past x = (a + 1) / (a + b + 2). Its relative error at that x is about
    1e-14 for every dof, down to p = 1e-300.
    """
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    a = dof / 2.0
    # 1 / B(a, 1/2) = Γ(a + 1/2) / (Γ(a) sqrt(π))
    scale = math.exp(_log_gamma_half_ratio(a)) / math.sqrt(math.pi)
    t_arr = np.asarray(t, dtype=float)
    p = np.array([_t_tail(v, dof, a, scale) for v in t_arr.ravel().tolist()], dtype=float)
    return float(p[0]) if t_arr.ndim == 0 else p.reshape(t_arr.shape)


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
    return p, 2.0 * weighted.sum(axis=1)


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
    Every elementwise operation runs in a fixed order (w = c * p, then
    w *= 1 - p) and each row's deviance is summed along its own contiguous
    row, but a matrix product over more rows may take another BLAS path and
    sum in another order. So a row's coefficients agree to rounding, not
    always to the bit, whichever rows share its chunk; the same chunks give
    the same bits in any process.
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
        small = np.abs(grad).max(axis=1) <= GRADIENT_TOL
        if small.any():
            # a numerically perfect fit certifies separation, not convergence
            worst = np.where(c[small] > 0.0, np.abs(resid[small]), 0.0).max(axis=1)
            converged[rows[small]] = worst >= PERFECT_FIT_TOL
            keep(~small)
            grad = grad[~small]
        if it == MAX_ITERATIONS or rows.size == 0:
            break  # iteration cap: rows still active stay unconverged

        w = c * p
        w *= 1.0 - p
        delta, solved = _solve_stack((w @ outer).reshape(rows.size, q, q), grad)
        if solved is not None:
            keep(solved)
            delta = delta[solved]

        # line search: every row tries its full Newton step. When each one
        # accepts it, the candidate arrays become the working set; otherwise
        # the rows in k that reject it halve their step together, up to 29
        # times, since every row still in k has failed as often as the others
        cand = coef + delta
        p_c, dev_c = _probs_and_deviances(sign, cand @ x.T, c)
        ok = dev_c <= dev + 1e-12
        k = None
        if ok.all():
            coef, p, dev = cand, p_c, dev_c
        else:
            coef[ok], p[ok], dev[ok] = cand[ok], p_c[ok], dev_c[ok]
            k, step = np.flatnonzero(~ok), 1.0
            for _ in range(29):
                step *= 0.5
                cand = coef[k] + step * delta[k]
                p_c, dev_c = _probs_and_deviances(sign, cand @ x.T, c[k])
                ok = dev_c <= dev[k] + 1e-12
                coef[k[ok]], p[k[ok]], dev[k[ok]] = cand[ok], p_c[ok], dev_c[ok]
                k = k[~ok]
                if k.size == 0:
                    break
        leave = np.abs(coef).max(axis=1) > DIVERGENCE_NORM
        if k is not None and k.size:
            leave[k] = True  # stalled: no improving step along the Newton direction
        if leave.any():
            keep(~leave)
    beta[rows] = coef
    return beta, converged


def _solve_stack(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Newton steps for a (k, q, q) stack of Hessians, and a mask of those
    that solved: None when every one did."""
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0], None
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
