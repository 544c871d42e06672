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
# fit_logistic_counts fits a resample only if its Gram matrix, scaled to a
# unit diagonal, has a smallest eigenvalue above this share of its largest:
# far above matrix_rank's tolerance, so every row it fits is clearly full
# rank, in whatever units the covariates come
GRAM_RATIO_TOL = 1e-10
_TINY = np.finfo(float).tiny
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
    an exception; a stall, where no halving of the Newton step lowers the
    deviance, yields neither.

    The input is checked here, the design's rank included. The fit is the
    one IRLS loop every logistic fit runs, ``_irls``, on a single all-ones
    count row, and the result is what the loop records of that row. It
    skips ``fit_logistic_counts``'s row gate: the rank check above is the
    one that decides whether this design is fitted.
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
    beta = np.zeros(design.q) if start is None else np.asarray(start, dtype=float)
    if beta.shape != (design.q,):
        raise ValueError(f"start must have shape ({design.q},)")
    fit = _irls(x, _outer_rows(x), a, np.ones((1, design.n)), beta)
    iterations = int(fit.iterations[0])
    path = tuple(fit.deviance_path[: iterations + 1, 0].tolist())
    return LogisticFit(
        names=design.names,
        coefficients=fit.coefficients[0],
        converged=bool(fit.converged[0]),
        diverged=bool(fit.diverged[0]),
        iterations=iterations,
        final_gradient_norm=float(fit.gradient_norm[0]),
        deviance=path[-1],
        deviance_path=path,
    )


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """Row i's outer product x_i x_i^T, flattened: counts @ it sums them."""
    n, q = x.shape
    return (x[:, :, None] * x[:, None, :]).reshape(n, q * q)


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
    that resample with ``start`` as the warm start, by the same IRLS loop,
    to rounding: a matrix product over more rows may sum in another order.

    This function is the row gate in front of the IRLS loop, ``_irls``. A
    row goes to the loop only if its resample has both responses and a
    clearly full-rank design: its Gram matrix G, scaled to D^-1/2 G D^-1/2
    by its diagonal D, passes ``GRAM_RATIO_TOL``, so the test does not
    depend on the covariates' units.

    ``a`` is one (n,) response with a (q,) ``start``, or k responses (k, n)
    on the same design rows and counts with (k, q) starts. The rank test
    depends only on the design and the counts, so it runs once for them
    all, and each response's fits are those it would get alone, bit for bit.

    Returns (b, q) coefficients and a (b,) mask of the rows that converged
    cleanly, or (k, b, q) and (k, b) for k responses. The other rows carry
    no usable coefficients: a constant response, a rank-deficient resample,
    separation, a singular Hessian, a stall or the iteration cap. Refit
    those with ``fit_logistic`` for its exact verdict. The inputs are only
    read, and the counts must be at least 0.

    A row that stops on the gradient is scanned for a perfect fit only if
    its deviance is at most 4 * PERFECT_FIT_TOL times its count total, which
    every perfect fit's is; a row above that bound has converged, as the
    scan would find (see ``_irls``).
    """
    x = np.asarray(design, dtype=float)
    a = np.ascontiguousarray(a, dtype=float)
    counts = np.ascontiguousarray(counts, dtype=float)
    (n, q), b = x.shape, counts.shape[0]
    outer = _outer_rows(x)
    gram = (counts @ outer).reshape(b, q, q)
    # a zero entry of D belongs to a zero row and column of G, which stay
    # zero under the finite scale 1 / sqrt(tiny), so its eigenvalue 0 fails
    scale = 1.0 / np.sqrt(np.maximum(gram.reshape(b, q * q)[:, :: q + 1], _TINY))
    gram_eigs = np.linalg.eigvalsh(gram * scale[:, :, None] * scale[:, None, :])
    full_rank = gram_eigs[:, 0] > GRAM_RATIO_TOL * gram_eigs[:, -1]

    responses = a.reshape(-1, n)
    starts = np.asarray(start, dtype=float).reshape(len(responses), q)
    beta = np.empty((len(responses), b, q))
    converged = np.zeros((len(responses), b), dtype=bool)
    for k, (resp, st) in enumerate(zip(responses, starts)):
        both = (counts @ resp > 0.0) & (counts @ (1.0 - resp) > 0.0)
        rows = np.flatnonzero(both & full_rank)
        fits = _irls(x, outer, resp, counts if rows.size == b else counts[rows], st)
        beta[k] = st
        beta[k, rows], converged[k, rows] = fits.coefficients, fits.converged
    return beta.reshape(*a.shape[:-1], b, q), converged.reshape(*a.shape[:-1], b)


class _RowFits(NamedTuple):
    """What the IRLS loop records of each count row it fits."""

    coefficients: np.ndarray  # (b, q)
    converged: np.ndarray  # (b,)
    diverged: np.ndarray  # (b,): a perfect fit, a singular Hessian or the divergence norm
    iterations: np.ndarray  # (b,) accepted steps
    gradient_norm: np.ndarray  # (b,) max |gradient| at the coefficients
    deviance_path: np.ndarray  # (MAX_ITERATIONS + 1, b): row r's first iterations[r] + 1


def _irls(
    x: np.ndarray, outer: np.ndarray, a: np.ndarray, counts: np.ndarray, start: np.ndarray
) -> _RowFits:
    """The IRLS loop of every logistic fit, for each row of (b, n) counts
    over the rows of design x (outer is ``_outer_rows(x)``), from start.

    Each iteration tests the divergence norm (not at the start), then the
    gradient, then the cap; then it solves for the Newton step and tries it,
    halving it up to 29 times until the deviance does not rise by more than
    1e-12. A row that is neither converged nor diverged stalled, with no
    improving step, or met the cap.

    A row that passes the gradient test has converged unless it is a
    numerically perfect fit: every counted entry within PERFECT_FIT_TOL of
    its response. Each such entry loses less than 1.000002e-6, so a perfect
    fit's deviance is below 2.000002e-6 times its count total. The loop
    holds each row's deviance at its probabilities, so a row whose deviance
    is above 4 * PERFECT_FIT_TOL times its count total converges without a
    scan; only the others, and a NaN deviance, are scanned for max |a - p|.
    The verdict is the scan's either way. This needs counts of at least 0,
    which every caller passes: a negative count could cancel a lost entry.

    The rows still iterating form a working set: their counts (``counts``
    itself while every row is in it), probabilities, coefficients,
    deviances, gradient norms and perfect-fit bounds as compact arrays.
    Only the deviance path is written on every iteration; the rest of a
    row's record is written when it leaves, and the rows that stay are
    gathered again. When every row accepts its full Newton step the
    candidate arrays become the working set without a copy.
    Every elementwise operation runs in a fixed order (w = c * p, then
    w *= 1 - p) and each row's deviance is summed along its own contiguous
    row, but a matrix product over more rows may take another BLAS path and
    sum in another order. So a row's coefficients agree to rounding, not
    always to the bit, whichever rows share its chunk; the same chunks give
    the same bits in any process.
    """
    b, q = counts.shape[0], x.shape[1]
    sign = 1.0 - 2.0 * a
    beta = np.empty((b, q))
    converged = np.zeros(b, dtype=bool)
    unfinished = np.zeros(b, dtype=bool)  # stalled or capped
    iterations = np.empty(b, dtype=int)
    gradient_norm = np.empty(b)
    path = np.empty((MAX_ITERATIONS + 1, b))

    rows, c, coef = np.arange(b), counts, np.tile(start, (b, 1))
    # above its bound a row's deviance is no perfect fit's (see above)
    bound = 4.0 * PERFECT_FIT_TOL * counts.sum(axis=1)
    # every row starts at the same coefficients: one eta row serves them all
    p, dev = _probs_and_deviances(sign, (x @ start)[None, :], c)
    p = np.repeat(p, b, axis=0)
    path[0] = dev

    def keep(stay: np.ndarray) -> None:
        """Record the rows that leave the working set; gather the rest."""
        nonlocal rows, c, p, coef, dev, gnorm, bound
        go = ~stay
        out = rows[go]
        beta[out], iterations[out], gradient_norm[out] = coef[go], it, gnorm[go]
        rows, c, p, coef, dev = rows[stay], c[stay], p[stay], coef[stay], dev[stay]
        gnorm, bound = gnorm[stay], bound[stay]

    for it in range(MAX_ITERATIONS + 1):
        resid = a - p
        resid *= c
        grad = resid @ x
        gnorm = np.abs(grad).max(axis=1)
        small = gnorm <= GRADIENT_TOL
        # past the divergence norm a row stops before its gradient is tested
        far = np.abs(coef).max(axis=1) > (DIVERGENCE_NORM if it else np.inf)
        leave = small | far
        if leave.any():
            small &= ~far
            # a numerically perfect fit certifies separation, not convergence;
            # only a row within its bound (or with a NaN deviance) is scanned
            scan = small & ~(dev > bound)
            worst = np.where(c[scan] > 0.0, np.abs(a - p[scan]), 0.0).max(axis=1)
            converged[rows[small]] = True
            converged[rows[scan]] = worst >= PERFECT_FIT_TOL
            keep(~leave)
            grad = grad[~leave]
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
            if k.size:  # stalled: no improving step along the Newton direction
                unfinished[rows[k]] = True
                stay = np.ones(rows.size, dtype=bool)
                stay[k] = False
                keep(stay)
        path[it + 1, rows] = dev
    if rows.size:
        unfinished[rows] = True
        keep(np.zeros(rows.size, dtype=bool))
    diverged = ~(converged | unfinished)
    return _RowFits(beta, converged, diverged, iterations, gradient_norm, path)


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
