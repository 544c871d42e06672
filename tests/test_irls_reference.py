"""``glm.fit_logistic`` against the one-at-a-time IRLS loop it had before it
ran the batched loop on one row.

The reference below is that loop, kept as it was: the Bernoulli deviance
written with ``logaddexp``, a Newton step by ``np.linalg.solve`` and up to
30 step halvings. The two sum in other orders, so they agree to rounding,
not to the bit. These tolerances were fixed before the first comparison:

- the same exception class, or none on both sides;
- equal ``converged``, ``diverged`` and ``iterations``, and a deviance path
  of the same length;
- coefficients and deviance within ``rtol=1e-9, atol=1e-12``, the tolerance
  ``test_glm`` holds the batched fits to;
- the final gradient norm within the same tolerance, except where the
  reference stopped on it (at most ``GRADIENT_TOL``): there it is rounding
  noise, and both must be at most ``GRADIENT_TOL``. On the badly scaled
  design below, the gradient at the reference's own coefficients reads
  2.2e-10 by one summation and 1.7e-10 by the batched loop's.

A second reference, ``scan_every_row_irls``, is ``glm._irls`` with the
perfect-fit scan it had before its deviance bound: every row that passes
the gradient test is scanned. The bound only skips scans, so the two must
give the same verdicts, iterations, gradient norms and coefficients, bit for
bit, on random chunks and on rows built at the bound.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from pcekit import glm
from pcekit.core import load_columns
from pcekit.errors import DegenerateResponseError, InsufficientDataError, PcekitError
from pcekit.glm import DesignMatrix, LogisticFit, _check_full_rank, expit, intercept_design

from test_glm import (
    LOGISTIC_ORACLE,
    _mixed_chunk,
    _resample_chunk,
    _saturated_chunk,
    _separated_chunk,
)

GRADIENT_TOL = glm.GRADIENT_TOL
MAX_ITERATIONS = glm.MAX_ITERATIONS
DIVERGENCE_NORM = glm.DIVERGENCE_NORM
PERFECT_FIT_TOL = glm.PERFECT_FIT_TOL
DATA = Path(__file__).resolve().parent / "data"
CHUNKS = (_resample_chunk, _mixed_chunk, _saturated_chunk, _separated_chunk)

# ---- the one-at-a-time reference -------------------------------------------


def _bernoulli_deviance(a: np.ndarray, eta: np.ndarray) -> float:
    # -2 log L, written with logaddexp so saturated probabilities stay finite
    return float(2.0 * np.sum(a * np.logaddexp(0.0, -eta) + (1.0 - a) * np.logaddexp(0.0, eta)))


def reference_fit_logistic(
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


# ---- the comparison ---------------------------------------------------------


def _outcome(fit, design, a, start=None):
    """The fit, or the class of the pcekit error it raised."""
    try:
        return fit(design, a, start=start)
    except PcekitError as exc:
        return type(exc)


def assert_fits_agree(design, a, start=None, where=""):
    got = _outcome(glm.fit_logistic, design, a, start)
    want = _outcome(reference_fit_logistic, design, a, start)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want, where
        return want
    assert (got.converged, got.diverged, got.iterations) == (
        want.converged, want.diverged, want.iterations), where
    assert type(got.converged) is bool and type(got.iterations) is int, where
    assert len(got.deviance_path) == len(want.deviance_path), where
    assert got.deviance == got.deviance_path[-1], where
    np.testing.assert_allclose(got.coefficients, want.coefficients, rtol=1e-9, atol=1e-12,
                               err_msg=where)
    np.testing.assert_allclose(got.deviance, want.deviance, rtol=1e-9, atol=1e-12, err_msg=where)
    if want.final_gradient_norm <= GRADIENT_TOL:
        assert got.final_gradient_norm <= GRADIENT_TOL, where
    else:
        np.testing.assert_allclose(got.final_gradient_norm, want.final_gradient_norm,
                                   rtol=1e-9, atol=1e-12, err_msg=where)
    return want


def resample_design(values, a, row):
    """The design and response of the resample a count row describes."""
    idx = np.repeat(np.arange(len(a)), row.astype(int))
    names = tuple(f"c{j}" for j in range(values.shape[1]))
    return DesignMatrix(names, values[idx]), a[idx]


def scaled_design():
    """A full-rank design in units near 5e4: its Gram matrix's smallest
    eigenvalue is 5e-11 of its largest, yet fit_logistic converges in a few
    steps."""
    rng = np.random.default_rng(0)
    x = rng.normal(5e4, 2e4, 300)
    a = (rng.uniform(size=300) < expit(0.8 - 2e-5 * x)).astype(float)
    return DesignMatrix.with_intercept(("x1",), [x]), a


@pytest.mark.parametrize("name", sorted(LOGISTIC_ORACLE))
def test_oracle_fits_match_the_reference(name):
    case = LOGISTIC_ORACLE[name]
    design = DesignMatrix.with_intercept(("x1",), [np.asarray(case["x"], dtype=float)])
    assert assert_fits_agree(design, np.asarray(case["a"], dtype=float)).converged


@pytest.mark.parametrize("make", CHUNKS, ids=lambda make: make.__name__)
def test_resample_fits_match_the_reference(make):
    values, a, counts, start = make()
    for r, row in enumerate(counts):
        design, ar = resample_design(values, a, row)
        assert_fits_agree(design, ar, start, where=f"{make.__name__} row {r}")


@pytest.mark.parametrize("cap", [0, 1, 2, 6])
def test_capped_fits_match_the_reference(cap, monkeypatch):
    monkeypatch.setattr(glm, "MAX_ITERATIONS", cap)
    monkeypatch.setattr(sys.modules[__name__], "MAX_ITERATIONS", cap)
    values, a, counts, start = _mixed_chunk()
    verdicts = [assert_fits_agree(*resample_design(values, a, row), start) for row in counts]
    assert any(isinstance(v, LogisticFit) and not v.converged and not v.diverged
               for v in verdicts)


@pytest.mark.parametrize("path", sorted(p.name for p in DATA.glob("*.csv")
                                        if not p.name.endswith(".out.csv")
                                        and not p.name.endswith(".truth.csv")))
def test_full_data_fits_of_each_input_match_the_reference(path):
    cols = load_columns(DATA / path)
    names = ("intercept", *cols.covariate_names)
    for t in (0, 1):
        rows = cols.a[:, t] >= 0
        design = DesignMatrix(names, intercept_design(cols.x[rows]))
        fit = assert_fits_agree(design, cols.a[rows, t].astype(float), where=f"{path} arm {t}")
        assert isinstance(fit, LogisticFit) and fit.converged


def test_badly_scaled_design_matches_the_reference():
    design, a = scaled_design()
    fit = assert_fits_agree(design, a)
    assert fit.converged and fit.iterations <= 6


def test_batched_fits_of_the_badly_scaled_design_match_the_reference():
    """The row gate is scale-free: each resample of the badly scaled design
    is fitted in the batch, as the reference fits it one at a time."""
    design, a = scaled_design()
    rng = np.random.default_rng(4)
    counts = rng.multinomial(design.n, np.full(design.n, 1.0 / design.n), size=20).astype(float)
    start = np.zeros(design.q)
    coef, converged = glm.fit_logistic_counts(design.values, a, counts, start)
    assert converged.all()
    for r, row in enumerate(counts):
        want = reference_fit_logistic(*resample_design(design.values, a, row), start)
        assert want.converged, r
        np.testing.assert_allclose(coef[r], want.coefficients, rtol=1e-9, atol=1e-12,
                                   err_msg=f"row {r}")


# ---- the perfect-fit scan ---------------------------------------------------


def scan_every_row_irls(x, outer, a, counts, start):
    """``glm._irls`` with the perfect-fit scan it had before the deviance
    bound: every row that passes the gradient test is scanned for max |a - p|
    over its counted entries. Everything else is the loop as it is."""
    b, q = counts.shape[0], x.shape[1]
    sign = 1.0 - 2.0 * a
    beta = np.empty((b, q))
    converged = np.zeros(b, dtype=bool)
    unfinished = np.zeros(b, dtype=bool)  # stalled or capped
    iterations = np.empty(b, dtype=int)
    gradient_norm = np.empty(b)
    path = np.empty((MAX_ITERATIONS + 1, b))

    rows, c, coef = np.arange(b), counts, np.tile(start, (b, 1))
    p, dev = glm._probs_and_deviances(sign, (x @ start)[None, :], c)
    p = np.repeat(p, b, axis=0)
    path[0] = dev

    def keep(stay: np.ndarray) -> None:
        """Record the rows that leave the working set; gather the rest."""
        nonlocal rows, c, p, coef, dev, gnorm
        go = ~stay
        out = rows[go]
        beta[out], iterations[out], gradient_norm[out] = coef[go], it, gnorm[go]
        rows, c, p, coef, dev = rows[stay], c[stay], p[stay], coef[stay], dev[stay]
        gnorm = gnorm[stay]

    for it in range(MAX_ITERATIONS + 1):
        resid = a - p
        resid *= c
        grad = resid @ x
        gnorm = np.abs(grad).max(axis=1)
        small = gnorm <= GRADIENT_TOL
        far = np.abs(coef).max(axis=1) > (DIVERGENCE_NORM if it else np.inf)
        leave = small | far
        if leave.any():
            small &= ~far
            # every row that passes the gradient test is scanned
            worst = np.where(c[small] > 0.0, np.abs(a - p[small]), 0.0).max(axis=1)
            converged[rows[small]] = worst >= PERFECT_FIT_TOL
            keep(~leave)
            grad = grad[~leave]
        if it == MAX_ITERATIONS or rows.size == 0:
            break

        w = c * p
        w *= 1.0 - p
        delta, solved = glm._solve_stack((w @ outer).reshape(rows.size, q, q), grad)
        if solved is not None:
            keep(solved)
            delta = delta[solved]

        cand = coef + delta
        p_c, dev_c = glm._probs_and_deviances(sign, cand @ x.T, c)
        ok = dev_c <= dev + 1e-12
        if ok.all():
            coef, p, dev = cand, p_c, dev_c
        else:
            coef[ok], p[ok], dev[ok] = cand[ok], p_c[ok], dev_c[ok]
            k, step = np.flatnonzero(~ok), 1.0
            for _ in range(29):
                step *= 0.5
                cand = coef[k] + step * delta[k]
                p_c, dev_c = glm._probs_and_deviances(sign, cand @ x.T, c[k])
                ok = dev_c <= dev[k] + 1e-12
                coef[k[ok]], p[k[ok]], dev[k[ok]] = cand[ok], p_c[ok], dev_c[ok]
                k = k[~ok]
                if k.size == 0:
                    break
            if k.size:  # stalled
                unfinished[rows[k]] = True
                stay = np.ones(rows.size, dtype=bool)
                stay[k] = False
                keep(stay)
        path[it + 1, rows] = dev
    if rows.size:
        unfinished[rows] = True
        keep(np.zeros(rows.size, dtype=bool))
    diverged = ~(converged | unfinished)
    return glm._RowFits(beta, converged, diverged, iterations, gradient_norm, path)


def assert_same_row_fits(got, want, where=""):
    """The same verdicts, iterations and gradient norms, and the same
    coefficients, bit for bit: the bound changes no arithmetic."""
    for field in ("converged", "diverged", "iterations", "gradient_norm", "coefficients"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field),
                                      err_msg=f"{where} {field}")


def random_chunk(rng, kind, q, scale):
    """A chunk of 30 count rows over a random design: q columns (an
    intercept and q - 1 covariates, or one covariate when q is 1) in units of
    scale, a response separated by the true linear predictor, separated but
    for a few flips, or logistic, and a warm start near the truth or zero."""
    n = int(rng.integers(8, 40))
    z = rng.normal(size=(n, max(q - 1, 1)))
    x = scale * z if q == 1 else intercept_design(scale * z)
    truth = rng.normal(0.0, 2.0, q) / scale
    if q > 1:
        truth[0] *= scale  # the intercept is in units of 1
    lin = x @ truth
    if kind == "separable":
        a = (lin > 0).astype(float)
    elif kind == "near-separable":
        a = (lin > 0).astype(float)
        flip = rng.choice(n, size=2, replace=False)
        a[flip] = 1.0 - a[flip]
    else:
        a = (lin + rng.logistic(size=n) > 0).astype(float)
    draws = int(rng.integers(2, n + 1))
    counts = rng.multinomial(draws, np.full(n, 1.0 / n), size=30).astype(float)
    start = truth * rng.uniform(0.0, 2.0) if rng.uniform() < 0.5 else np.zeros(q)
    return x, a, counts, start


@pytest.mark.parametrize("kind", ["separable", "near-separable", "ordinary"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_deviance_bound_decides_as_the_scan_of_every_row(kind, q, scale):
    rng = np.random.default_rng([q, int(100 * scale), len(kind)])
    ends = {"converged": 0, "perfect": 0}
    for i in range(8):
        x, a, counts, start = random_chunk(rng, kind, q, scale)
        outer = glm._outer_rows(x)
        got = glm._irls(x, outer, a, counts, start)
        assert_same_row_fits(got, scan_every_row_irls(x, outer, a, counts, start),
                             f"{kind} q={q} scale={scale} chunk {i}")
        ends["converged"] += int(got.converged.sum())
        ends["perfect"] += int((got.diverged & (got.gradient_norm <= GRADIENT_TOL)).sum())
    assert ends["perfect"] and (ends["converged"] or kind == "separable"), ends


@pytest.mark.parametrize("e, verdict", [
    (0.999e-6, "diverged"),  # a perfect fit near the top of its deviances: scanned
    (1.999e-6, "converged"),  # no perfect fit, yet within the bound: scanned
    (2.001e-6, "converged"),  # just over the bound: no scan
], ids=["perfect", "under-bound", "over-bound"])
def test_rows_at_the_deviance_bound_get_the_scan_verdict(e, verdict):
    """Rows that stop on the gradient at their start, with every counted
    |a - p| = e / (1 + e): small counts make the gradient, 2 c e / (1 + e),
    pass while the deviance per count, 2 log1p(e), lies near the bound of
    4 * PERFECT_FIT_TOL."""
    x, a = np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
    counts, start = np.full((1, 2), 1e-3), np.array([-np.log(e)])
    dev = glm._probs_and_deviances(1.0 - 2.0 * a, (x @ start)[None, :], counts)[1]
    bound = 4.0 * PERFECT_FIT_TOL * counts.sum()
    assert bool(dev[0] > bound) == (e > 2e-6)
    outer = glm._outer_rows(x)
    got = glm._irls(x, outer, a, counts, start)
    assert_same_row_fits(got, scan_every_row_irls(x, outer, a, counts, start))
    assert got.iterations[0] == 0 and getattr(got, verdict)[0]
