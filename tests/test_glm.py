"""OLS and logistic fits against independently computed references.

OLS references were solved exactly (rational arithmetic on the normal
equations); logistic references come from a coarse-to-fine grid search over
the Bernoulli log-likelihood. Values are frozen here, not recomputed.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc
from scipy.special import betaincinv as scipy_betaincinv
from scipy.special import expit as scipy_expit

from pcekit import glm
from pcekit.errors import DegenerateResponseError, InsufficientDataError, SingularDesignError
from pcekit.glm import (
    DesignMatrix,
    expit,
    fit_logistic,
    fit_logistic_counts,
    fit_ols,
    predict_probs,
    t_two_sided_p,
)

OLS_ORACLE = {
    "slope5": dict(
        design=[[1, x] for x in (0, 1, 2, 3, 4)],
        y=[1, 2, 2, 4, 5],
        coefficients=[0.8, 1.0],
        standard_errors=[0.4, 0.16329931618554522],
        t_stats=[2.0, 6.123724356957945],
        p_values=[0.1393259685588432, 0.00875441235902439],
        sigma2=0.26666666666666666,
        dof=3,
    ),
    "two_covariates": dict(
        design=[[1, x1, x2] for x1, x2 in zip((1, 2, 3, 4, 5, 6), (1, 4, 2, 8, 5, 7))],
        y=[3, 6, 7, 12, 11, 14],
        coefficients=[0.9637681159420289, 1.4565217391304348, 0.6159420289855072],
        standard_errors=[0.3822306359375441, 0.14938788498614713, 0.10205135349892565],
        t_stats=[2.5214308465308557, 9.749932126460585, 6.035608621222174],
        p_values=[0.08606858010123464, 0.002292233666083877, 0.009119508745297416],
        sigma2=0.1642512077294686,
        dof=3,
    ),
    "intercept_only": dict(
        design=[[1]] * 4,
        y=[1, 2, 4, 9],
        coefficients=[4.0],
        standard_errors=[1.7795130420052185],
        t_stats=[2.2478059477960657],
        p_values=[0.11016167564218522],
        sigma2=12.666666666666666,
        dof=3,
    ),
    "perfect_fit": dict(
        design=[[1, x] for x in (1, 2, 3, 4, 5)],
        y=[3, 5, 7, 9, 11],
        coefficients=[1.0, 2.0],
        standard_errors=[0.0, 0.0],
        t_stats=[math.inf, math.inf],
        p_values=[0.0, 0.0],
        sigma2=0.0,
        dof=3,
    ),
    "half_steps": dict(
        design=[[1, x] for x in (-3, -2, -1, 0, 1, 2, 3)],
        y=[0.5, 1, 2.5, 2, 3.5, 3, 4.5],
        coefficients=[2.4285714285714284, 0.6071428571428571],
        standard_errors=[0.19948914348241345, 0.09974457174120673],
        t_stats=[12.17395285867036, 6.08697642933518],
        p_values=[6.610750422970952e-05, 0.0017308181524720084],
        sigma2=0.2785714285714286,
        dof=5,
    ),
}

LOGISTIC_ORACLE = {
    "six_point": dict(
        x=(0, 0, 0, 1, 1, 1),
        a=(0, 0, 1, 1, 1, 0),
        coefficients=[-0.6931471805599453, 1.3862943611198906],  # (-ln 2, 2 ln 2)
    ),
    "eight_point": dict(
        x=(-1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2),
        a=(0, 0, 1, 0, 1, 0, 1, 1),
        coefficients=[-0.29704218623999995, 1.18816872448],
    ),
}

T_P_ORACLE = {
    (1.5, 3): 0.23058386524482305,
    (2.5, 10): 0.031446844236608804,
    (0.0, 5): 1.0,
    (6.0, 1): 0.10513691342250686,
    (0.75, 28): 0.45951073174139795,
}


def _design(rows):
    values = np.asarray(rows, dtype=float)
    names = tuple(["intercept"] + [f"x{j}" for j in range(1, values.shape[1])])
    return DesignMatrix(names, values)


@pytest.mark.parametrize("name", sorted(OLS_ORACLE))
def test_ols_matches_exact_normal_equations(name):
    case = OLS_ORACLE[name]
    fit = fit_ols(_design(case["design"]), np.asarray(case["y"], dtype=float))
    assert fit.dof == case["dof"]
    assert fit.sigma2 == pytest.approx(case["sigma2"], abs=1e-12)
    for got, want in zip(fit.coefficients, case["coefficients"]):
        assert got == pytest.approx(want, abs=1e-12)
    for got, want in zip(fit.standard_errors, case["standard_errors"]):
        assert got == pytest.approx(want, abs=1e-12)
    for got, want in zip(fit.t_stats, case["t_stats"]):
        if math.isinf(want):
            assert math.isinf(got) and got > 0
        else:
            assert got == pytest.approx(want, abs=1e-10)
    for got, want in zip(fit.p_values, case["p_values"]):
        assert got == pytest.approx(want, abs=1e-12)


def test_ols_coef_lookup_by_name():
    case = OLS_ORACLE["slope5"]
    fit = fit_ols(_design(case["design"]), np.asarray(case["y"], dtype=float))
    assert fit.coef("x1") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit.coef("x9")


def test_ols_rejects_duplicated_column():
    x = np.arange(5.0)
    design = DesignMatrix.with_intercept(("x1", "x2"), [x, x])
    with pytest.raises(SingularDesignError, match="x2"):
        fit_ols(design, np.arange(5.0))


def test_ols_rejects_column_matching_intercept():
    design = DesignMatrix.with_intercept(("x1",), [np.ones(6)])
    with pytest.raises(SingularDesignError, match="x1"):
        fit_ols(design, np.arange(6.0))


def test_ols_needs_more_rows_than_columns():
    design = DesignMatrix.with_intercept(("x1",), [np.asarray([0.0, 1.0])])
    with pytest.raises(InsufficientDataError):
        fit_ols(design, np.asarray([0.0, 1.0]))


def test_t_two_sided_p_reference_values():
    for (t, dof), want in T_P_ORACLE.items():
        assert t_two_sided_p(t, dof) == pytest.approx(want, abs=1e-12)
        assert t_two_sided_p(-t, dof) == pytest.approx(want, abs=1e-12)
    assert t_two_sided_p(math.inf, 4) == 0.0
    with pytest.raises(ValueError):
        t_two_sided_p(1.0, 0)


def test_t_two_sided_p_vectorized():
    ts = np.asarray([1.5, -1.5, 0.0])
    p = t_two_sided_p(ts, 3)
    assert p.shape == (3,)
    assert p[0] == pytest.approx(p[1], abs=1e-15)
    assert p[2] == 1.0


T_P_DOFS = (1, 2, 3, 5, 10, 30, 100, 157, 496, 1000, 5000, 20000)


@pytest.mark.parametrize("dof", T_P_DOFS)
def test_t_two_sided_p_matches_scipy_betainc(dof):
    # 0, tiny t, then log-spaced out to where p reaches 1e-300; for dof 1 that
    # t is past 1e154, where t^2 overflows and x = dof / (dof + t^2) is 0
    x_end = scipy_betaincinv(dof / 2.0, 0.5, 1e-300)
    t_end = math.sqrt(dof * (1.0 - x_end) / x_end) if x_end > 0.0 else 1e154
    t = np.concatenate([[0.0, 1e-300, 1e-12, 1e-8, 1e-4], np.geomspace(1e-3, 1.05 * t_end, 3000)])
    x = dof / (dof + t * t)
    want = scipy_betainc(dof / 2.0, 0.5, x)
    got = t_two_sided_p(t, dof)
    checked = want >= 1e-300
    assert want[checked].min() < (1e-150 if dof == 1 else 1e-290)
    np.testing.assert_allclose(got[checked], want[checked], rtol=1e-12, atol=0.0)
    assert np.all(got[~checked] < 2e-300)


def test_t_two_sided_p_edges():
    t = np.geomspace(1e-8, 1e3, 200)
    for dof in T_P_DOFS:
        assert t_two_sided_p(0.0, dof) == 1.0
        assert t_two_sided_p(-0.0, dof) == 1.0
        assert t_two_sided_p(math.inf, dof) == 0.0
        assert t_two_sided_p(-math.inf, dof) == 0.0
        assert math.isnan(t_two_sided_p(math.nan, dof))
        assert np.array_equal(t_two_sided_p(t, dof), t_two_sided_p(-t, dof))
    p = t_two_sided_p(np.asarray([[1.0, np.nan], [-np.inf, 0.0]]), 7)
    assert p.shape == (2, 2)
    assert math.isnan(p[0, 1]) and p[1, 0] == 0.0 and p[1, 1] == 1.0
    for dof in (0, -1):
        with pytest.raises(ValueError):
            t_two_sided_p(1.0, dof)


def test_expit_matches_scipy_without_warnings():
    x = np.random.default_rng(9).uniform(-800.0, 800.0, 10**6)
    edges = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, np.inf, -np.inf, np.nan]
    x = np.concatenate([x, edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp overflows below x = -709.78
        got = expit(x)
    # atol 0: where scipy underflows to exactly 0.0, so must expit
    np.testing.assert_allclose(got, scipy_expit(x), rtol=1e-15, atol=0.0)


def test_expit_limits_and_shapes():
    assert expit(-np.inf) == 0.0
    assert expit(np.inf) == 1.0
    assert expit(0.0) == 0.5
    assert np.ndim(expit(1.5)) == 0
    assert np.ndim(expit(np.asarray(1.5))) == 0
    assert expit(np.zeros(4)).shape == (4,)
    assert expit(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("name", sorted(LOGISTIC_ORACLE))
def test_logistic_matches_grid_search_oracle(name):
    case = LOGISTIC_ORACLE[name]
    design = DesignMatrix.with_intercept(("x1",), [np.asarray(case["x"], dtype=float)])
    fit = fit_logistic(design, np.asarray(case["a"], dtype=float))
    assert fit.converged
    assert not fit.diverged
    for got, want in zip(fit.coefficients, case["coefficients"]):
        assert got == pytest.approx(want, abs=1e-3)
    # IRLS should land much closer than the acceptance tolerance
    for got, want in zip(fit.coefficients, case["coefficients"]):
        assert got == pytest.approx(want, abs=1e-6)


def test_logistic_intercept_only_hits_logit_of_rate():
    design = DesignMatrix.intercept_only(8)
    fit = fit_logistic(design, np.asarray([1, 1, 1, 0, 0, 0, 0, 0], dtype=float))
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(math.log(3 / 5), abs=1e-9)


def test_logistic_full_symmetry_stops_at_zero():
    design = DesignMatrix.with_intercept(("x1",), [np.asarray([-1.0, -1.0, 1.0, 1.0])])
    fit = fit_logistic(design, np.asarray([0.0, 1.0, 0.0, 1.0]))
    assert fit.converged
    assert fit.iterations == 0
    assert np.all(fit.coefficients == 0.0)


def test_logistic_separation_flags_divergence():
    design = DesignMatrix.with_intercept(("x1",), [np.asarray([-2.0, -1.0, 1.0, 2.0])])
    fit = fit_logistic(design, np.asarray([0.0, 0.0, 1.0, 1.0]))
    assert not fit.converged
    assert fit.diverged


def test_logistic_degenerate_response():
    design = DesignMatrix.intercept_only(4)
    with pytest.raises(DegenerateResponseError):
        fit_logistic(design, np.ones(4))


def test_logistic_warm_start_converges_fast():
    case = LOGISTIC_ORACLE["six_point"]
    design = DesignMatrix.with_intercept(("x1",), [np.asarray(case["x"], dtype=float)])
    cold = fit_logistic(design, np.asarray(case["a"], dtype=float))
    warm = fit_logistic(
        design, np.asarray(case["a"], dtype=float), start=cold.coefficients
    )
    assert warm.converged
    assert warm.iterations == 0
    assert warm.coefficients == pytest.approx(cold.coefficients)


def _resample_chunk():
    """Resamples started from the full-data fit, with three rows fit_logistic
    rejects or cannot converge on: a constant, a separated and a
    rank-deficient one."""
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(40.0, 20.0, n)
    a = (0.8 - 0.02 * x + rng.normal(size=n) > 0).astype(float)
    design = DesignMatrix.with_intercept(("x1",), [x])
    start = fit_logistic(design, a).coefficients
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=12).astype(float)
    # resamples fit_logistic rejects or cannot converge on:
    counts[8] = 0.0
    counts[8, a == 1.0] = 1.0  # constant response
    counts[9] = 0.0
    counts[9, np.flatnonzero(a == 0.0)[0]] = 30.0
    counts[9, np.flatnonzero(a == 1.0)[0]] = 30.0  # two distinct rows: separated
    counts[10] = 0.0
    counts[10, 0] = n  # one distinct row: rank deficient and constant
    return design.values, a, counts, start


def test_count_weighted_fits_leave_rank_deficient_resamples_to_fit_logistic():
    # subjects 0 and 1 share x but not a: a resample of only them has both
    # responses and a constant x column
    x = np.asarray([1.0, 1.0, 2.0, 3.0, 0.0, 2.5])
    a = np.asarray([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    design = DesignMatrix.with_intercept(("x1",), [x])
    start = _reference().reference_fit_logistic(design, a).coefficients
    counts = np.asarray([[3.0, 3.0, 0.0, 0.0, 0.0, 0.0], [1.0] * 6])
    coef, converged = fit_logistic_counts(design.values, a, counts, start)
    assert converged.tolist() == [False, True]
    idx = [0, 0, 0, 1, 1, 1]
    with pytest.raises(SingularDesignError):
        fit_logistic(DesignMatrix(design.names, design.values[idx]), a[idx])
    np.testing.assert_allclose(coef[1], start, rtol=1e-12)


def _mixed_chunk():
    """Ordinary resamples from a far start, with a constant and a rank-deficient row.

    Rows halve their steps while others accept, and converge at different
    iterations, so rows leave the working set mid-chunk.
    """
    rng = np.random.default_rng(11)
    n = 50
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(2.0, 3.0, n)
    a = (0.3 + 0.9 * x1 - 0.2 * x2 + rng.logistic(size=n) > 0).astype(float)
    design = DesignMatrix.with_intercept(("x1", "x2"), [x1, x2]).values
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=40).astype(float)
    counts[3] = 0.0
    counts[3, a == 1.0] = 2.0  # constant response
    counts[7] = 0.0
    counts[7, :2] = 25.0  # two distinct rows: rank deficient
    return design, a, counts, np.array([2.0, -3.0, 1.5])


def _saturated_chunk():
    """A start so steep that most weights p(1 - p) are exactly 0.

    Only the rows at x = 0 and x = 0.02 carry Hessian weight. A resample
    without x = 0.02 has a singular Hessian, and some rows stall: their
    Newton step is so long that no halving improves the deviance.
    """
    x = np.array([-3.0, -2.0, -1.0, 0.0, 0.0, 0.02, 1.0, 2.0, 3.0, -2.5, 2.5, 1.5])
    a = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    design = DesignMatrix.with_intercept(("x1",), [x]).values
    rng = np.random.default_rng(5)
    counts = rng.multinomial(len(x), np.full(len(x), 1.0 / len(x)), size=24).astype(float)
    counts[:8, 5] = 0.0  # no x = 0.02 row
    return design, a, counts, np.array([0.0, 60.0])


def _separated_chunk():
    """Data separated at x = 0, two members 1e-7 from the boundary.

    The slope passes DIVERGENCE_NORM before their probabilities saturate;
    other rows end in a numerically perfect fit or a singular Hessian.
    """
    x = np.array([-3.0, -2.0, -1e-7, 1e-7, 2.0, 3.0, -1.0, 1.0])
    a = (x > 0).astype(float)
    design = DesignMatrix.with_intercept(("x1",), [x]).values
    rng = np.random.default_rng(9)
    counts = rng.multinomial(len(x), np.full(len(x), 1.0 / len(x)), size=16).astype(float)
    return design, a, counts, np.array([0.0, 1e5])


def _reference():
    """tests/test_irls_reference.py, which imports this module's chunks."""
    import test_irls_reference

    return test_irls_reference


def _resample_fit(values, a, row, start):
    """The one-at-a-time reference fit of the resample a count row describes;
    None where it raises."""
    reference = _reference()
    try:
        return reference.reference_fit_logistic(
            *reference.resample_design(values, a, row), start=start)
    except (DegenerateResponseError, SingularDesignError):
        return None


def test_count_weighted_fits_match_per_resample_fits():
    # the pinned chunks also take fit_logistic, from the chunk's start, out
    # through its singular-Hessian, stalled and divergence-norm exits
    for make in (_resample_chunk, _mixed_chunk, _saturated_chunk, _separated_chunk):
        design, a, counts, start = make()
        coef, converged = fit_logistic_counts(design, a, counts, start)
        # the loop itself, past the row gate, tells divergence from a stall
        diverged = glm._irls(design, glm._outer_rows(design), a, counts, start).diverged
        for r, row in enumerate(counts):
            ref = _resample_fit(design, a, row, start)
            assert converged[r] == (ref is not None and ref.converged), (make.__name__, r)
            if ref is not None:
                assert diverged[r] == ref.diverged, (make.__name__, r)
            if converged[r]:
                np.testing.assert_allclose(coef[r], ref.coefficients, rtol=1e-9, atol=1e-12)
        if make is _resample_chunk:
            assert converged[:8].all() and not converged[8:11].any()


def test_count_weighted_fit_of_a_row_agrees_in_chunks_of_any_size():
    """A row's fit agrees to rounding whichever rows share its chunk, but not
    always to the bit: BLAS may sum a product over more rows in another
    order. A fixed chunk plan gives the same bits in any process."""
    rng = np.random.default_rng(17)
    n = 200
    x = rng.normal(41.3, 22.4, n)
    a = (0.757 - 0.0219 * x + rng.normal(size=n) > 0).astype(float)
    design = DesignMatrix.with_intercept(("x1",), [x]).values
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=96).astype(float)
    start = np.zeros(2)
    whole, converged = fit_logistic_counts(design, a, counts, start)
    assert converged.all()
    for size in (1, 5, 32):
        parts = [fit_logistic_counts(design, a, counts[i : i + size], start)
                 for i in range(0, len(counts), size)]
        assert np.concatenate([ok for _, ok in parts]).all()
        np.testing.assert_allclose(np.concatenate([coef for coef, _ in parts]), whole,
                                   rtol=1e-12, atol=0.0)


# SHA-256 of coef.tobytes() and the converged mask, as the kernel produced
# them before its working set was compacted. They pin every coefficient bit,
# the unconverged rows' included; like the goldens under tests/data, they
# hold for one BLAS build.
PINNED_KERNEL_CASES = {
    "mixed": (
        _mixed_chunk, None,
        "7252e13def3e3a10f090897c82f3ec5f3b3b6704c0f8e90c13afd0e0b6e4fbc1",
        "1110111011111111111111111111111111111111",
    ),
    "saturated": (
        _saturated_chunk, None,
        "2d61eea782bd10b3cfa87fddb9a426da910d1d106a9c56cd1fdbbc7dfe8334ac",
        "000000001001000101111010",
    ),
    "separated": (
        _separated_chunk, None,
        "ba49fc465c860ff45ded931e4630bf91bb564008255c72ca8fd6385360c280ed",
        "0000000000000000",
    ),
    "iteration_cap": (
        _mixed_chunk, 6,
        "12383e23b96bf4b753d813300beb3bd36b6e283786fb44756ddaec8b6932793e",
        "0000000010001000000000010010001000100000",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_KERNEL_CASES))
def test_count_weighted_fits_keep_their_bits(name, monkeypatch):
    make, cap, coef_digest, converged_bits = PINNED_KERNEL_CASES[name]
    if cap is not None:
        monkeypatch.setattr(glm, "MAX_ITERATIONS", cap)
    args = make()
    before = [arr.copy() for arr in args]
    coef, converged = fit_logistic_counts(*args)
    assert hashlib.sha256(coef.tobytes()).hexdigest() == coef_digest
    assert "".join("1" if c else "0" for c in converged) == converged_bits
    # the kernel reads its inputs only: callers reuse counts after the fit
    for arr, copy in zip(args, before):
        assert arr.tobytes() == copy.tobytes()


@pytest.mark.parametrize("name", sorted(PINNED_KERNEL_CASES))
def test_responses_fit_together_keep_each_ones_bits(name, monkeypatch):
    """Two responses on one design and counts, fit in one call, give each
    response's own fit bit for bit: the row gate is shared, the loop is not."""
    make, cap, _, _ = PINNED_KERNEL_CASES[name]
    if cap is not None:
        monkeypatch.setattr(glm, "MAX_ITERATIONS", cap)
    design, a, counts, start = make()
    responses, starts = np.stack([a, 1.0 - a]), np.stack([start, -0.5 * start])
    coef, converged = fit_logistic_counts(design, responses, counts, starts)
    assert coef.shape == (2, *counts.shape[:1], design.shape[1])
    for k in range(2):
        alone, alone_converged = fit_logistic_counts(design, responses[k], counts, starts[k])
        assert coef[k].tobytes() == alone.tobytes()
        np.testing.assert_array_equal(converged[k], alone_converged)


@pytest.mark.parametrize("name", sorted(LOGISTIC_ORACLE))
def test_logistic_gradient_is_checked_at_the_iteration_cap(name, monkeypatch):
    """A fit whose gradient first meets the tolerance after exactly
    MAX_ITERATIONS updates converges; one update fewer leaves it unconverged."""
    case = LOGISTIC_ORACLE[name]
    design = DesignMatrix.with_intercept(("x1",), [np.asarray(case["x"], dtype=float)])
    a = np.asarray(case["a"], dtype=float)
    needed = fit_logistic(design, a).iterations
    assert needed == {"six_point": 3, "eight_point": 5}[name]
    for cap, expected in ((needed, True), (needed - 1, False)):
        monkeypatch.setattr(glm, "MAX_ITERATIONS", cap)
        fit = fit_logistic(design, a)
        assert fit.converged is expected and not fit.diverged
        assert fit.iterations == cap
        assert (fit.final_gradient_norm <= glm.GRADIENT_TOL) is expected
        _, converged = fit_logistic_counts(design.values, a, np.ones((1, design.n)), np.zeros(2))
        assert converged.tolist() == [expected]


def test_logistic_deviance_path_is_monotone():
    case = LOGISTIC_ORACLE["eight_point"]
    design = DesignMatrix.with_intercept(("x1",), [np.asarray(case["x"], dtype=float)])
    fit = fit_logistic(design, np.asarray(case["a"], dtype=float))
    path = fit.deviance_path
    assert all(b <= a + 1e-12 for a, b in zip(path, path[1:]))
    assert fit.deviance == path[-1]


def test_predict_probs_reproduces_group_rates():
    case = LOGISTIC_ORACLE["six_point"]
    design = DesignMatrix.with_intercept(("x1",), [np.asarray(case["x"], dtype=float)])
    fit = fit_logistic(design, np.asarray(case["a"], dtype=float))
    batch = predict_probs(fit, np.asarray([[1.0, 0.0], [1.0, 1.0]]))
    # saturated two-level fit reproduces the group rates
    assert batch[0] == pytest.approx(1 / 3, abs=1e-9)
    assert batch[1] == pytest.approx(2 / 3, abs=1e-9)
    with pytest.raises(ValueError):
        predict_probs(fit, np.ones((2, 3)))


def test_design_matrix_validation():
    with pytest.raises(ValueError, match="unique"):
        DesignMatrix(("a", "a"), np.ones((3, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        DesignMatrix(("a",), np.asarray([[np.nan]]))
    with pytest.raises(ValueError):
        DesignMatrix.with_intercept((), [])


def _near_rank_one():
    """A huge first column and a second one just off it: rank 1 to matrix_rank,
    yet the second column is not within tolerance of its predecessor."""
    near = np.ones(10)
    near[-1] += 1e-5
    return DesignMatrix(("scaled", "near"), np.column_stack([1e12 * np.ones(10), near]))


@pytest.mark.parametrize("run, error, message", [
    (lambda: DesignMatrix(("a",), np.ones(3)), ValueError, "design values must be a 2-D array"),
    (lambda: DesignMatrix(("a",), np.ones((3, 2))), ValueError, "1 column names for 2 columns"),
    (lambda: fit_ols(DesignMatrix(("zero", "x"), np.column_stack([np.zeros(5), np.arange(5.0)])),
                     np.arange(5.0)),
     SingularDesignError, "design column 'zero' is all zeros"),
    (lambda: fit_ols(_near_rank_one(), np.arange(10.0)), SingularDesignError,
     "design is rank deficient near column 'near'"),
    (lambda: fit_ols(_design([[1, 0], [1, 1], [1, 2]]), np.zeros(2)), ValueError,
     "y must be a length-3 vector"),
    (lambda: fit_ols(_design([[1, 0], [1, 1], [1, 2]]), np.asarray([0.0, np.inf, 1.0])),
     ValueError, "y contains non-finite values"),
    (lambda: fit_logistic(_design([[1, 0], [1, 1], [1, 2]]), np.zeros((3, 1))), ValueError,
     "a must be a length-3 vector"),
    (lambda: fit_logistic(_design([[1, 0], [1, 1], [1, 2]]), np.asarray([0.0, 0.5, 1.0])),
     ValueError, "a must be binary 0/1"),
    (lambda: fit_logistic(_design([[1, 0], [1, 1], [1, 2]]), np.asarray([0.0, 1.0, 0.0]),
                          start=np.zeros(3)),
     ValueError, r"start must have shape \(2,\)"),
], ids=["design-shape", "design-names", "rank-zero-column", "rank-borderline", "ols-y-shape",
        "ols-y-finite", "logistic-a-shape", "logistic-a-binary", "logistic-start-shape"])
def test_design_and_fit_validation(run, error, message):
    with pytest.raises(error, match=message):
        run()


def test_logistic_coef_lookup_by_name():
    x = np.asarray([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    fit = fit_logistic(DesignMatrix.with_intercept(("x1",), [x]), np.asarray([0, 1, 0, 1, 1, 0.0]))
    assert fit.coef("intercept") == float(fit.coefficients[0])
    assert fit.coef("x1") == float(fit.coefficients[1])
    with pytest.raises(ValueError, match="not in tuple"):
        fit.coef("x9")
