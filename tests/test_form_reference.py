"""The points of every route and reconstruction against the full-data kernels
that computed them before each table entry had one count-weighted form.

The references below are those kernels, kept as they were: per-stratum
masks and ``_hayden_mean`` for the ``ps`` route, a stratum loop for
``direct``, and a mean over the subjects of each cell for the two
reconstructions, each fitting its principal scores with ``fit_logistic``
from zero. The form sums in another order, so the two agree to rounding.
These tolerances were fixed before the first comparison:

- the same exception class and message, or none on both sides;
- the same NaN cells;
- arm means, cell probabilities and record-adapter means within
  ``rtol=1e-12``, ``atol=0``; a ``diff`` cell, which can cancel, within
  1e-12 of the larger of its two arm means;
- the principal-score coefficients behind the points bit for bit, since
  both sides fit them with ``fit_logistic`` on the same rows;
- the same extreme-score warnings from ``estimate_mu_hayden``.

The inputs are every input CSV in ``tests/data``, 30 simulated trials (six
scenarios, five seeds, 300 subjects each), the stratum probabilities of the
two inputs with missing adherence, and for ``estimate_mu_hayden`` a trial
whose scores are mostly extreme.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from pcekit import estimators
from pcekit.core import (
    A_MISSING,
    JOINT_LABELS,
    CompleterRule,
    as_columns,
    as_parallel,
    completer_filter,
    completer_mask,
    load_columns,
    load_crossover_csv,
    load_parallel_csv,
    stratum_codes,
)
from pcekit.errors import InsufficientDataError, PcekitError
from pcekit.estimators import (
    PceMethod,
    PrincipalScoreModel,
    ProbMethod,
    estimate_mu_direct,
    estimate_mu_hayden,
    estimate_stratum_probs,
    fit_principal_score,
)
from pcekit.glm import DesignMatrix, fit_logistic, intercept_design, predict_probs
from pcekit.simulator import DgpConfig, generate_trial, scenario, scenario_names

DATA = Path(__file__).resolve().parent / "data"
RTOL = 1e-12
SCORE_CLIP = 1e-12
EXTREME_SCORE_BAND = (1e-3, 1.0 - 1e-3)

# ---- the full-data reference kernels ---------------------------------------


def _fit_score(x, a, names, arm, start=None):
    design = DesignMatrix(("intercept", *names), intercept_design(x))
    fit = fit_logistic(design, a.astype(float), start=start)
    return PrincipalScoreModel(arm=arm, fit=fit, covariate_names=names)


def _scores(model, x):
    return predict_probs(model.fit, intercept_design(x))


def _clip_scores(g):
    frac_extreme = float(np.mean((g < EXTREME_SCORE_BAND[0]) | (g > EXTREME_SCORE_BAND[1])))
    if frac_extreme > 0.5:
        warnings.warn(
            f"{frac_extreme:.0%} of principal scores are outside [0.001, 0.999]; "
            "weights may be unstable",
            stacklevel=2,
        )
    return np.clip(g, SCORE_CLIP, 1.0 - SCORE_CLIP)


def _adherence_rows(cols):
    observed = cols.a != A_MISSING
    if not observed.any(axis=0).all():
        raise InsufficientDataError("need adherence observations in both arms")
    return observed


def _fit_both_arms(cols, observed):
    return tuple(_fit_score(cols.x[rows], cols.a[rows, t], cols.covariate_names, t)
                 for t, rows in enumerate(observed.T))


def _cell_table(g0, g1):
    return np.stack([(1.0 - g0) * (1.0 - g1), (1.0 - g0) * g1, g0 * (1.0 - g1), g0 * g1], axis=-1)


def hayden_weights(a, g, stratum, arm):
    """Weights 1{a = own coordinate} times g or 1-g, as the stratum's
    cross-arm coordinate is 1 or 0."""
    own_coord = stratum.a0 if arm == 0 else stratum.a1
    cross_coord = stratum.a1 if arm == 0 else stratum.a0
    return (a == own_coord) * (g if cross_coord == 1 else 1.0 - g)


def hayden_mean(a, y, g, stratum, arm):
    """Weighted mean of one arm's outcomes y; NaN when the weight is zero."""
    w = hayden_weights(a, g, stratum, arm)
    total = float(np.sum(w))
    if total <= 0.0:
        return float("nan")
    return float(np.sum(w * y) / total)


def ps_cells(cols):
    """(4, 2) principal-score-weighted arm means and both arms' coefficients."""
    observed = _adherence_rows(cols)
    models = _fit_both_arms(cols, observed)
    mu = np.full((len(JOINT_LABELS), 2), np.nan)
    for t in (0, 1):
        use = observed[:, t] & ~np.isnan(cols.y[:, t])
        if not use.any():
            continue
        g = _clip_scores(_scores(models[1 - t], cols.x[use]))
        a, y = cols.a[use, t], cols.y[use, t]
        mu[:, t] = [hayden_mean(a, y, g, stratum, t) for stratum in JOINT_LABELS]
    mu[np.isnan(mu).any(axis=1)] = np.nan
    return mu, np.stack([m.fit.coefficients for m in models])


def direct_cells(cols):
    """(4, 2) arm means per joint stratum over full completers."""
    if not cols.crossover:
        raise PcekitError("direct stratification needs crossover data")
    complete = completer_mask(cols, CompleterRule.BOTH)
    codes, y = stratum_codes(cols.a[complete]), cols.y[complete]
    mu = np.full((len(JOINT_LABELS), 2), np.nan)
    for i in range(len(JOINT_LABELS)):
        mask = codes == i
        if mask.any():
            mu[i] = np.mean(y[mask, 0]), np.mean(y[mask, 1])
    return mu, None


def cond_indep_cells(cols):
    m0, m1 = _fit_both_arms(cols, _adherence_rows(cols))
    cells = np.ascontiguousarray(_cell_table(_scores(m0, cols.x), _scores(m1, cols.x)).T)
    return cells.mean(axis=1), np.stack([m0.fit.coefficients, m1.fit.coefficients])


def indep_cells(cols):
    p0, p1 = (np.mean(cols.a[rows, t]) for t, rows in enumerate(_adherence_rows(cols).T))
    return _cell_table(p0, p1), None


def direct_mean(cols, stratum, t):
    """``estimate_mu_direct``'s mean, with its inputs already checked."""
    in_stratum = stratum_codes(cols.a) == JOINT_LABELS.index(stratum)
    return float(np.mean(cols.y[in_stratum, t])) if in_stratum.any() else float("nan")


ROUTES = {PceMethod.PS: ps_cells, PceMethod.DIRECT: direct_cells}
RECONSTRUCTIONS = {ProbMethod.COND_INDEP: cond_indep_cells, ProbMethod.INDEP: indep_cells}

# ---- the comparison ---------------------------------------------------------


def outcome(run):
    """What run returned, or the class and message of the pcekit error it raised."""
    try:
        return run()
    except PcekitError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want, where):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want, where
        return False
    assert not (isinstance(got, tuple) and isinstance(got[0], type)), (where, got)
    return True


def assert_close(got, want, where):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, where
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=where)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=where)


def assert_table_close(got, mus, where):
    """The (method, stratum, quantity) table against the reference arm means."""
    got = np.asarray(got).reshape(len(mus), len(JOINT_LABELS), 3)
    for table, mu in zip(got, mus):
        assert_close(table[:, :2], mu, where)
        diff = mu[:, 1] - mu[:, 0]
        np.testing.assert_array_equal(np.isnan(table[:, 2]), np.isnan(diff), err_msg=where)
        scale = np.max(np.abs(mu), axis=1)
        assert np.all(np.abs(table[:, 2] - diff)[~np.isnan(diff)]
                      <= RTOL * scale[~np.isnan(diff)]), where


INPUTS = sorted(p.name for p in DATA.glob("*.csv")
                if not p.name.endswith(".out.csv") and not p.name.endswith(".truth.csv"))
TRIALS = [(name, seed) for name in scenario_names() for seed in range(5)]


def input_columns(name):
    return load_columns(DATA / name)


def trial_records(name, seed):
    return generate_trial(scenario(name, n_subjects=300, seed=seed))


def test_the_inputs_are_the_ones_named():
    assert INPUTS == ["crossover_missing.csv", "empty_stratum.csv", "parallel_ps.csv",
                      "simulate_a4p.trial.csv", "sparse_refit.csv", "sparse_stratum.csv"]
    assert len(TRIALS) == 30


def check_routes(cols, where):
    methods = list(PceMethod) if cols.crossover else [PceMethod.PS]
    for chosen in [[m] for m in methods] + ([methods[::-1]] if len(methods) > 1 else []):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = [outcome(lambda m=m: ROUTES[m](cols)) for m in chosen]
            got = outcome(lambda: estimators._table_values(cols, chosen, None))
        failed = [w for w in want if isinstance(w, tuple) and isinstance(w[0], type)]
        if failed:  # the first route that fails fails the table
            assert_same_outcome(got, failed[0], where)
            continue
        assert_same_outcome(got, None, where)
        values, starts = got
        assert_table_close(values, [mu for mu, _ in want], f"{where} {chosen}")
        fits = [fit for fit in (f for _, f in want) if fit is not None]
        if fits:
            np.testing.assert_array_equal(np.asarray(starts), fits[0], err_msg=where)


def check_reconstructions(cols, where):
    for method, reference in RECONSTRUCTIONS.items():
        want = outcome(lambda: reference(cols)[0])
        got = outcome(lambda: estimators._prob_vector(cols, method))
        if assert_same_outcome(got, want, f"{where} {method.value}"):
            assert_close(got, want, f"{where} {method.value}")


@pytest.mark.parametrize("name", INPUTS)
def test_points_of_each_input_match_the_reference(name):
    cols = input_columns(name)
    check_routes(cols, name)
    check_reconstructions(cols, name)


@pytest.mark.parametrize("name, seed", TRIALS, ids=[f"{n}-{s}" for n, s in TRIALS])
def test_points_of_each_simulated_trial_match_the_reference(name, seed):
    cols = as_columns(trial_records(name, seed))
    check_routes(cols, f"{name} seed {seed}")
    check_reconstructions(cols, f"{name} seed {seed}")
    completers = cols.take(completer_mask(cols, CompleterRule.STRATUM_VAR))
    check_reconstructions(completers, f"{name} seed {seed} completers")


# today's values, to six decimals, in JOINT_LABELS order
MISSING_ADHERENCE_PROBS = {
    ("parallel_ps.csv", ProbMethod.COND_INDEP): (0.301656, 0.240502, 0.177861, 0.279982),
    ("crossover_missing.csv", ProbMethod.COND_INDEP): (0.323359, 0.242697, 0.195829, 0.238115),
    ("parallel_ps.csv", ProbMethod.INDEP): (0.264151, 0.254368, 0.245283, 0.236198),
    ("crossover_missing.csv", ProbMethod.INDEP): (0.297832, 0.277640, 0.219712, 0.204816),
}


@pytest.mark.parametrize("name, method", list(MISSING_ADHERENCE_PROBS),
                         ids=[f"{n}-{m.value}" for n, m in MISSING_ADHERENCE_PROBS])
def test_stratum_probs_with_missing_adherence_match_the_reference(name, method):
    data = (load_parallel_csv if name == "parallel_ps.csv" else load_crossover_csv)(DATA / name)
    got = estimate_stratum_probs(data, method)
    want = RECONSTRUCTIONS[method](as_columns(data))[0]
    assert_close([got.probs[lab] for lab in JOINT_LABELS], want, name)
    assert [round(got.probs[lab], 6) for lab in JOINT_LABELS] == list(
        MISSING_ADHERENCE_PROBS[name, method])


def hayden_cases():
    """(where, arm, the arm's complete observations, the other arm's with adherence)."""
    parallel = load_parallel_csv(DATA / "parallel_ps.csv")
    sources = [("parallel_ps.csv", [[o for o in parallel if o.t == t] for t in (0, 1)])]
    for name, seed in TRIALS[::4]:
        records = trial_records(name, seed)
        sources.append((f"{name} seed {seed}", [as_parallel(records, t) for t in (0, 1)]))
    # a covariate so spread that most scores pass the band, so both sides warn
    records = generate_trial(DgpConfig(n_subjects=200, seed=2, sigma_x=8.0, beta=(1.0, 1.0),
                                       gamma=(0.0, 1.0)))
    sources.append(("spread covariate", [as_parallel(records, t) for t in (0, 1)]))
    for where, by_arm in sources:
        for t in (0, 1):
            own = [o for o in by_arm[t] if o.a is not None and o.y is not None]
            cross = [o for o in by_arm[1 - t] if o.a is not None]
            yield f"{where} arm {t}", t, own, cross


@pytest.mark.parametrize("where, arm, own, cross", list(hayden_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_record_adapters_match_the_reference(where, arm, own, cross):
    model = fit_principal_score(cross)
    cols = as_columns(own)
    a, y = cols.a[:, arm], cols.y[:, arm]
    for stratum in JOINT_LABELS:
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            g = _clip_scores(_scores(model, cols.x))
            want = hayden_mean(a, y, g, stratum, arm)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = outcome(lambda: estimate_mu_hayden(own, model, stratum))
        assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
        if where.startswith("spread covariate"):
            assert got_warnings, where
        if np.isnan(want):
            assert got[0].__name__ == "InestimableStratumError", where
        else:
            assert_close(got, want, f"{where} {stratum}")


@pytest.mark.parametrize("name, seed", TRIALS[::3], ids=[f"{n}-{s}" for n, s in TRIALS[::3]])
def test_direct_record_adapter_matches_the_reference(name, seed):
    records = completer_filter(trial_records(name, seed), CompleterRule.STRATUM_VAR)
    cols = as_columns(records)
    for t in (0, 1):
        for stratum in JOINT_LABELS:
            want = direct_mean(cols, stratum, t)
            got = outcome(lambda: estimate_mu_direct(records, stratum, t))
            where = f"{name} seed {seed} {stratum} arm {t}"
            if isinstance(got, tuple):  # an empty stratum, or a member without an arm-t outcome
                assert got[0].__name__ in ("InestimableStratumError", "MissingDataError"), where
                assert np.isnan(want), where
                continue
            assert_close(got, want, where)
