import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from scipy.special import expit

from pcekit import core, diagnostics, estimators, resampling
from pcekit.core import (
    JOINT_LABELS,
    CompleterRule,
    StratumLabel,
    as_columns,
    as_parallel,
    completer_filter,
    load_crossover_csv,
)
from pcekit.diagnostics import (
    MonotonicityDirection,
    crossover_effects_test,
    ignorability_regressions,
    independence_test,
    monotonicity_report,
)
from pcekit.errors import (
    DegenerateResponseError,
    DiagnosticError,
    InsufficientDataError,
    MissingDataError,
    PcekitError,
    SingularDesignError,
)
from pcekit.estimators import ProbMethod, estimate_pce_table
from pcekit.glm import DesignMatrix, fit_logistic, fit_ols
from pcekit.resampling import (
    BootstrapSpec,
    exceedance_p,
    resample_counts,
    resample_index_matrix,
)
from pcekit.simulator import generate_trial, scenario

from conftest import make_record

DATA = Path(__file__).resolve().parent / "data"


def eight_records():
    # arm-coordinate strata: 2x S00, 1x S01, 1x S10, 4x S11
    return (
        [make_record(f"a{i}", "CF", a=(0, 0), y=(1.0, 2.0)) for i in range(2)]
        + [make_record("b", "CF", a=(0, 1), y=(2.0, 1.0))]
        + [make_record("c", "CF", a=(1, 0), y=(3.0, 5.0))]
        + [make_record(f"d{i}", "EF", a=(1, 1), y=(4.0 + i, 2.0 + i)) for i in range(4)]
    )


def test_monotonicity_directions():
    records = eight_records()
    inc = monotonicity_report(records, MonotonicityDirection.INCREASING)
    assert inc.violating_proportion == 1 / 8
    assert inc.table.counts[StratumLabel(1, 0)] == 1
    assert "S10" in inc.note and "12.5%" in inc.note
    dec = monotonicity_report(records, MonotonicityDirection.DECREASING)
    assert dec.violating_proportion == 1 / 8
    eq = monotonicity_report(records, MonotonicityDirection.EQUAL)
    assert eq.violating_proportion == 2 / 8
    d = inc.to_dict()
    assert d["n"] == 8
    assert d["counts"]["S11"] == 4
    assert d["violating_proportion"] == 1 / 8


def test_monotonicity_takes_direction_values():
    records = eight_records()
    for direction in MonotonicityDirection:
        want = monotonicity_report(records, direction)
        assert monotonicity_report(records, direction.value) == want
        assert want.direction is direction
    with pytest.raises(ValueError, match="'sideways'"):
        monotonicity_report(records, "sideways")


def test_monotonicity_needs_classified_records():
    with pytest.raises(MissingDataError):
        monotonicity_report([make_record("a", a=(None, 1))])


def test_ignorability_rows_match_direct_ols():
    rng = np.random.default_rng(4)
    records = []
    for i in range(40):
        seq = "CF" if i % 2 == 0 else "EF"
        a = (int(rng.random() < 0.5), int(rng.random() < 0.6))
        y = (float(rng.standard_normal() + a[0]), float(rng.standard_normal()))
        records.append(make_record(f"s{i}", seq, x=(float(i % 7),), a=a, y=y))
    report = ignorability_regressions(records)
    assert [((r.outcome_arm, r.adherence_arm)) for r in report.rows] == [
        (0, 0),
        (1, 1),
        (0, 1),
        (1, 0),
    ]
    assert report.n_subjects == 40

    # rebuild the (0, 1) row by hand: y(0) on adherence(1), x, period(y(0))
    y0 = np.asarray([r.y_for_arm(0) for r in records])
    a1 = np.asarray([float(r.a_for_arm(1)) for r in records])
    x = np.asarray([r.covariates[0] for r in records])
    p2 = np.asarray([float(r.period_of_arm(0) == 2) for r in records])
    design = DesignMatrix.with_intercept(("adherence", "x_base", "period2"), [a1, x, p2])
    fit = fit_ols(design, y0)
    row = report.row(0, 1)
    assert row.coefficient == pytest.approx(fit.coef("adherence"), abs=1e-12)
    assert row.p_value == pytest.approx(float(fit.p_values[1]), abs=1e-12)
    # adjusted means differ by exactly the adherence coefficient
    assert row.adjusted_mean_a1 - row.adjusted_mean_a0 == pytest.approx(
        row.coefficient, abs=1e-12
    )
    base = fit.coef("intercept") + fit.coef("x_base") * x.mean() + fit.coef("period2") * p2.mean()
    assert row.adjusted_mean_a0 == pytest.approx(base, abs=1e-12)
    with pytest.raises(KeyError):
        report.row(2, 0)


def test_ignorability_requires_completers():
    with pytest.raises(MissingDataError, match="BOTH"):
        ignorability_regressions([make_record("a", y=(None, 1.0))])
    with pytest.raises(InsufficientDataError):
        ignorability_regressions([])


def test_ignorability_detects_own_arm_dependence():
    # cross-arm rows test a true null, so some seeds dip under 0.05 by chance;
    # seed 2 is a representative clean draw
    cfg = scenario("a3p_violated", n_subjects=300, seed=2)
    records = completer_filter(generate_trial(cfg), CompleterRule.BOTH)
    report = ignorability_regressions(records)
    assert report.row(0, 0).p_value < 0.001
    assert report.row(1, 1).p_value < 0.001
    assert report.row(0, 1).p_value > 0.05
    assert report.row(1, 0).p_value > 0.05


def test_independence_test_validation():
    records = eight_records()
    with pytest.raises(ValueError, match="model-based"):
        independence_test(records, method=ProbMethod.OBSERVED)
    with pytest.raises(InsufficientDataError):
        independence_test(records[:3])
    with pytest.raises(MissingDataError, match="STRATUM_VAR"):
        independence_test(records + [make_record("m", a=(None, 1))])
    with pytest.raises(ValueError):
        independence_test(records, n_bootstrap=0)


def test_independence_test_is_deterministic():
    records = generate_trial(scenario("paper_like", n_subjects=80, seed=6))
    r1 = independence_test(records, n_bootstrap=60, seed=9)
    r2 = independence_test(records, n_bootstrap=60, seed=9)
    assert r1.p_value == r2.p_value
    assert r1.discrepancy == r2.discrepancy
    assert 0.0 < r1.p_value <= 1.0
    assert r1.n_bootstrap == 60
    d = r1.to_dict()
    assert set(d["observed"]) == {"S00", "S01", "S10", "S11"}


def test_independence_test_unconditional_method():
    records = generate_trial(scenario("paper_like", n_subjects=80, seed=6))
    rep = independence_test(records, method=ProbMethod.INDEP, n_bootstrap=60, seed=9)
    assert rep.method is ProbMethod.INDEP
    assert rep.n_rejected == 0
    assert 0.0 < rep.p_value <= 1.0
    # estimated cells factor into marginals exactly
    p1 = rep.estimated[StratumLabel(1, 1)] + rep.estimated[StratumLabel(0, 1)]
    p0 = rep.estimated[StratumLabel(1, 1)] + rep.estimated[StratumLabel(1, 0)]
    assert rep.estimated[StratumLabel(1, 1)] == pytest.approx(p0 * p1, abs=1e-12)


def test_independence_test_aborts_on_sparse_data():
    records = [
        make_record(f"s{i}", "CF", a=(i % 2, int(i == 0)), y=(1.0, 2.0)) for i in range(6)
    ]
    with pytest.raises(DiagnosticError, match="sparse"):
        independence_test(records, covariates=(), n_bootstrap=100, seed=0)


def one_at_a_time_null(records, n_bootstrap, seed):
    """The cond-indep null by one resample and two fit_logistic calls at a time,
    redrawing resamples that cannot be refit: the reference for the batched test."""
    report = independence_test(records, n_bootstrap=1, seed=seed)
    gap0 = np.asarray([report.observed[lab] - report.estimated[lab] for lab in JOINT_LABELS])
    n = len(records)
    a = np.asarray([[r.a_for_arm(0), r.a_for_arm(1)] for r in records])
    design = DesignMatrix.with_intercept(records[0].covariate_names,
                                         np.asarray([r.covariates for r in records]).T)
    warm = [fit_logistic(design, a[:, t].astype(float)).coefficients for t in (0, 1)]
    d_null, ssq_null, rejected, attempt = [], [], 0, 0
    while len(d_null) < n_bootstrap:
        idx = resample_index_matrix(seed, attempt, 1, n)[0]
        attempt += 1
        resample = DesignMatrix(design.names, design.values[idx])
        try:
            g = []
            for t in (0, 1):
                fit = fit_logistic(resample, a[idx, t].astype(float), start=warm[t])
                if not fit.converged:
                    raise DegenerateResponseError("no convergence")
                g.append(expit(resample.values @ fit.coefficients))
        except (DegenerateResponseError, SingularDesignError):
            rejected += 1
            continue
        obs = np.bincount(2 * a[idx, 0] + a[idx, 1], minlength=4) / n
        est = [np.mean((g[0] if lab.a0 else 1 - g[0]) * (g[1] if lab.a1 else 1 - g[1]))
               for lab in JOINT_LABELS]
        centered = obs - est - gap0
        d_null.append(np.max(np.abs(centered)))
        ssq_null.append(np.sum(centered**2))
    return report, d_null, ssq_null, rejected


@pytest.mark.parametrize("case", ["clean", "sparse"])
def test_independence_test_matches_one_at_a_time_refits(case):
    if case == "clean":
        records = generate_trial(scenario("a4p_violated", n_subjects=90, seed=2))
        n_bootstrap, seed = 80, 4
    else:  # some resamples separate an arm's adherence and are redrawn
        records = load_crossover_csv(DATA / "sparse_refit.csv")
        n_bootstrap, seed = 60, 5
    rep = independence_test(records, n_bootstrap=n_bootstrap, seed=seed)
    ref, d_null, ssq_null, rejected = one_at_a_time_null(records, n_bootstrap, seed)
    assert (rep.n_rejected > 0) == (case == "sparse")
    assert rep.n_rejected == rejected
    assert rep.p_value == exceedance_p(d_null, ref.discrepancy)
    assert rep.secondary_p_value == exceedance_p(ssq_null, ref.secondary_discrepancy)


def test_independence_rows_left_by_the_batched_fit_are_refit_alone(monkeypatch):
    """Every row the batched fit leaves is refit by fit_logistic, as in the reference."""
    records = generate_trial(scenario("paper_like", n_subjects=90, seed=2))
    nulls = []
    draw = diagnostics.draw_replicates

    def leave_every_row(design, a, counts, start):
        rows = (*np.shape(a)[:-1], counts.shape[0])  # (b,), or (k, b) for k responses
        return np.full((*rows, design.shape[1]), np.nan), np.zeros(rows, bool)

    def recording_draw(*args, **kwargs):
        result = draw(*args, **kwargs)
        nulls.append(result[0])
        return result

    monkeypatch.setattr(estimators, "fit_logistic_counts", leave_every_row)
    monkeypatch.setattr(diagnostics, "draw_replicates", recording_draw)
    rep = independence_test(records, n_bootstrap=40, seed=4)
    ref, d_null, ssq_null, rejected = one_at_a_time_null(records, 40, 4)
    assert rejected == 0 and 0.1 < rep.p_value < 1.0
    np.testing.assert_allclose(nulls[0], np.column_stack([d_null, ssq_null]), rtol=1e-12)
    assert rep.p_value == exceedance_p(d_null, ref.discrepancy)


def test_independence_refits_do_not_grow_with_replicates(monkeypatch):
    """Resamples are refit in batches: fit_logistic runs only on the full data."""
    records = generate_trial(scenario("paper_like", n_subjects=200, seed=3))
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit_logistic(*args, **kwargs)

    # diagnostics fits only through estimators; patching it too counts any fit of its own
    for module in (diagnostics, estimators):
        monkeypatch.setattr(module, "fit_logistic", counting_fit, raising=False)

    def fits(n_bootstrap):
        calls.clear()
        rep = independence_test(records, n_bootstrap=n_bootstrap, seed=1)
        assert rep.n_rejected == 0
        return len(calls)

    # one fit per arm: the full-data estimate's fits are the refits' warm starts
    assert fits(20) == fits(1) == 2


@pytest.mark.parametrize("case", ["cond-indep", "indep", "sparse"])
def test_independence_report_does_not_depend_on_the_chunk_budget(case, monkeypatch):
    """The test publishes counts over its replicates, not their values, so
    half the chunk budget gives the same report."""
    if case == "sparse":  # about one resample in ten is redrawn
        records, method, n_bootstrap = load_crossover_csv(DATA / "sparse_refit.csv"), "cond-indep", 2000
    else:
        records = generate_trial(scenario("a4p_violated", n_subjects=500, seed=1))
        method, n_bootstrap = case, 300
    own = independence_test(records, method, n_bootstrap=n_bootstrap, seed=3)
    assert resampling._CHUNK_ELEMENTS == 2**15
    monkeypatch.setattr(resampling, "_CHUNK_ELEMENTS", 2**14)
    assert independence_test(records, method, n_bootstrap=n_bootstrap, seed=3) == own
    assert (own.n_rejected > 0) == (case == "sparse")


def test_both_resampling_loops_draw_chunks_of_one_budget(monkeypatch):
    """Both loops take 2^15 index draws per chunk: 163 rows at n = 200 for
    the bootstrap, 65 rows at n = 500 for the independence test."""
    drawn = []
    real = resampling.resample_index_matrix

    def spy(seed, first, count, n):
        drawn.append((n, count))
        return real(seed, first, count, n)

    monkeypatch.setattr(resampling, "resample_index_matrix", spy)
    # a forked child's draws would not be seen here
    monkeypatch.setattr(resampling, "_process_count", lambda items: 1)
    small = generate_trial(scenario("paper_like", n_subjects=200, seed=1))
    estimate_pce_table(small, bootstrap_spec=BootstrapSpec(n_replicates=200, seed=1))
    assert drawn == [(200, 163), (200, 37)]
    drawn.clear()
    large = generate_trial(scenario("a4p_violated", n_subjects=500, seed=1))
    assert independence_test(large, n_bootstrap=150, seed=1).n_rejected == 0
    assert drawn == [(500, 65), (500, 65), (500, 20)]


def test_independence_fallback_names_separation_as_the_estimate_bootstrap_does(monkeypatch):
    """A resample whose refit separates counts as ConvergenceError, as in estimate's."""
    records = load_crossover_csv(DATA / "sparse_refit.csv")
    drawn = []
    draw = diagnostics.draw_replicates

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(diagnostics, "draw_replicates", recording_draw)
    rep = independence_test(records, n_bootstrap=60, seed=5)
    _, failure_counts = drawn[0]
    assert failure_counts == {"ConvergenceError": 5}
    assert rep.n_rejected == 5


def test_independence_refits_leave_their_inputs_unchanged(monkeypatch):
    """The batched fit may alias counts, which the test reads again after it."""
    records = generate_trial(scenario("paper_like", n_subjects=120, seed=6))
    fit = estimators.fit_logistic_counts
    checked = []

    def checking_fit(design, a, counts, start):
        before = [np.array(arr, copy=True) for arr in (design, a, counts, start)]
        result = fit(design, a, counts, start)
        for arr, copy in zip((design, a, counts, start), before):
            assert np.asarray(arr).tobytes() == copy.tobytes()
        checked.append(counts.dtype == float)
        return result

    monkeypatch.setattr(estimators, "fit_logistic_counts", checking_fit)
    assert independence_test(records, n_bootstrap=60, seed=2).n_rejected == 0
    assert checked and all(checked)  # float counts reach the kernel as they are


def subject_major_cell_sums(counts, g0, g1):
    """Reference for ``estimators._cell_sums``: each cell's products laid out
    subject-major, (n, 4, b), and summed down the outer axis, which adds the
    subjects one after another as a sum over the middle axis of the (b, n, 4)
    product table does."""
    c, h0, h1 = counts.T, g0.T, g1.T
    u0, u1 = 1.0 - h0, 1.0 - h1
    n, b = c.shape
    terms = np.empty((n, len(JOINT_LABELS), b))
    for k, (p, q) in enumerate(((u0, u1), (u0, h1), (h0, u1), (h0, h1))):
        np.multiply(p, q, out=terms[:, k])
        terms[:, k] *= c
    return np.ascontiguousarray(np.add.reduce(terms, axis=0).T)


def test_cell_sums_agree_with_the_subject_major_and_product_table_sums():
    """Only the order of the additions may differ, so the sums agree to
    rounding; rtol is the chunk form's own against its full-data form."""
    rng = np.random.default_rng(23)
    shapes = [(1, 5), (1, 9), (1, 501), (2, 7), (3, 1), (32, 500), (81, 200)]
    shapes += [(int(rng.integers(1, 50)), int(rng.integers(1, 700))) for _ in range(40)]
    for b, n in shapes:
        counts = resample_counts(rng.integers(0, n, size=(b, n)), n)
        counts[:, rng.random(n) < 0.2] = 0.0  # subjects no resample draws
        g0, g1 = expit(rng.normal(0.0, 2.0, size=(2, b, n)))
        got = estimators._cell_sums(counts, g0, g1)
        assert got.shape == (b, len(JOINT_LABELS)), (b, n)
        np.testing.assert_allclose(got, subject_major_cell_sums(counts, g0, g1), rtol=1e-12)
        table = np.sum(counts[:, :, None] * estimators._cell_table(g0, g1), axis=1)
        np.testing.assert_allclose(got, table, rtol=1e-12)


@pytest.mark.parametrize("case", ["sparse", "a4p_violated", "paper_like"])
def test_independence_report_does_not_depend_on_how_cells_are_summed(case, monkeypatch):
    """The report publishes counts over the replicates, not their values, so
    the subject-major cell sums give the same report: with rejections, and
    with p-values above their floor of 1/(B+1)."""
    if case == "sparse":
        records, n_bootstrap = load_crossover_csv(DATA / "sparse_refit.csv"), 2000
    else:
        n, n_bootstrap = (500, 300) if case == "a4p_violated" else (163, 400)
        records = generate_trial(scenario(case, n_subjects=n, seed=1))
    own = independence_test(records, n_bootstrap=n_bootstrap, seed=3)
    monkeypatch.setattr(estimators, "_cell_sums", subject_major_cell_sums)
    assert independence_test(records, n_bootstrap=n_bootstrap, seed=3) == own
    assert (own.n_rejected > 0) == (case == "sparse")
    assert (own.p_value > 1 / (n_bootstrap + 1)) == (case != "a4p_violated")


@pytest.mark.parametrize("method", list(estimators._RECONSTRUCTIONS), ids=lambda m: m.value)
def test_reconstruction_chunk_form_on_the_full_data_is_its_full_data_form(method):
    """Each reconstruction's chunk form on one all-ones row is its full-data
    form: cond-indep to rounding, as the batched fit agrees with the exact
    one, and indep bit for bit, as its rates are whole counts over n."""
    full, chunk = estimators._RECONSTRUCTIONS[method]
    records = generate_trial(scenario("paper_like", n_subjects=200, seed=3))
    cols = as_columns(completer_filter(records, CompleterRule.STRATUM_VAR))
    warm = full(cols, (None, None))[1]
    zero = np.zeros(cols.x.shape[1] + 1)
    ones = np.ones((1, len(cols)))
    for starts in ((zero, zero), warm):
        want = full(cols, starts)[0]
        got, left = chunk(cols, ones, starts)
        assert got.shape == (1, len(JOINT_LABELS)) and left.tolist() == [False]
        if method is ProbMethod.INDEP:
            assert got[0].tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got[0], want, rtol=1e-12)


def test_independence_rows_left_by_the_indep_chunk_form_are_refit_alone(monkeypatch):
    """A row indep's chunk form leaves is refit by its full-data form, to the same bits."""
    records = completer_filter(generate_trial(scenario("paper_like", n_subjects=150, seed=5)),
                               CompleterRule.STRATUM_VAR)
    want = independence_test(records, ProbMethod.INDEP, n_bootstrap=80, seed=3)
    full, chunk = estimators._RECONSTRUCTIONS[ProbMethod.INDEP]
    calls = []

    def counting_full(cols, starts):
        calls.append(len(cols))
        return full(cols, starts)

    def leave_every_row(cols, counts, starts):
        return chunk(cols, counts, starts)[0], np.ones(len(counts), dtype=bool)

    monkeypatch.setitem(estimators._RECONSTRUCTIONS, ProbMethod.INDEP,
                        (counting_full, leave_every_row))
    got = independence_test(records, ProbMethod.INDEP, n_bootstrap=80, seed=3)
    assert len(calls) == 1 + 80  # the estimate, then every replicate alone
    assert got == want  # p-values included, to the bit


def test_independence_test_takes_method_values():
    records = completer_filter(generate_trial(scenario("paper_like", n_subjects=120, seed=4)),
                               CompleterRule.STRATUM_VAR)
    for method in estimators._RECONSTRUCTIONS:
        want = independence_test(records, method, n_bootstrap=40, seed=1)
        assert independence_test(records, method.value, n_bootstrap=40, seed=1) == want
        assert want.method is method
    with pytest.raises(ValueError, match="'bogus'"):
        independence_test(records, "bogus", n_bootstrap=40)


def test_crossover_effects_hand_values():
    records = [
        make_record(f"cf{i}", "CF", y=(float(i), 0.0)) for i in (1, 2, 3)
    ] + [make_record(f"ef{i}", "EF", y=(float(i), 0.0)) for i in (4, 5, 6)]
    rep = crossover_effects_test(records)
    assert rep.n_cf == 3 and rep.n_ef == 3
    assert rep.treatment_effect == pytest.approx(1.5, abs=1e-12)
    assert rep.period_effect == pytest.approx(-3.5, abs=1e-12)
    # pooled two-sample t with means 5 vs 2, sp2 = 1, se = sqrt(2/3)
    assert rep.treatment_t == pytest.approx(3.6742346141747673, abs=1e-12)
    assert rep.treatment_p == pytest.approx(0.021311641128756723, abs=1e-12)
    assert rep.period_t == pytest.approx(8.573214099741123, abs=1e-12)
    assert rep.period_p == pytest.approx(0.0010166626172891212, abs=1e-12)
    assert rep.sequence_t == pytest.approx(-3.6742346141747673, abs=1e-12)
    assert rep.sequence_p == pytest.approx(rep.treatment_p, abs=1e-12)
    d = rep.to_dict()
    assert d["n_cf"] == 3 and d["n_ef"] == 3


def test_crossover_effects_degenerate_spread():
    records = [
        make_record("cf1", "CF", y=(1.0, 0.0)),
        make_record("cf2", "CF", y=(1.0, 0.0)),
        make_record("ef1", "EF", y=(1.0, 0.0)),
        make_record("ef2", "EF", y=(1.0, 0.0)),
    ]
    rep = crossover_effects_test(records)
    assert rep.treatment_t == 0.0 and rep.treatment_p == 1.0
    # zero spread with a nonzero mean gap pins the period t at infinity
    assert math.isinf(rep.period_t)
    assert rep.period_p == 0.0


def test_crossover_effects_validation():
    with pytest.raises(MissingDataError, match="OUTCOME"):
        crossover_effects_test([make_record("a", y=(None, 1.0))])
    few = [
        make_record("cf1", "CF"),
        make_record("cf2", "CF"),
        make_record("ef1", "EF"),
    ]
    with pytest.raises(InsufficientDataError, match="EF=1"):
        crossover_effects_test(few)


DIAGNOSTICS = {
    "monotonicity": monotonicity_report,
    "ignorability": ignorability_regressions,
    "independence": lambda data: independence_test(data, n_bootstrap=30, seed=2),
    "effects": crossover_effects_test,
}
# the completer rules under which each diagnostic has the data it needs
NEEDS = {
    "monotonicity": {CompleterRule.STRATUM_VAR, CompleterRule.BOTH},
    "ignorability": {CompleterRule.BOTH},
    "independence": {CompleterRule.STRATUM_VAR, CompleterRule.BOTH},
    "effects": {CompleterRule.OUTCOME, CompleterRule.BOTH},
}


def _outcome(diagnostic, data):
    """Whether a diagnostic gave a report, and that report or the package
    error it raised, as text."""
    try:
        return True, repr(diagnostic(data))
    except PcekitError as exc:
        return False, f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", ["paper_like", "a4p_violated"])
def test_diagnostics_give_the_same_report_on_columns(name):
    cfg = dataclasses.replace(scenario(name, n_subjects=120, seed=3), missing_y_prob=(0.1, 0.15))
    # every ninth subject also lacks its period-1 adherence
    records = [dataclasses.replace(r, a_p1=None) if i % 9 == 4 else r
               for i, r in enumerate(generate_trial(cfg))]
    for rule in (CompleterRule.OUTCOME, CompleterRule.STRATUM_VAR):
        assert len(completer_filter(records, rule)) < len(records)
    cols = as_columns(records)
    for rule in CompleterRule:
        kept = completer_filter(records, rule)
        kept_cols = cols.take(core.completer_mask(cols, rule))
        assert len(kept_cols) == len(kept)
        for check, diagnostic in DIAGNOSTICS.items():
            expected = _outcome(diagnostic, kept)
            assert expected[0] == (rule in NEEDS[check]), (check, rule, expected)
            assert _outcome(diagnostic, as_columns(kept)) == expected, (check, rule)
            assert _outcome(diagnostic, kept_cols) == expected, (check, rule)


def test_diagnostics_reject_parallel_data():
    records = generate_trial(scenario("paper_like", n_subjects=40, seed=4))
    parallel = as_parallel(records[:20], 1) + as_parallel(records[20:], 0)
    for data in (parallel, as_columns(parallel)):
        for check, diagnostic in DIAGNOSTICS.items():
            with pytest.raises(DiagnosticError, match="crossover data"):
                diagnostic(data)
