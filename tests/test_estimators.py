import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcekit import core, estimators, glm, resampling
from pcekit.core import (
    JOINT_LABELS,
    ParallelObservation,
    StratumLabel,
    TrialColumns,
    as_columns,
    as_parallel,
    load_crossover_csv,
    load_parallel_csv,
)
from pcekit.errors import (
    ConvergenceError,
    InestimableStratumError,
    InsufficientDataError,
    MissingDataError,
    PcekitError,
)
from pcekit.estimators import (
    EstimateSummary,
    PceMethod,
    PrincipalScoreModel,
    ProbMethod,
    StratumProbEstimate,
    estimate_mu_direct,
    estimate_mu_hayden,
    estimate_pce_table,
    estimate_stratum_probs,
    fit_principal_score,
    principal_scores,
)
from pcekit.glm import (
    DesignMatrix,
    LogisticFit,
    expit,
    fit_logistic,
    fit_logistic_counts,
    intercept_design,
)
from pcekit.resampling import BootstrapSpec, bootstrap_vector
from pcekit.simulator import generate_trial, scenario

from conftest import make_record

DATA = Path(__file__).resolve().parent / "data"


def obs(sid, t, a, y=None, x=0.0):
    return ParallelObservation(
        subject_id=sid,
        covariate_names=("x_base",),
        covariates=(x,),
        t=t,
        a=a,
        y=y,
    )


def saturated_cross_model():
    """Arm-1 score model with exact group rates g(0)=1/3, g(1)=2/3."""
    cross = [
        obs("c1", 1, 0, x=0.0),
        obs("c2", 1, 0, x=0.0),
        obs("c3", 1, 1, x=0.0),
        obs("c4", 1, 1, x=1.0),
        obs("c5", 1, 1, x=1.0),
        obs("c6", 1, 0, x=1.0),
    ]
    return fit_principal_score(cross)


def test_fit_principal_score_validation():
    with pytest.raises(InsufficientDataError):
        fit_principal_score([])
    mixed = [obs("a", 0, 1), obs("b", 1, 0)]
    with pytest.raises(ValueError, match="one arm"):
        fit_principal_score(mixed)
    with pytest.raises(MissingDataError, match="missing adherence"):
        fit_principal_score([obs("a", 0, None), obs("b", 0, 1)])


def test_fit_principal_score_rejects_separation():
    separated = [
        obs("a", 0, 0, x=-2.0),
        obs("b", 0, 0, x=-1.0),
        obs("c", 0, 1, x=1.0),
        obs("d", 0, 1, x=2.0),
    ]
    with pytest.raises(ConvergenceError, match="separation"):
        fit_principal_score(separated)


def test_hayden_mu_against_hand_weights():
    model = saturated_cross_model()
    own = [
        obs("o1", 0, 1, y=10.0, x=0.0),
        obs("o2", 0, 0, y=99.0, x=0.0),
        obs("o3", 0, 1, y=20.0, x=1.0),
    ]
    # S11 weights 1{a=1} * g1(x): 1/3, 0, 2/3
    assert estimate_mu_hayden(own, model, StratumLabel(1, 1)) == pytest.approx(50 / 3, abs=1e-6)
    # S10 weights 1{a=1} * (1 - g1(x)): 2/3, 0, 1/3
    assert estimate_mu_hayden(own, model, StratumLabel(1, 0)) == pytest.approx(40 / 3, abs=1e-6)
    # S01 keeps only the a=0 subject
    assert estimate_mu_hayden(own, model, StratumLabel(0, 1)) == pytest.approx(99.0, abs=1e-9)


def test_hayden_mu_validation():
    model = saturated_cross_model()
    own = [obs("o1", 0, 1, y=10.0)]
    with pytest.raises(MissingDataError):
        estimate_mu_hayden([obs("o1", 0, 1, y=None)], model, StratumLabel(1, 1))
    with pytest.raises(ValueError, match="cross_model"):
        arm0_model = fit_principal_score([obs("a", 0, 0), obs("b", 0, 1)], covariates=())
        estimate_mu_hayden(own, arm0_model, StratumLabel(1, 1))
    with pytest.raises(InestimableStratumError,
                       match="no weight in stratum S00 for arm 0: no subjects with a=0"):
        estimate_mu_hayden(own, model, StratumLabel(0, 0))


def converged_fit():
    return fit_logistic(DesignMatrix.intercept_only(2), np.asarray([0.0, 1.0]))


@pytest.mark.parametrize("run, error, message", [
    (lambda: PrincipalScoreModel(arm=2, fit=converged_fit(), covariate_names=()), ValueError,
     "arm must be an integer of at least 0 and below 2, not 2"),
    (lambda: estimate_mu_hayden([], saturated_cross_model(), StratumLabel(1, 1)),
     InsufficientDataError, "no observations"),
    (lambda: estimate_mu_hayden([obs("a", 0, 1, y=1.0), obs("b", 1, 1, y=2.0)],
                                saturated_cross_model(), StratumLabel(1, 1)),
     ValueError, "observations must all come from one arm"),
    (lambda: estimate_mu_direct([make_record("a")], StratumLabel(1, 1), 2), ValueError,
     "t must be an integer of at least 0 and below 2, not 2"),
    (lambda: estimate_mu_direct([], StratumLabel(1, 1), 0), InestimableStratumError,
     "no subjects observed in stratum S11"),
    (lambda: estimate_mu_direct([make_record("a", y=(None, 2.0))], StratumLabel(1, 1), 0),
     MissingDataError, "subject 'a' missing arm-0 outcome"),
    (lambda: StratumProbEstimate(ProbMethod.INDEP, {StratumLabel(0, 0): 1.0}, 1), ValueError,
     "probs must cover exactly the four joint strata"),
    (lambda: estimate_stratum_probs([obs("a", 0, 1), obs("b", 0, 0)], ProbMethod.INDEP),
     InsufficientDataError, "need adherence observations in both arms"),
], ids=["score-model-arm", "hayden-empty", "hayden-mixed-arms", "direct-arm", "direct-empty",
        "direct-missing-outcome", "prob-estimate-keys", "probs-one-arm-unobserved"])
def test_estimator_validation(run, error, message):
    with pytest.raises(error, match=message):
        run()


def test_constant_score_hayden_equals_stratified_mean_exactly():
    # balanced cross-arm adherence pins the intercept-only score at exactly 0.5
    cross = [obs(f"c{i}", 1, i % 2) for i in range(4)]
    model = fit_principal_score(cross, covariates=())
    assert principal_scores(model, cross).tolist() == [0.5] * 4
    own = [
        obs("o1", 0, 1, y=3.0),
        obs("o2", 0, 1, y=7.0),
        obs("o3", 0, 0, y=100.0),
    ]
    for lab in (StratumLabel(1, 0), StratumLabel(1, 1)):
        assert estimate_mu_hayden(own, model, lab) == 5.0


def test_extreme_scores_warn():
    fit = LogisticFit(
        names=("intercept",),
        coefficients=np.asarray([30.0]),
        converged=True,
        diverged=False,
        iterations=1,
        final_gradient_norm=0.0,
        deviance=0.0,
        deviance_path=(0.0,),
    )
    model = PrincipalScoreModel(arm=1, fit=fit, covariate_names=())
    own = [obs("o1", 0, 1, y=1.0), obs("o2", 0, 1, y=3.0)]
    with pytest.warns(UserWarning, match="principal scores"):
        estimate_mu_hayden(own, model, StratumLabel(1, 1))


def test_principal_score_model_rejects_failed_fit():
    fit = LogisticFit(
        names=("intercept",),
        coefficients=np.asarray([0.0]),
        converged=False,
        diverged=True,
        iterations=3,
        final_gradient_norm=1.0,
        deviance=1.0,
        deviance_path=(1.0,),
    )
    with pytest.raises(ConvergenceError, match="separation"):
        PrincipalScoreModel(arm=0, fit=fit, covariate_names=())


def test_direct_mu_is_group_mean():
    records = [
        make_record("a", "CF", a=(1, 1), y=(10.0, 30.0)),
        make_record("b", "EF", a=(1, 1), y=(20.0, 40.0)),  # EF: arm1 observed first
        make_record("c", "CF", a=(0, 1), y=(5.0, 6.0)),
    ]
    # S11 members are a and b; arm-0 outcomes are 10.0 (a) and 40.0 (b)
    assert estimate_mu_direct(records, StratumLabel(1, 1), 0) == 25.0
    assert estimate_mu_direct(records, StratumLabel(1, 1), 1) == 25.0
    with pytest.raises(InestimableStratumError, match="no subjects observed in stratum S10"):
        estimate_mu_direct(records, StratumLabel(1, 0), 0)
    with pytest.raises(MissingDataError):
        estimate_mu_direct([make_record("d", a=(None, 1))], StratumLabel(1, 1), 0)


def test_observed_stratum_probs():
    records = (
        [make_record(f"a{i}", "CF", a=(0, 0)) for i in range(2)]
        + [make_record("b", "CF", a=(0, 1))]
        + [make_record("c", "EF", a=(1, 0))]  # arm1=1, arm0=0 -> S01
        + [make_record(f"d{i}", "CF", a=(1, 1)) for i in range(4)]
    )
    est = estimate_stratum_probs(records, ProbMethod.OBSERVED)
    assert est.probs[StratumLabel(0, 0)] == 0.25
    assert est.probs[StratumLabel(0, 1)] == 0.25
    assert est.probs[StratumLabel(1, 0)] == 0.0
    assert est.probs[StratumLabel(1, 1)] == 0.5
    with pytest.raises(PcekitError, match="crossover"):
        estimate_stratum_probs([obs("a", 0, 1)], ProbMethod.OBSERVED)


def test_cond_indep_probs_saturated_hand_check():
    # group x=0: a0 rate 1/2, a1 rate 1/4; group x=1: a0 rate 3/4, a1 rate 1/2
    a0_by_group = {0.0: (1, 1, 0, 0), 1.0: (1, 1, 1, 0)}
    a1_by_group = {0.0: (1, 0, 0, 0), 1.0: (1, 1, 0, 0)}
    records = []
    for x, n in ((0.0, 4), (1.0, 4)):
        for i in range(n):
            records.append(
                make_record(f"s{x}{i}", "CF", x=(x,), a=(a0_by_group[x][i], a1_by_group[x][i]))
            )
    est = estimate_stratum_probs(records, ProbMethod.COND_INDEP)
    rates = {0.0: (0.5, 0.25), 1.0: (0.75, 0.5)}
    for lab in JOINT_LABELS:
        want = np.mean(
            [
                (g0 if lab.a0 else 1 - g0) * (g1 if lab.a1 else 1 - g1)
                for x in (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
                for g0, g1 in [rates[x]]
            ]
        )
        assert est.probs[lab] == pytest.approx(want, abs=1e-8)
    assert sum(est.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_intercept_only_cond_indep_matches_indep():
    records = [
        make_record(f"s{i}", "CF" if i % 2 else "EF", a=(int(i < 3), int(i < 4)))
        for i in range(8)
    ]
    cond = estimate_stratum_probs(records, ProbMethod.COND_INDEP, covariates=())
    indep = estimate_stratum_probs(records, ProbMethod.INDEP)
    for lab in JOINT_LABELS:
        assert cond.probs[lab] == pytest.approx(indep.probs[lab], abs=1e-8)


def test_stratum_probs_take_method_values():
    records = generate_trial(scenario("paper_like", n_subjects=120, seed=4))
    kept = core.completer_filter(records, core.CompleterRule.STRATUM_VAR)
    for method in ProbMethod:
        want = estimate_stratum_probs(kept, method)
        assert estimate_stratum_probs(kept, method.value) == want
        assert want.method is method
    # the reconstructions differ on these data, so a value cannot pass for another
    assert estimate_stratum_probs(kept, "indep") != estimate_stratum_probs(kept, "cond-indep")
    with pytest.raises(ValueError, match="'bogus'"):
        estimate_stratum_probs(kept, "bogus")


def test_stratum_prob_estimate_validates_total():
    bad = {lab: 0.3 for lab in JOINT_LABELS}
    with pytest.raises(ValueError, match="sum"):
        StratumProbEstimate(method=ProbMethod.INDEP, probs=bad, n=10)


def test_stratum_prob_estimate_takes_a_method_by_value_only_if_valid():
    even = dict.fromkeys(JOINT_LABELS, 0.25)
    assert StratumProbEstimate(method="indep", probs=even, n=4).method is ProbMethod.INDEP
    with pytest.raises(ValueError, match="'bogus'"):
        StratumProbEstimate(method="bogus", probs=even, n=4)


def test_pce_table_shape_and_order():
    records = generate_trial(scenario("paper_like", n_subjects=120, seed=3))
    rows = estimate_pce_table(records)
    assert len(rows) == 24
    assert [r.method for r in rows[:12]] == [PceMethod.PS] * 12
    assert [r.quantity for r in rows[:3]] == ["arm0", "arm1", "diff"]
    assert rows[0].stratum == JOINT_LABELS[0]
    by_key = {(r.method, str(r.stratum), r.quantity): r for r in rows}
    for method in (PceMethod.PS, PceMethod.DIRECT):
        for lab in JOINT_LABELS:
            trio = [by_key[(method, str(lab), q)] for q in ("arm0", "arm1", "diff")]
            if not any(math.isnan(r.point) for r in trio):
                assert trio[2].point == trio[1].point - trio[0].point


def test_pce_table_direct_marks_empty_stratum_inestimable():
    records = [
        make_record("a1", "CF", a=(0, 0), y=(1.0, 2.0)),
        make_record("a2", "EF", a=(0, 0), y=(1.5, 2.5)),
        make_record("b1", "CF", a=(0, 1), y=(2.0, 3.0)),
        make_record("b2", "EF", a=(1, 0), y=(2.5, 3.5)),  # arm coords (0, 1)
        make_record("c1", "CF", a=(1, 1), y=(3.0, 4.0)),
        make_record("c2", "EF", a=(1, 1), y=(3.5, 4.5)),
    ]
    rows = estimate_pce_table(records, covariates=())
    ps = {(str(r.stratum), r.quantity): r for r in rows if r.method is PceMethod.PS}
    direct = {(str(r.stratum), r.quantity): r for r in rows if r.method is PceMethod.DIRECT}
    # nobody has arm coordinates (1, 0), so direct S10 is inestimable
    assert math.isnan(direct[("S10", "diff")].point)
    assert direct[("S10", "diff")].note == "inestimable on this data"
    # the weighting route still produces S10 numbers from the marginals
    assert math.isfinite(ps[("S10", "diff")].point)
    # S11 arm-0 outcomes: c1 period 1 (3.0) and c2 period 2 (4.5)
    assert direct[("S11", "arm0")].point == 3.75


def test_pce_table_bootstrap_is_deterministic():
    records = generate_trial(scenario("paper_like", n_subjects=80, seed=9))
    spec = BootstrapSpec(n_replicates=25, seed=11)
    rows1 = estimate_pce_table(records, methods=(PceMethod.PS,), bootstrap_spec=spec)
    rows2 = estimate_pce_table(records, methods=(PceMethod.PS,), bootstrap_spec=spec)
    assert [r.se for r in rows1] == [r.se for r in rows2]
    assert [r.ci for r in rows1] == [r.ci for r in rows2]
    estimable = [r for r in rows1 if not math.isnan(r.point)]
    assert estimable and all(r.n_effective <= 25 for r in estimable)


def test_pce_table_input_validation():
    with pytest.raises(InsufficientDataError):
        estimate_pce_table([])
    parallel = [obs("a", 0, 1, y=1.0), obs("b", 0, 0, y=2.0), obs("c", 1, 1, y=3.0), obs("d", 1, 0, y=0.5)]
    with pytest.raises(PcekitError, match="crossover"):
        estimate_pce_table(parallel, methods=(PceMethod.DIRECT,))
    with pytest.raises(ValueError, match="method"):
        estimate_pce_table(parallel, methods=())
    # parallel data supports the weighting route
    rows = estimate_pce_table(parallel, methods=(PceMethod.PS,), covariates=())
    assert len(rows) == 12
    # duplicate methods collapse
    records = generate_trial(scenario("paper_like", n_subjects=60, seed=1))
    rows = estimate_pce_table(records, methods=(PceMethod.PS, PceMethod.PS))
    assert len(rows) == 12


def test_pce_table_takes_method_values():
    records = generate_trial(scenario("paper_like", n_subjects=60, seed=1))
    by_value = estimate_pce_table(records, methods=["ps", PceMethod.PS])
    by_enum = estimate_pce_table(records, methods=(PceMethod.PS,))
    assert [repr(r) for r in by_value] == [repr(r) for r in by_enum]
    for lone in ("ps", PceMethod.PS):  # one method alone is a list of one
        by_lone = estimate_pce_table(records, methods=lone)
        assert [repr(r) for r in by_lone] == [repr(r) for r in by_enum]
    with pytest.raises(ValueError, match="'nope'"):
        estimate_pce_table(records, methods=["ps", "nope"])
    # a value of no collection's type is one method, and PceMethod names it
    for bad in (None, 5, b"ps"):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not a valid PceMethod")):
            estimate_pce_table(records, methods=bad)


def test_pce_table_lays_out_the_requested_order_and_runs_routes_in_table_order(monkeypatch):
    records = generate_trial(scenario("paper_like", n_subjects=80, seed=3))
    spec = BootstrapSpec(n_replicates=40, seed=2)
    forward = estimate_pce_table(records, (PceMethod.PS, PceMethod.DIRECT), bootstrap_spec=spec)
    assert list(estimators._ROUTES) == list(PceMethod)
    ran = []

    def recording(method, form):
        def run(*args):
            ran.append(method)
            return form(*args)
        return run

    monkeypatch.setattr(estimators, "_ROUTES", {
        m: tuple(recording(m, form) for form in forms) for m, forms in estimators._ROUTES.items()
    })
    monkeypatch.setattr(resampling, "_process_count", lambda items: 1)  # every chunk runs here
    reverse = estimate_pce_table(records, (PceMethod.DIRECT, PceMethod.PS), bootstrap_spec=spec)
    assert [repr(r) for r in reverse] == [repr(r) for r in forward[12:] + forward[:12]]
    # the full-data table and at least one chunk, each route by route in table order
    assert len(ran) >= 4 and ran == [PceMethod.PS, PceMethod.DIRECT] * (len(ran) // 2)


def test_unknown_covariate_is_reported():
    records = generate_trial(scenario("paper_like", n_subjects=40, seed=2))
    with pytest.raises(PcekitError, match="x_nope"):
        estimate_pce_table(records, covariates=("x_nope",))


@pytest.mark.parametrize("covariates, message", [
    (("x_nope",), "unknown covariate"),
    (("x_base", "x_base"), "listed more than once"),
    (5, "collection of names, not 5"),
    ("x_base", "collection of names, not 'x_base'"),
    (b"x_base", "collection of names, not b'x_base'"),
], ids=["unknown", "repeated", "int", "str", "bytes"])
@pytest.mark.parametrize("run", [
    *(lambda data, cov, m=m: estimate_pce_table(data, methods=m, covariates=cov)
      for m in PceMethod),
    *(lambda data, cov, m=m: estimate_stratum_probs(data, m, covariates=cov)
      for m in ProbMethod),
], ids=[f"table-{m.value}" for m in PceMethod] + [f"probs-{m.value}" for m in ProbMethod])
def test_covariate_names_are_checked_whatever_the_route(run, covariates, message):
    # the routes and methods that fit no model check the names too, as the CLI does
    records = generate_trial(scenario("paper_like", n_subjects=80, seed=2))
    kept = core.completer_filter(records, core.CompleterRule.STRATUM_VAR)
    with pytest.raises(PcekitError, match=message):
        run(kept, covariates)


def test_estimate_summary_is_plain_data():
    s = EstimateSummary(
        stratum=StratumLabel(1, 1), quantity="diff", method=PceMethod.PS, point=1.0
    )
    assert s.se is None and s.ci is None and s.note is None


def test_bootstrap_builds_no_records_per_replicate(monkeypatch):
    """Replicates resample array rows: no projection or observation is built per replicate."""
    records = generate_trial(scenario("paper_like", n_subjects=60, seed=5))
    parallel = as_parallel(records[:30], 1) + as_parallel(records[30:], 0)
    calls = {"as_parallel": 0, "ParallelObservation": 0}
    original = core.as_parallel

    def counting_as_parallel(*args, **kwargs):
        calls["as_parallel"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pcekit" or name.startswith("pcekit.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_as_parallel)
    post_init = ParallelObservation.__post_init__

    def counting_post_init(self):
        calls["ParallelObservation"] += 1
        post_init(self)

    monkeypatch.setattr(ParallelObservation, "__post_init__", counting_post_init)
    core.as_parallel(records[:2], 0)
    assert calls == {"as_parallel": 1, "ParallelObservation": 2}  # the wrappers count

    def count_calls(data, methods, spec):
        calls.update(as_parallel=0, ParallelObservation=0)
        estimate_pce_table(data, methods=methods, bootstrap_spec=spec)
        return dict(calls)

    for data, methods in ((records, (PceMethod.PS, PceMethod.DIRECT)), (parallel, (PceMethod.PS,))):
        plain = count_calls(data, methods, None)
        assert count_calls(data, methods, BootstrapSpec(n_replicates=20, seed=1)) == plain


def few_adherers() -> TrialColumns:
    """40 subjects of whom only 3 adhere on control: a few resamples hold none,
    so their arm-0 score has a constant response. Two of the three lack their
    control outcome, so many resamples fit both scores but have no arm-0 mean
    in the strata with a0 = 1, and those strata are inestimable there."""
    cols = as_columns(generate_trial(scenario("paper_like", n_subjects=40, seed=1)))
    a, y = cols.a.copy(), cols.y.copy()
    adherers = np.flatnonzero(a[:, 0] == 1)
    a[adherers[3:], 0] = 0
    y[adherers[:2], 0] = np.nan
    return TrialColumns(cols.covariate_names, cols.x, a, y, cols.ef)


def no_control_outcomes() -> TrialColumns:
    """parallel_ps with every control-arm outcome missing: both scores still
    fit, but arm 0 has no complete rows, so every ps cell is inestimable on
    the full data and in each resample."""
    cols = as_columns(load_parallel_csv(DATA / "parallel_ps.csv"))
    y = cols.y.copy()
    y[:, 0] = np.nan
    return TrialColumns(cols.covariate_names, cols.x, cols.a, y, cols.ef)


BOTH = (PceMethod.PS, PceMethod.DIRECT)
# name -> (data, methods, covariates, replicates, seed); the first four are the
# estimate goldens of test_golden.py with their arguments
BATCH_CASES = {
    "crossover_missing": (lambda: load_crossover_csv(DATA / "crossover_missing.csv"),
                          BOTH, None, 40, 5),
    "parallel_ps": (lambda: load_parallel_csv(DATA / "parallel_ps.csv"),
                    (PceMethod.PS,), None, 40, 6),
    "empty_stratum": (lambda: load_crossover_csv(DATA / "empty_stratum.csv"), BOTH, None, 40, 7),
    "sparse_stratum": (lambda: load_crossover_csv(DATA / "sparse_stratum.csv"),
                       BOTH, None, 40, 8),
    # 24 subjects: a few resamples separate an arm's adherence (ConvergenceError
    # through the fallback) and a few others put most scores outside the band
    "separating": (lambda: load_crossover_csv(DATA / "sparse_refit.csv"), BOTH, None, 40, 4),
    "constant_response": (few_adherers, BOTH, (), 100, 0),
    "no_control_outcomes": (no_control_outcomes, (PceMethod.PS,), None, 40, 6),
    # the direct chunk form on its own: one subject in S10, missed by some resamples
    "direct_only": (lambda: load_crossover_csv(DATA / "sparse_stratum.csv"),
                    (PceMethod.DIRECT,), None, 40, 8),
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_estimate_bootstrap_matches_one_at_a_time(case, monkeypatch):
    """estimate_pce_table's count-weighted chunks against one _table_values per replicate."""
    load, methods, covariates, n_replicates, seed = BATCH_CASES[case]
    cols = as_columns(load())
    spec = BootstrapSpec(n_replicates=n_replicates, seed=seed)
    drawn = []
    draw = resampling.draw_replicates

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(resampling, "draw_replicates", recording_draw)

    def run(batched):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if batched:
                rows = estimate_pce_table(cols, methods, covariates, spec)
                summary = (np.asarray([np.nan if r.se is None else r.se for r in rows]),
                           [r.n_effective for r in rows])
            else:
                res = bootstrap_vector(
                    cols.select(covariates),
                    lambda s, starts: estimators._table_values(s, methods, starts), spec,
                )
                summary = (np.where(np.isnan(res.points), np.nan, res.se),
                           [None if np.isnan(p) else int(k)
                            for p, k in zip(res.points, res.n_effective)])
        return drawn.pop(), summary, sorted(str(w.message) for w in caught)

    (ref, ref_failures), (ref_se, ref_neff), ref_warnings = run(batched=False)
    (new, new_failures), (new_se, new_neff), new_warnings = run(batched=True)
    assert new_failures == ref_failures
    assert new_warnings == ref_warnings
    assert new_neff == ref_neff
    np.testing.assert_array_equal(np.isnan(new), np.isnan(ref))
    np.testing.assert_allclose(new, ref, rtol=1e-10, atol=0.0)
    # an SE is the spread of values that agree to 1e-10 relative, so it is
    # compared on their scale: a constant column's SE is rounding noise near 0
    scale = np.max(np.where(np.isnan(ref), 0.0, np.abs(ref)), axis=0)
    np.testing.assert_array_equal(np.isnan(new_se), np.isnan(ref_se))
    has_se = ~np.isnan(ref_se)
    assert np.all(np.abs(new_se - ref_se)[has_se] <= 1e-10 * scale[has_se])
    good = ~np.isnan(ref)
    worst = float(np.max(np.abs(new[good] - ref[good]) / np.abs(ref[good]), initial=0.0))
    print(f"{case}: largest relative replicate difference {worst:.1e}")
    if case == "sparse_stratum":  # direct S10: one subject, missed by 9 resamples
        assert new_neff[18:21] == [31, 31, 31]
    if case == "separating":
        assert ref_failures == {"ConvergenceError": 3} and ref_warnings
    if case == "constant_response":
        assert ref_failures == {"DegenerateResponseError": 2}
    if case == "no_control_outcomes":
        assert not good.any() and not ref_failures and not ref_warnings


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_estimate_bootstrap_stays_near_the_zero_start_bootstrap(case, monkeypatch):
    """Every replicate of estimate_pce_table's bootstrap against the bootstrap
    that refits every resample from zero: the batched per-stratum reference
    from a zero start, with the one-at-a-time table from a zero start on the
    rows it leaves. The same failures and NaN cells, and each value within
    1e-8 of its column's largest magnitude."""
    load, methods, covariates, n_replicates, seed = BATCH_CASES[case]
    cols = as_columns(load()).select(covariates)
    n = len(cols)
    zeros = (np.zeros(cols.x.shape[1] + 1),) * 2

    def zero_start_chunk(idx):
        counts = resampling.resample_counts(idx, n)
        runs = {m: REFERENCE_CHUNK_FORMS[m](cols, counts, zeros) for m in PceMethod if m in methods}
        left = np.logical_or.reduce([rows_left for _, rows_left in runs.values()])
        return estimators._table_layout([runs[m][0] for m in methods]), left

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref, ref_failures = resampling.draw_replicates(
            seed, n, n_replicates, zero_start_chunk,
            lambda row: estimators._table_values(cols.take(row), methods, None)[0],
        )
        drawn = []
        draw = resampling.draw_replicates

        def recording_draw(*args, **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(resampling, "draw_replicates", recording_draw)
        estimate_pce_table(cols, methods, None, BootstrapSpec(n_replicates, seed))
    (new, new_failures), = drawn
    assert new_failures == ref_failures
    np.testing.assert_array_equal(np.isnan(new), np.isnan(ref))
    good = ~np.isnan(ref)
    scale = np.max(np.where(good, np.abs(ref), 0.0), axis=0)
    gap = np.where(good, np.abs(new - ref), 0.0)
    assert np.all(gap <= 1e-8 * scale)
    worst = float(np.max(gap / np.where(scale > 0.0, scale, 1.0), initial=0.0))
    print(f"{case}: largest replicate difference {worst:.1e} of its column's largest magnitude")


def reference_ps_cells_counts(
    cols: TrialColumns, counts: np.ndarray, starts: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``estimators._ps_cells_counts`` as a loop over the strata: per arm and
    stratum, one weighted (b, n) array, its row sums and one ``w @ y``; each
    arm's score is refit from its start."""
    observed = cols.a != core.A_MISSING
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
    with np.errstate(invalid="ignore", divide="ignore"):
        for t in (0, 1):
            use = observed[:, t] & ~np.isnan(cols.y[:, t])
            c = counts[:, use]
            g = expit(beta[1 - t] @ design[use].T)
            share[:, t] = (c * estimators._extreme(g)).sum(axis=1) / c.sum(axis=1)
            g = np.clip(g, estimators.SCORE_CLIP, 1.0 - estimators.SCORE_CLIP)
            a, y = cols.a[use, t], cols.y[use, t]
            for i, stratum in enumerate(JOINT_LABELS):
                w = c * estimators._hayden_weights(a, g, stratum, t)
                total = w.sum(axis=1)
                mu[:, i, t] = np.where(total > 0.0, (w @ y) / total, np.nan)
    mu[np.isnan(mu).any(axis=2)] = np.nan
    for r, t in np.argwhere(clean[:, None] & (share > 0.5)).tolist():
        estimators._warn_if_extreme(float(share[r, t]), stacklevel=2)
    return mu, ~clean


def reference_direct_cells_counts(
    cols: TrialColumns, counts: np.ndarray, starts: object
) -> tuple[np.ndarray, np.ndarray]:
    """``estimators._direct_cells_counts`` as a loop over the strata: per
    stratum, a gather of its columns, one product and one row sum."""
    complete = core.completer_mask(cols, core.CompleterRule.BOTH)
    c, codes, y = counts[:, complete], core.stratum_codes(cols.a[complete]), cols.y[complete]
    mu = np.empty((counts.shape[0], len(JOINT_LABELS), 2))
    with np.errstate(invalid="ignore"):
        for i in range(len(JOINT_LABELS)):
            mask = codes == i
            mu[:, i] = (c[:, mask] @ y[mask]) / c[:, mask].sum(axis=1)[:, None]
    return mu, np.zeros(counts.shape[0], dtype=bool)


REFERENCE_CHUNK_FORMS = {
    PceMethod.PS: reference_ps_cells_counts,
    PceMethod.DIRECT: reference_direct_cells_counts,
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_route_chunk_forms_match_their_per_stratum_reference(case):
    """Each route's chunk form against its per-stratum loop, on every resample
    of the case and on its first resample alone: the same rows left, the same
    NaN cells and warnings, and means within 1e-12 relative (the sums run in
    another order). Both refit from the starts the full-data table returns."""
    load, methods, covariates, n_replicates, seed = BATCH_CASES[case]
    cols = as_columns(load()).select(covariates)
    starts = estimators._table_values(cols, methods, None)[1]
    idx = resampling.resample_index_matrix(seed, 0, n_replicates, len(cols))
    counts = resampling.resample_counts(idx, len(cols))
    for method in methods:
        for block in (counts, counts[:1]):
            results = []
            for form in (estimators._ROUTES[method][1], REFERENCE_CHUNK_FORMS[method]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    mu, left = form(cols, block.copy(), starts)
                results.append((mu, left, [str(w.message) for w in caught]))
            (new, new_left, new_warnings), (ref, ref_left, ref_warnings) = results
            np.testing.assert_array_equal(new_left, ref_left)
            assert new_warnings == ref_warnings
            np.testing.assert_array_equal(np.isnan(new), np.isnan(ref))
            np.testing.assert_allclose(new, ref, rtol=1e-12, atol=0.0)


def test_ps_chunk_form_fits_a_badly_scaled_covariate_without_the_fallback():
    """With x_base in units 10^4 times smaller, every resample's Gram matrix
    fails an unscaled eigenvalue ratio, yet each is well posed: the batched
    fit takes every row, and each agrees with its one-at-a-time fit."""
    cols = as_columns(generate_trial(scenario("paper_like", n_subjects=200, seed=3)))
    cols = TrialColumns(cols.covariate_names, cols.x * 1e4, cols.a, cols.y, cols.ef)
    idx = resampling.resample_index_matrix(1, 0, 40, len(cols))
    counts = resampling.resample_counts(idx, len(cols))
    gram = counts @ glm._outer_rows(intercept_design(cols.x))
    eigs = np.linalg.eigvalsh(gram.reshape(-1, 2, 2))
    assert (eigs[:, 0] < glm.GRAM_RATIO_TOL * eigs[:, -1]).all()
    starts = estimators._ps_cells(cols, None)[1]
    mu, left = estimators._ps_cells_counts(cols, counts, starts)
    assert not left.any()
    for r in range(0, 40, 8):
        np.testing.assert_allclose(mu[r], estimators._ps_cells(cols.take(idx[r]), starts)[0],
                                   rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("case", [c for c, v in BATCH_CASES.items() if PceMethod.PS in v[1]])
def test_every_bootstrap_refit_starts_from_the_point_fits(case, monkeypatch):
    """The two full-data fits behind the points start from zero. Every
    batched refit (fit_logistic_counts, arm 0 then arm 1 in each chunk) and
    every one-at-a-time fallback refit starts from the coefficients of its
    arm's full-data fit."""
    load, methods, covariates, n_replicates, seed = BATCH_CASES[case]
    cols = as_columns(load()).select(covariates)
    point_fits = estimators._table_values(cols, methods, None)[1]
    batched, alone = [], []
    fit_counts, fit_score = estimators.fit_logistic_counts, estimators._fit_score

    def recording_counts(design, a, counts, start):
        batched.append(np.array(start))
        return fit_counts(design, a, counts, start)

    def recording_score(x, a, names, arm, start=None):
        alone.append((arm, None if start is None else np.array(start)))
        return fit_score(x, a, names, arm, start)

    monkeypatch.setattr(estimators, "fit_logistic_counts", recording_counts)
    monkeypatch.setattr(estimators, "_fit_score", recording_score)
    monkeypatch.setattr(resampling, "_process_count", lambda items: 1)  # every chunk runs here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_pce_table(cols, methods, None, BootstrapSpec(n_replicates, seed))
    assert [(arm, start is None) for arm, start in alone[:2]] == [(0, True), (1, True)]
    for arm, start in alone[2:]:
        np.testing.assert_array_equal(start, point_fits[arm])
    assert batched and len(batched) % 2 == 0
    for k, start in enumerate(batched):
        np.testing.assert_array_equal(start, point_fits[k % 2])
    if case in ("separating", "constant_response"):  # rows left to the fallback
        assert len(alone) > 2


def test_estimate_bootstrap_refits_do_not_grow_with_replicates(monkeypatch):
    """Replicates are refit in batches: fit_logistic runs only on the full data."""
    records = generate_trial(scenario("paper_like", n_subjects=200, seed=3))
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit_logistic(*args, **kwargs)

    monkeypatch.setattr(estimators, "fit_logistic", counting_fit)

    def fits(n_replicates):
        calls.clear()
        estimate_pce_table(records, bootstrap_spec=BootstrapSpec(n_replicates, seed=1))
        return len(calls)

    assert fits(20) == fits(1) == 2


def test_estimate_bootstrap_output_does_not_depend_on_blas_threads():
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "pcekit.cli", "estimate",
            "--input", str(DATA / "crossover_missing.csv"), "--method", "both",
            "--bootstrap", "40", "--seed", "5", "--format", "csv"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"stratum,method,quantity")
