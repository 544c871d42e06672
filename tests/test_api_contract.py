"""The library API's contract for the values that name a choice, count, seed or level.

Every function in ``pcekit.__all__`` that takes ``covariates``, ``method``,
``methods``, ``direction`` or ``require`` refuses an unknown, repeated or
wrongly typed value with a ``PcekitError`` or ``ValueError`` whose message
holds the repr of the value or of an offending element. It never accepts
such a value silently, and never fails with a ``TypeError``,
``AttributeError`` or ``NameError``. The one accepted case is a repeated
method, which collapses by design. ``BootstrapSpec`` and
``independence_test`` refuse a replicate count that is not an integer of
at least 1 and a seed that is not an integer in [0, 2**64) the same way;
``BootstrapSpec`` and ``percentile_interval`` refuse a ``ci_level`` that is
not a real number strictly between 0 and 1. ``as_parallel``,
``ParallelObservation``, ``SubjectRecord.period_of_arm``,
``estimate_mu_direct`` and ``PrincipalScoreModel`` refuse an arm that is
not the integer 0 or 1, a float or bool included, and ``StratumLabel``,
``SubjectRecord`` and ``ParallelObservation`` refuse such an adherence value
(a record's may also be None, for missing). ``DgpConfig``, ``scenario``
and ``true_pce`` refuse a subject count, seed or oracle size outside the
generator's range, sizes numpy cannot describe included. Covariate names
are read once, so a one-shot iterator of them gives what the list gives.
Examples are derandomized, so every run of the suite tries the same inputs.
"""

import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit import (
    JOINT_LABELS,
    BootstrapSpec,
    CompleterRule,
    MonotonicityDirection,
    ParallelObservation,
    PceMethod,
    PrincipalScoreModel,
    ProbMethod,
    StratumLabel,
    as_columns,
    as_parallel,
    completer_filter,
    completer_mask,
    estimate_mu_direct,
    estimate_pce_table,
    estimate_stratum_probs,
    fit_principal_score,
    ignorability_regressions,
    independence_test,
    monotonicity_report,
    percentile_interval,
)
from pcekit.errors import PcekitError, SchemaError
from pcekit.simulator import (MIN_ORACLE_N, SIZE_LIMIT, DgpConfig, generate_trial, scenario,
                              true_pce)

CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)

RECORDS = generate_trial(scenario("paper_like", n_subjects=80, seed=1))
COLS = as_columns(RECORDS)
ARM0 = as_parallel(RECORDS, 0)
COVARIATES = COLS.covariate_names
PCE_METHODS = tuple(m.value for m in PceMethod)

# values of no name's type, and names
NON_NAMES = st.one_of(st.integers(), st.floats(), st.none(), st.binary(max_size=4))
NAMES = st.text(max_size=6)


def _values_of_one(valid: tuple[str, ...]) -> st.SearchStrategy:
    """Values that name no single choice among valid: anything else, lists included."""
    return st.one_of(NON_NAMES, NAMES.filter(lambda s: s not in valid),
                     st.lists(st.one_of(NON_NAMES, NAMES), max_size=3))


def _refused_names(valid: tuple[str, ...], repeats_refused: bool) -> st.SearchStrategy:
    """Lists of names and non-names, each with an unknown element or a repeat."""
    return st.lists(st.one_of(NON_NAMES, NAMES, st.sampled_from(valid)), min_size=1,
                    max_size=3).filter(lambda v: any(e not in valid for e in v)
                                       or (repeats_refused and len(set(v)) < len(v)))


# None is no value here: it means every covariate
COVARIATE_VALUES = st.one_of(NON_NAMES.filter(lambda v: v is not None), NAMES,
                             _refused_names(COVARIATES, repeats_refused=True))
METHODS_VALUES = st.one_of(NON_NAMES, NAMES.filter(lambda s: s not in PCE_METHODS),
                           _refused_names(PCE_METHODS, repeats_refused=False))
# values that are no integer, and integers below a count's range, [1, ...), or
# outside a seed's, [0, 2**64)
NON_INTEGERS = st.one_of(st.floats(), st.none(), st.binary(max_size=4), NAMES,
                         st.lists(st.integers(), max_size=2))
COUNT_VALUES = st.one_of(NON_INTEGERS, st.integers(max_value=0))
SEED_VALUES = st.one_of(NON_INTEGERS, st.integers(max_value=-1), st.integers(min_value=2**64))
# the generator's counts and seed: [2, SIZE_LIMIT) subjects, [MIN_ORACLE_N,
# SIZE_LIMIT) oracle draws and a seed of at least 0, none of them a float or text
SUBJECT_VALUES = st.one_of(NON_INTEGERS, st.sampled_from([50.0, "50", True]),
                           st.integers(max_value=1), st.integers(min_value=SIZE_LIMIT))
ORACLE_VALUES = st.one_of(NON_INTEGERS, st.sampled_from([100_000.0, "100000"]),
                          st.integers(max_value=MIN_ORACLE_N - 1),
                          st.integers(min_value=SIZE_LIMIT))
GENERATOR_SEED_VALUES = st.one_of(NON_INTEGERS, st.just(1.5), st.integers(max_value=-1))
# levels: anything but a real number strictly between 0 and 1
LEVEL_VALUES = st.one_of(st.none(), st.booleans(), st.binary(max_size=4), NAMES,
                         st.sampled_from(["0.9", 1.5, -1.0, 0.0, 1.0]), st.integers(),
                         st.lists(st.floats(), max_size=2),
                         st.floats().filter(lambda v: not 0.0 < v < 1.0))
# arms: anything but the integer 0 or 1, floats and bools that equal one included
ARM_VALUES = st.one_of(NON_INTEGERS, st.sampled_from([0.0, 1.0, True, False]),
                       st.integers(max_value=-1), st.integers(min_value=2))
SCORE_FIT = fit_principal_score(ARM0).fit
CONFIG = DgpConfig(n_subjects=2)
PROB_METHODS = tuple(m.value for m in ProbMethod)
DIRECTIONS = tuple(d.value for d in MonotonicityDirection)
RULES = tuple(r.value for r in CompleterRule)

# (call, strategy of values it must refuse, the names it knows, if any)
CASES = {
    "estimate_pce_table-covariates": (
        lambda v: estimate_pce_table(COLS, covariates=v), COVARIATE_VALUES, COVARIATES),
    "estimate_pce_table-methods": (
        lambda v: estimate_pce_table(COLS, methods=v), METHODS_VALUES, PCE_METHODS),
    "estimate_stratum_probs-method": (
        lambda v: estimate_stratum_probs(COLS, v), _values_of_one(PROB_METHODS), PROB_METHODS),
    "estimate_stratum_probs-covariates": (
        lambda v: estimate_stratum_probs(COLS, "cond-indep", covariates=v), COVARIATE_VALUES,
        COVARIATES),
    "fit_principal_score-covariates": (
        lambda v: fit_principal_score(ARM0, covariates=v), COVARIATE_VALUES, COVARIATES),
    "independence_test-method": (
        lambda v: independence_test(COLS, method=v, n_bootstrap=8),
        _values_of_one(PROB_METHODS), PROB_METHODS),
    "independence_test-n_bootstrap": (
        lambda v: independence_test(COLS, n_bootstrap=v), COUNT_VALUES, ()),
    "independence_test-seed": (
        lambda v: independence_test(COLS, n_bootstrap=8, seed=v), SEED_VALUES, ()),
    "independence_test-covariates": (
        lambda v: independence_test(COLS, covariates=v, n_bootstrap=8), COVARIATE_VALUES,
        COVARIATES),
    "ignorability_regressions-covariates": (
        lambda v: ignorability_regressions(COLS, v), COVARIATE_VALUES, COVARIATES),
    "monotonicity_report-direction": (
        lambda v: monotonicity_report(COLS, v), _values_of_one(DIRECTIONS), DIRECTIONS),
    "completer_mask-require": (lambda v: completer_mask(COLS, v), _values_of_one(RULES), RULES),
    "completer_filter-require": (
        lambda v: completer_filter(RECORDS, v), _values_of_one(RULES), RULES),
    "BootstrapSpec-n_replicates": (
        lambda v: BootstrapSpec(n_replicates=v, seed=0), COUNT_VALUES, ()),
    "BootstrapSpec-seed": (lambda v: BootstrapSpec(n_replicates=1, seed=v), SEED_VALUES, ()),
    "BootstrapSpec-ci_level": (
        lambda v: BootstrapSpec(n_replicates=1, seed=0, ci_level=v), LEVEL_VALUES, ()),
    "percentile_interval-ci_level": (
        lambda v: percentile_interval(np.arange(10.0), v), LEVEL_VALUES, ()),
    "DgpConfig-n_subjects": (lambda v: DgpConfig(n_subjects=v), SUBJECT_VALUES, ()),
    "DgpConfig-seed": (lambda v: DgpConfig(n_subjects=2, seed=v), GENERATOR_SEED_VALUES, ()),
    # None keeps the preset's count
    "scenario-n_subjects": (lambda v: scenario("paper_like", n_subjects=v),
                            SUBJECT_VALUES.filter(lambda v: v is not None), ()),
    "true_pce-oracle_n": (lambda v: true_pce(CONFIG, v), ORACLE_VALUES, ()),
    "as_parallel-t": (lambda v: as_parallel(RECORDS, v), ARM_VALUES, ()),
    "ParallelObservation-t": (
        lambda v: ParallelObservation("s1", (), (), v, 1, 0.0), ARM_VALUES, ()),
    "period_of_arm-t": (lambda v: RECORDS[0].period_of_arm(v), ARM_VALUES, ()),
    "estimate_mu_direct-t": (
        lambda v: estimate_mu_direct(RECORDS, JOINT_LABELS[3], v), ARM_VALUES, ()),
    "PrincipalScoreModel-arm": (
        lambda v: PrincipalScoreModel(v, SCORE_FIT, COVARIATES), ARM_VALUES, ()),
}
# each builder of an adherence value, named by "<builder>-<field>", and the
# error it raises
ADHERENCE_CALLS = {
    "StratumLabel-a0": (lambda v: StratumLabel(v, 1), ValueError),
    "StratumLabel-a1": (lambda v: StratumLabel(0, v), ValueError),
    "SubjectRecord-a_p1": (lambda v: dataclasses.replace(RECORDS[0], a_p1=v), SchemaError),
    "SubjectRecord-a_p2": (lambda v: dataclasses.replace(RECORDS[0], a_p2=v), SchemaError),
    "ParallelObservation-a": (lambda v: ParallelObservation("s1", (), (), 0, v, 0.0), SchemaError),
}


def _offenders(value: object, valid: tuple[str, ...]) -> list:
    """The value, and each of its elements that is unknown or repeated."""
    if not isinstance(value, list):
        return [value]
    return [value, *(e for e in value if e not in valid or value.count(e) > 1)]


@pytest.mark.parametrize("call, values, valid", CASES.values(), ids=CASES.keys())
@CONTRACT
@given(data=st.data())
def test_a_value_that_names_no_choice_is_refused_by_name(call, values, valid, data):
    value = data.draw(values)
    with pytest.raises((PcekitError, ValueError)) as info:
        call(value)
    message = str(info.value)
    assert any(repr(v) in message for v in _offenders(value, valid)), message


# values that equal 0 or 1 but are no integer, and integers outside {0, 1}
@pytest.mark.parametrize("value", [True, False, 1.0, 0.0, 2, -1], ids=repr)
@pytest.mark.parametrize("key", ADHERENCE_CALLS)
def test_an_adherence_value_that_is_not_the_integer_0_or_1_is_refused_by_name(key, value):
    call, error = ADHERENCE_CALLS[key]
    field = key.split("-")[1]
    message = f"{field} must be an integer of at least 0 and below 2, not {value!r}"
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(value)


COVARIATE_CALLS = {key: call for key, (call, _, _) in CASES.items() if key.endswith("-covariates")}


@pytest.mark.parametrize("call", COVARIATE_CALLS.values(), ids=COVARIATE_CALLS.keys())
def test_covariate_names_are_read_once(call):
    assert pickle.dumps(call(iter(COVARIATES))) == pickle.dumps(call(list(COVARIATES)))
