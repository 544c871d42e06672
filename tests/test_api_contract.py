"""The library API's contract for the values that name a choice.

Every function in ``pcekit.__all__`` that takes ``covariates``, ``method``,
``methods``, ``direction`` or ``require`` refuses an unknown, repeated or
wrongly typed value with a ``PcekitError`` or ``ValueError`` whose message
holds the repr of the value or of an offending element. It never accepts
such a value silently, and never fails with a ``TypeError``,
``AttributeError`` or ``NameError``. The one accepted case is a repeated
method, which collapses by design. Examples are derandomized, so every run
of the suite tries the same inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit import (
    CompleterRule,
    MonotonicityDirection,
    PceMethod,
    ProbMethod,
    as_columns,
    as_parallel,
    completer_filter,
    completer_mask,
    estimate_pce_table,
    estimate_stratum_probs,
    fit_principal_score,
    ignorability_regressions,
    independence_test,
    monotonicity_report,
)
from pcekit.errors import PcekitError
from pcekit.simulator import generate_trial, scenario

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
PROB_METHODS = tuple(m.value for m in ProbMethod)
DIRECTIONS = tuple(d.value for d in MonotonicityDirection)
RULES = tuple(r.value for r in CompleterRule)

# (call, strategy of values it must refuse, the names it knows)
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
