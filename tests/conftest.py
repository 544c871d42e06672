import threading

import pytest

from pcekit.core import SubjectRecord, TreatmentSequence


def make_record(
    sid,
    sequence="CF",
    x=(1.0,),
    a=(1, 1),
    y=(10.0, 12.0),
    covariate_names=("x_base",),
):
    return SubjectRecord(
        subject_id=sid,
        covariate_names=covariate_names,
        covariates=tuple(x),
        sequence=TreatmentSequence(sequence),
        a_p1=a[0],
        a_p2=a[1],
        y_p1=y[0],
        y_p2=y[1],
    )


@pytest.fixture
def record_factory():
    return make_record


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a live non-daemon thread behind."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.is_alive() and not t.daemon]
    if leaked:
        pytest.fail(f"test left non-daemon threads running: {', '.join(leaked)}")
