import itertools
import math

import numpy as np
import pytest

from pcekit.errors import BootstrapError, InestimableStratumError
from pcekit.resampling import (
    BootstrapSpec,
    bootstrap,
    bootstrap_vector,
    draw_replicates,
    exceedance_p,
    percentile_interval,
    resample_index_matrix,
)


def test_index_streams_are_replicate_addressable():
    # row b of a batch equals the standalone draw for replicate b
    batch = resample_index_matrix(seed=7, first_replicate=0, n_replicates=10, n=13)
    for b in range(10):
        assert np.array_equal(batch[b], resample_index_matrix(7, b, 1, 13)[0])
    shifted = resample_index_matrix(seed=7, first_replicate=4, n_replicates=2, n=13)
    assert np.array_equal(shifted[0], batch[4])
    assert np.array_equal(shifted[1], batch[5])


def test_index_streams_vary_with_seed_and_replicate():
    a = resample_index_matrix(1, 0, 1, 50)[0]
    assert not np.array_equal(a, resample_index_matrix(2, 0, 1, 50)[0])
    assert not np.array_equal(a, resample_index_matrix(1, 1, 1, 50)[0])
    assert np.array_equal(a, resample_index_matrix(1, 0, 1, 50)[0])


def test_indices_stay_in_range():
    idx = resample_index_matrix(seed=3, first_replicate=0, n_replicates=200, n=7)
    assert idx.min() >= 0
    assert idx.max() <= 6
    # all positions get hit eventually
    assert set(np.unique(idx)) == set(range(7))
    with pytest.raises(ValueError):
        resample_index_matrix(0, 0, 1, 0)


def test_exhaustive_enumeration_of_three_point_mean():
    data = [0.0, 1.0, 2.0]
    means = [
        np.mean([data[i], data[j], data[k]])
        for i, j, k in itertools.product(range(3), repeat=3)
    ]
    assert len(means) == 27
    sd = float(np.std(means, ddof=0))
    assert sd == pytest.approx(math.sqrt(2 / 9), abs=1e-12)


def test_engine_se_approaches_enumerated_sd():
    data = [0.0, 1.0, 2.0]
    res = bootstrap(data, lambda s: float(np.mean(s)), BootstrapSpec(n_replicates=2000, seed=0))
    assert res.point == 1.0
    assert res.se == pytest.approx(math.sqrt(2 / 9), rel=0.05)
    assert res.n_effective == 2000
    assert res.n_failures == 0


def test_percentile_interval_nearest_rank():
    values = np.arange(1.0, 21.0)
    lo, hi = percentile_interval(values, 0.9)
    # ranks ceil(0.05*20)=1 and ceil(0.95*20)=19
    assert (lo, hi) == (1.0, 19.0)
    assert percentile_interval(np.asarray([5.0]), 0.95) == (5.0, 5.0)
    with pytest.raises(ValueError):
        percentile_interval(np.asarray([]), 0.95)
    with pytest.raises(ValueError):
        percentile_interval(np.asarray([1.0, np.nan]), 0.95)


def test_exceedance_p_add_one_rule():
    values = [1.0, 2.0, 3.0, 4.0]
    assert exceedance_p(values, 2.5) == pytest.approx(3 / 5)
    assert exceedance_p(values, 5.0) == pytest.approx(1 / 5)
    assert exceedance_p(values, 0.0) == 1.0
    with pytest.raises(ValueError):
        exceedance_p([], 1.0)
    with pytest.raises(ValueError):
        exceedance_p([np.nan], 1.0)


def test_bootstrap_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(n_replicates=0, seed=1)
    with pytest.raises(ValueError):
        BootstrapSpec(n_replicates=10, seed=1, ci_level=1.0)


def test_small_replicate_count_warns_in_result():
    res = bootstrap([1.0, 2.0, 3.0], lambda s: float(np.mean(s)), BootstrapSpec(10, seed=1))
    assert any("replicates" in w for w in res.warnings)
    assert res.n_effective == 10


def scalar_run(records, statistic, spec):
    res = bootstrap(records, statistic, spec)
    return res.n_failures, res.n_effective, res.failure_counts


def vector_run(records, statistic, spec):
    res = bootstrap_vector(records, lambda s: np.asarray([statistic(s), 1.0]), spec)
    assert res.n_effective[0] == res.n_effective[1]
    return res.n_failures, int(res.n_effective[0]), res.failure_counts


@pytest.mark.parametrize("run", [scalar_run, vector_run], ids=["scalar", "vector"])
def test_failed_replicates_are_counted_not_fatal(run):
    records = list(range(20))
    spec = BootstrapSpec(n_replicates=100, seed=5)

    def statistic(sample):
        if sample[0] == 19:  # fails on ~5% of resamples
            raise InestimableStratumError("triggered")
        if sample[0] == 18:
            raise ZeroDivisionError("triggered")
        return float(np.mean(sample))

    n_failures, n_effective, failure_counts = run(records, statistic, spec)
    first = [int(resample_index_matrix(5, b, 1, 20)[0, 0]) for b in range(100)]
    assert first.count(19) > 0 and first.count(18) > 0
    assert n_failures == first.count(19) + first.count(18) <= 10
    assert n_effective == 100 - n_failures
    assert failure_counts == {
        "InestimableStratumError": first.count(19),
        "ZeroDivisionError": first.count(18),
    }


@pytest.mark.parametrize("run", [scalar_run, vector_run], ids=["scalar", "vector"])
def test_bootstrap_errors_out_past_failure_cap(run):
    records = list(range(4))

    def statistic(sample):
        if 0 not in sample:  # fails on ~32% of resamples
            raise InestimableStratumError("no zero drawn")
        if sample[0] == 3:
            raise ZeroDivisionError("rarer")
        return float(np.mean(sample))

    with pytest.raises(BootstrapError, match="dominant failure: InestimableStratumError"):
        run(records, statistic, BootstrapSpec(n_replicates=200, seed=3))


def test_redraw_keeps_the_first_successes_in_attempt_order():
    n, n_replicates, seed = 9, 40, 4

    def fails(row):
        return row[0] == 0  # about one row in nine

    def chunk(idx):
        return idx[:, :2].astype(float), np.asarray([fails(row) for row in idx])

    def one(row):
        raise InestimableStratumError("every row the chunk leaves fails")

    values, failure_counts = draw_replicates(seed, n, n_replicates, chunk, one, redraw=True)
    kept, rejected, attempt = [], 0, 0
    while len(kept) < n_replicates:
        row = resample_index_matrix(seed, attempt, 1, n)[0]
        attempt += 1
        if fails(row):
            rejected += 1
        else:
            kept.append(row[:2])
    assert rejected > 0
    assert failure_counts == {"InestimableStratumError": rejected}
    assert np.array_equal(values, np.asarray(kept, dtype=float))


@pytest.mark.parametrize("redraw", [False, True], ids=["nan", "redraw"])
def test_rows_left_by_the_chunk_take_the_exact_statistic(redraw):
    n, n_replicates, seed = 9, 40, 4

    def chunk(idx):
        return idx[:, :2].astype(float), idx[:, 0] <= 1

    def one(row):
        if row[0] == 0:  # about one row in nine fails; those led by 1 succeed
            raise InestimableStratumError("no exact value")
        return row[:2] + 100.0

    values, failure_counts = draw_replicates(seed, n, n_replicates, chunk, one, redraw=redraw)
    expected, rejected, repaired, attempt = [], 0, 0, 0
    while len(expected) < n_replicates:
        row = resample_index_matrix(seed, attempt, 1, n)[0]
        attempt += 1
        if row[0] == 0:
            rejected += 1
            if not redraw:
                expected.append([np.nan, np.nan])
        elif row[0] == 1:
            repaired += 1
            expected.append(row[:2] + 100.0)
        else:
            expected.append(row[:2])
    assert rejected > 0 and repaired > 0
    assert failure_counts == {"InestimableStratumError": rejected}
    np.testing.assert_array_equal(values, np.asarray(expected, dtype=float))

    def broken(row):
        raise ValueError("a bug, not a failed replicate")

    with pytest.raises(ValueError, match="a bug"):
        draw_replicates(seed, n, n_replicates, chunk, broken, redraw=redraw)


def test_point_estimate_errors_propagate():
    def statistic(sample):
        raise InestimableStratumError("always")

    with pytest.raises(InestimableStratumError):
        bootstrap([1.0, 2.0], statistic, BootstrapSpec(n_replicates=10, seed=0))
    with pytest.raises(ValueError):
        bootstrap([], lambda s: 0.0, BootstrapSpec(n_replicates=10, seed=0))


def test_vector_bootstrap_tracks_components_separately():
    records = list(range(12))
    spec = BootstrapSpec(n_replicates=60, seed=8)

    def statistic(sample):
        first = float(np.mean(sample))
        # second component is inestimable unless index 0 was drawn
        second = float(np.min(sample)) if 0 in sample else np.nan
        return np.asarray([first, second])

    res = bootstrap_vector(records, statistic, spec)
    assert res.points.shape == (2,)
    assert res.n_effective[0] == 60
    assert 0 < res.n_effective[1] <= 60
    assert res.ci.shape == (2, 2)
    assert res.se[0] > 0


def test_vector_bootstrap_shares_index_streams_with_scalar():
    records = [3.0, 1.0, 4.0, 1.0, 5.0]
    spec = BootstrapSpec(n_replicates=30, seed=12)
    scalar = bootstrap(records, lambda s: float(np.mean(s)), spec)
    vector = bootstrap_vector(records, lambda s: np.asarray([float(np.mean(s))]), spec)
    assert scalar.se == pytest.approx(float(vector.se[0]), abs=1e-15)
    assert scalar.ci == (float(vector.ci[0, 0]), float(vector.ci[0, 1]))
