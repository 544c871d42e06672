import itertools
import math
import os
import warnings

import numpy as np
import pytest

from pcekit import resampling
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



# The engine held to one process, and spread over three with two forked
# children, on chunks of 4 rows of 9 subjects: 40 replicates make 10 chunks.
N, ROWS = 9, 4


@pytest.fixture
def both_ways(monkeypatch):
    """Run a thunk with the engine in one process, then in three."""
    if not hasattr(os, "fork"):
        pytest.skip("the engine forks only where os.fork exists")
    monkeypatch.setattr(resampling, "_CHUNK_ELEMENTS", N * ROWS)
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    def run(thunk, processes):
        forks.clear()
        with monkeypatch.context() as m:
            m.setattr(os, "fork", counting_fork)
            m.setattr(resampling, "_process_count", lambda planned: min(processes, planned))
            result = thunk()
        assert len(forks) == processes - 1
        return result

    return lambda thunk: (run(thunk, 1), run(thunk, 3))


def chunk_values(idx):
    return idx[:, :2] * 1.5, idx[:, 0] <= 1


def one_value(row):
    if row[0] == 0:  # about one row in nine fails
        raise InestimableStratumError("no exact value")
    return row[:2] + 100.0


@pytest.mark.parametrize("redraw", [False, True], ids=["nan", "redraw"])
@pytest.mark.parametrize("n_replicates", [40, 37])
def test_spread_engine_matches_one_process_bit_for_bit(both_ways, redraw, n_replicates):
    # seed 20 fails replicates 25 and 27, in the planned chunks, and with
    # redraw at 40 also 40 and 41, in the tail drawn after them; 37
    # replicates end on a short chunk
    alone, spread = both_ways(
        lambda: draw_replicates(20, N, n_replicates, chunk_values, one_value, redraw=redraw))
    tail = 2 if redraw and n_replicates == 40 else 0
    assert alone[1] == {"InestimableStratumError": 2 + tail}
    assert alone[1] == spread[1]
    assert alone[0].shape == (n_replicates, 2)
    assert alone[0].tobytes() == spread[0].tobytes()


def test_spread_engine_aborts_with_the_same_message(both_ways):
    def every_row(idx):
        return np.zeros((len(idx), 2)), np.ones(len(idx), dtype=bool)

    def one(row):
        if 0 not in row[:3]:  # fails on about seven rows in ten
            raise InestimableStratumError("no zero drawn")
        return row[:2] * 1.0

    def thunk():
        with pytest.raises(BootstrapError) as info:
            draw_replicates(3, N, 40, every_row, one, redraw=True)
        return str(info.value)

    alone, spread = both_ways(thunk)
    assert alone == spread
    assert "dominant failure: InestimableStratumError" in alone


def test_spread_engine_raises_a_chunk_error_after_the_same_chunks(both_ways):
    # replicate 28 leads the second chunk of the last child's share
    bad = resample_index_matrix(5, 28, 1, N)[0]

    def chunk(idx):
        if np.array_equal(idx[0], bad):
            raise ValueError("a bug in the kernel")
        return chunk_values(idx)

    def thunk():
        seen = []

        def one(row):
            seen.append(row.tolist())
            return row[:2] * 1.0

        with pytest.raises(ValueError, match="a bug in the kernel"):
            draw_replicates(5, N, 40, chunk, one)
        return seen

    alone, spread = both_ways(thunk)
    assert alone == spread and alone


def test_spread_engine_recomputes_the_chunks_of_a_child_that_dies(both_ways):
    parent = os.getpid()

    def chunk(idx):
        if os.getpid() != parent:
            os._exit(3)
        return chunk_values(idx)

    alone, spread = both_ways(lambda: draw_replicates(4, N, 40, chunk, one_value))
    assert alone[1] == spread[1]
    assert alone[0].tobytes() == spread[0].tobytes()


@pytest.mark.parametrize("action", ["always", "default"])
def test_spread_engine_warns_what_child_chunks_warn_in_order(both_ways, action):
    def chunk(idx):
        warnings.warn("every chunk warns this")
        warnings.warn(f"chunk led by {idx[0].tolist()}", RuntimeWarning)
        return chunk_values(idx)

    def thunk():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            draw_replicates(4, N, 40, chunk, one_value)
        return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    alone, spread = both_ways(thunk)
    assert alone == spread
    # "default" shows a line once per message and location, as one process does
    assert len(alone) == (20 if action == "always" else 11)


def test_spread_engine_draws_only_the_rows_it_evaluates(both_ways, monkeypatch):
    # each process draws the rows of the chunks it evaluates; for a child's
    # chunk, this one draws only the rows left to one
    drawn = []  # a child appends to its own copy
    real = resample_index_matrix

    def counting(seed, first, count, n):
        drawn.append(count)
        return real(seed, first, count, n)

    monkeypatch.setattr(resampling, "resample_index_matrix", counting)

    def thunk():
        drawn.clear()
        draw_replicates(20, N, 40, chunk_values, one_value)
        return sum(drawn)

    alone, spread = both_ways(thunk)
    # the first share is chunks 0-2; children evaluate replicates 12-39
    left = real(20, 12, 28, N)[:, 0] <= 1
    assert alone == 40
    assert spread == 12 + int(left.sum()) < 40
