"""Deterministic subject-level resampling with percentile intervals.

Replicate index streams are derived from (seed, replicate_index) through a
SplitMix64 mix, so any replicate can be regenerated in isolation and results
are independent of evaluation order or chunking. Every resample, for the
bootstrap and for the independence test alike, is drawn by one engine,
``draw_replicates``, in chunks of one fixed budget of index draws. It runs
a caller's exact statistic on each row the caller's batched kernel leaves.
A replicate that statistic fails on is counted by exception name, then kept
as NaN (the bootstrap) or redrawn (the independence test). Past 10%
failures the engine errors out.

On Linux with more than one CPU the engine spreads the batched kernel's
chunks over forked child processes. Since a chunk's values do not depend
on where or in what order it is evaluated, the results are the same bytes
as in one process; everything after the batched kernel stays in the
calling process, in chunk order.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .core import TrialColumns
from .errors import BootstrapError, PcekitError

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)

T = TypeVar("T")


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    z = (z + _GOLDEN).astype(_U64)
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def resample_index_matrix(seed: int, first_replicate: int, n_replicates: int, n: int) -> np.ndarray:
    """Index rows for replicates [first, first + count) of an n-item resample.

    Row b depends only on (seed, b, n): stream key = mix(seed + (b+1)*phi),
    draw j = mix(key + (j+1)*phi), index = floor(top53(draw) / 2^53 * n).
    """
    if n <= 0:
        raise ValueError("cannot resample an empty collection")
    if n_replicates <= 0:
        return np.empty((0, n), dtype=np.int64)
    with np.errstate(over="ignore"):
        b = np.arange(first_replicate, first_replicate + n_replicates, dtype=_U64)
        keys = _splitmix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) + (b + _U64(1)) * _GOLDEN)
        j = (np.arange(1, n + 1, dtype=_U64)) * _GOLDEN
        draws = _splitmix64(keys[:, None] + j[None, :])
    u = (draws >> _U64(11)).astype(np.float64) * (2.0**-53)
    return np.minimum((u * n).astype(np.int64), n - 1)


def resample_counts(idx: np.ndarray, n: int) -> np.ndarray:
    """(b, n) multinomial counts: how often each subject occurs in each index row.

    A statistic that is a count-weighted function of the n subjects can be
    evaluated on a whole chunk of resamples at once from these rows.
    """
    b = idx.shape[0]
    flat = (idx + n * np.arange(b)[:, None]).ravel()
    return np.bincount(flat, minlength=b * n).reshape(b, n).astype(float)


@dataclass(frozen=True)
class BootstrapSpec:
    n_replicates: int
    seed: int
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be at least 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be strictly between 0 and 1")


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    se: float
    ci: tuple[float, float]
    n_effective: int
    n_failures: int
    failure_counts: dict[str, int]
    warnings: tuple[str, ...]


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    m = sorted_values.shape[0]
    rank = max(1, math.ceil(q * m))
    return float(sorted_values[min(rank, m) - 1])


def percentile_interval(values: np.ndarray, ci_level: float) -> tuple[float, float]:
    """Nearest-rank percentile interval over estimable replicate values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values to take percentiles of")
    if np.any(np.isnan(values)):
        raise ValueError("percentile input contains NaN")
    srt = np.sort(values)
    alpha = 1.0 - ci_level
    return (_nearest_rank(srt, alpha / 2.0), _nearest_rank(srt, 1.0 - alpha / 2.0))


def exceedance_p(values: Sequence[float] | np.ndarray, observed: float) -> float:
    """Add-one exceedance p-value: (#{v >= observed} + 1) / (len + 1)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("exceedance_p needs at least one value")
    if np.any(np.isnan(arr)) or math.isnan(observed):
        raise ValueError("exceedance_p input contains NaN")
    return (int(np.sum(arr >= observed)) + 1) / (arr.size + 1)


# each chunk of index rows holds about this many (replicate, subject) draws,
# which bounds a chunk's memory whatever the replicate count is
_CHUNK_ELEMENTS = 2**14

Chunk = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
# a warning a child recorded: (message, category, filename, lineno)
_Caught = tuple[Warning, type, str, int]


def _process_count(planned: int) -> int:
    """Processes to evaluate ``planned`` chunks in, the caller's included.

    One unless this is Linux with more than one CPU available and no other
    Python thread is alive: forking a threaded process copies locks that
    another thread may hold.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), planned))


def _fork_share(chunk: Chunk, seed: int, n: int, share: list[tuple[int, int]]) -> tuple[int, int]:
    """Fork a child that evaluates ``chunk`` on each (first replicate, count)
    of ``share`` and pickles [(values, retry, warnings caught), ...] into a
    pipe. Returns its pid and the pipe's read end.

    The child always leaves by ``os._exit``, so it flushes none of the
    parent's buffers and runs no exit handler; after any exception it exits
    non-zero without a word, and the parent evaluates the share itself.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        results = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for first, count in share:
                values, retry = chunk(resample_index_matrix(seed, first, count, n))
                results.append((values, retry, [(w.message, w.category, w.filename, w.lineno)
                                                for w in caught]))
                caught.clear()
        with open(write_fd, "wb") as pipe:
            pickle.dump(results, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(children: dict[int, tuple[int, int, list]], first: int) -> dict:
    """Read and reap the child whose share starts at replicate ``first``.

    Returns its results keyed by (first replicate, count); none if it did
    not exit cleanly.
    """
    pid, fd, share = children[first]
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del children[first]
    os.close(fd)
    if os.waitstatus_to_exitcode(status) != 0:
        return {}
    return dict(zip(share, pickle.loads(data)))


def _reissue(caught: list[_Caught]) -> None:
    """Warn again, in this process, what a child's chunk warned.

    Each warning goes through the name and registry of the module that
    issued it, as ``warnings.warn`` would, so the active filters show it
    once per location just as if the chunk had run here. The module's
    globals are not passed: given them, CPython's ``warn_explicit`` asks the
    module's loader for its source on every call, even for a warning the
    registry then suppresses. The line shown is read by ``linecache``
    either way.
    """
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        registry = None if module is None else vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno,
                               getattr(module, "__name__", None), registry)


def draw_replicates(
    seed: int,
    n: int,
    n_replicates: int,
    chunk: Chunk,
    one: Callable[[np.ndarray], np.ndarray],
    redraw: bool = False,
) -> tuple[np.ndarray, dict[str, int]]:
    """Evaluate a statistic on ``n_replicates`` resamples of n subjects.

    Index rows are drawn in chunks by ``resample_index_matrix``. ``chunk``
    maps a (b, n) chunk of rows to (b, m) values and a (b,) mask of rows it
    leaves to ``one``, the exact (m,) values of one index row. A row fails
    where ``one`` raises a package error or ArithmeticError; it stays NaN,
    or with ``redraw`` is replaced by the next stream. A chunk never holds
    more rows than replicates still needed, so the rows drawn are those of
    a one-at-a-time loop. Returns the (n_replicates, m) values and the
    failures counted by name; more than 10% failures raise BootstrapError.

    The chunks whose bounds no failure can move are planned up front: every
    chunk, or with ``redraw`` each one that starts at least one full chunk
    before ``n_replicates``. With P = min(CPUs available, planned chunks)
    greater than one (see ``_process_count``), P - 1 forked children
    evaluate ``chunk`` on contiguous shares of the later planned chunks, each
    drawing its own index rows, while this process takes the first share.
    Every chunk is then consumed here in order: ``one`` runs here on the
    rows a chunk leaves, drawing only those rows, and warnings a child's
    chunk raised are raised again here in their turn. A chunk a child did
    not deliver is evaluated here, so an exception from ``chunk`` surfaces
    here after the same chunks as in one process. Children still running
    when this returns or raises are killed, and every child is reaped.
    """
    kept: list[np.ndarray] = []
    failure_counts: dict[str, int] = {}
    filled = 0
    attempt = 0
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // n)
    stop = n_replicates - rows_per_chunk + 1 if redraw else n_replicates
    plan = [(first, min(rows_per_chunk, n_replicates - first))
            for first in range(0, stop, rows_per_chunk)]
    procs = _process_count(len(plan))
    # first replicate of each child's share -> (pid, pipe read end, share)
    children: dict[int, tuple[int, int, list]] = {}
    delivered: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, list[_Caught]]] = {}
    try:
        for p in range(1, procs):
            share = plan[len(plan) * p // procs:len(plan) * (p + 1) // procs]
            try:
                pid, fd = _fork_share(chunk, seed, n, share)
            except OSError:  # no process or pipe to be had: the rest is evaluated here
                break
            children[share[0][0]] = (pid, fd, share)
        while filled < n_replicates:
            count = min(rows_per_chunk, n_replicates - filled)
            if attempt in children:
                delivered.update(_collect(children, attempt))
            got = delivered.pop((attempt, count), None)
            if got is None:
                idx = resample_index_matrix(seed, attempt, count, n)
                values, retry = chunk(idx)
                row = idx.__getitem__
            else:
                values, retry, caught = got
                _reissue(caught)
                # draw only the rows left to one, a run of adjacent rows at a time
                wanted = np.flatnonzero(retry)
                rows: dict[int, np.ndarray] = {}
                for run in np.split(wanted, np.flatnonzero(np.diff(wanted) > 1) + 1):
                    if run.size:
                        block = resample_index_matrix(seed, attempt + int(run[0]), run.size, n)
                        rows.update(zip(run.tolist(), block))
                row = rows.__getitem__
            attempt += count
            failed: dict[int, str] = {}
            for r in np.flatnonzero(retry).tolist():
                try:
                    values[r] = one(row(r))
                except (PcekitError, ArithmeticError) as exc:
                    failed[r] = type(exc).__name__
            for name in failed.values():
                failure_counts[name] = failure_counts.get(name, 0) + 1
            n_failures = sum(failure_counts.values())
            if n_failures > 0.1 * n_replicates:
                dominant = max(failure_counts, key=failure_counts.get)  # type: ignore[arg-type]
                raise BootstrapError(
                    f"statistic failed on {n_failures} of the first {attempt} replicates "
                    f"(>10% of {n_replicates}); dominant failure: {dominant}"
                )
            if redraw:
                values = np.delete(values, list(failed), axis=0)
            else:
                values[list(failed)] = np.nan
            kept.append(values)
            filled += len(values)
    finally:
        for pid, fd, _ in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return np.concatenate(kept), failure_counts


def bootstrap(
    records: Sequence[T],
    statistic: Callable[[list[T]], float],
    spec: BootstrapSpec,
) -> BootstrapResult:
    """Subject-level bootstrap of a scalar statistic: ``bootstrap_vector``
    with one component.

    The statistic must be defined on the original records (errors propagate);
    on resamples, package errors mark the replicate inestimable.
    """
    res = bootstrap_vector(records, lambda sample: np.asarray([float(statistic(sample))]), spec)
    return BootstrapResult(
        point=float(res.points[0]),
        se=float(res.se[0]),
        ci=(float(res.ci[0, 0]), float(res.ci[0, 1])),
        n_effective=int(res.n_effective[0]),
        n_failures=res.n_failures,
        failure_counts=res.failure_counts,
        warnings=res.warnings,
    )


@dataclass(frozen=True)
class VectorBootstrapResult:
    """Component-wise bootstrap summaries sharing one set of resamples."""

    points: np.ndarray
    se: np.ndarray
    ci: np.ndarray  # shape (m, 2)
    n_effective: np.ndarray
    n_failures: int
    failure_counts: dict[str, int]
    warnings: tuple[str, ...]


def bootstrap_vector(
    records: Sequence[T] | TrialColumns,
    statistic: Callable[[list[T]], np.ndarray] | Callable[[TrialColumns], np.ndarray],
    spec: BootstrapSpec,
    chunk_statistic: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> VectorBootstrapResult:
    """Bootstrap a vector statistic; NaN components mark inestimable pieces.

    Columns are resampled by row, with ``TrialColumns.take``; any other
    sequence is resampled as a list. A raised package error fails the whole
    replicate, which stays NaN and is counted by exception name;
    per-component inestimability should be encoded as NaN so the other
    components survive.

    ``chunk_statistic``, if given, is the engine's ``chunk``: it evaluates a
    (b, n) chunk of index rows at once and returns (b, m) values and a (b,)
    mask of the rows it could not evaluate cleanly; only those rows (all,
    without it) are resampled and passed to ``statistic``, whose verdict,
    value or exception, stands for them.
    """
    columnar = isinstance(records, TrialColumns)
    if not columnar:
        records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("cannot bootstrap an empty record list")
    points = np.asarray(statistic(records), dtype=float)
    m = points.shape[0]

    def one(row: np.ndarray) -> np.ndarray:
        return statistic(records.take(row) if columnar else [records[i] for i in row.tolist()])

    def every_row(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full((idx.shape[0], m), np.nan), np.ones(idx.shape[0], dtype=bool)

    b_total = spec.n_replicates
    values, failure_counts = draw_replicates(
        spec.seed, n, b_total, chunk_statistic or every_row, one
    )

    se = np.zeros(m)
    ci = np.zeros((m, 2))
    n_eff = np.zeros(m, dtype=int)
    for j in range(m):
        col = values[:, j]
        good = col[~np.isnan(col)]
        n_eff[j] = good.size
        if good.size >= 2:
            se[j] = float(np.std(good, ddof=1))
        if good.size >= 1:
            ci[j] = percentile_interval(good, spec.ci_level)
        else:
            ci[j] = (np.nan, np.nan)
    warns: list[str] = []
    if b_total < 20:
        warns.append(
            f"only {b_total} replicates; the percentile interval is unstable below 20"
        )
    return VectorBootstrapResult(
        points=points,
        se=se,
        ci=ci,
        n_effective=n_eff,
        n_failures=sum(failure_counts.values()),
        failure_counts=failure_counts,
        warnings=tuple(warns),
    )
