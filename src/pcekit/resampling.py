"""Deterministic subject-level resampling with percentile intervals.

Replicate index streams are derived from (seed, replicate_index) through a
SplitMix64 mix, so any replicate can be regenerated in isolation and drawn
in any order. Every resample, for the bootstrap and for the independence
test alike, is drawn by one engine, ``draw_replicates``, in chunks of one
fixed budget of index draws, ``_CHUNK_ELEMENTS`` (2^15): 163 replicates per
chunk at n = 200, 65 at n = 500. A batched fit's last bits can depend on
which rows share its chunk, so the budget is part of the bootstrap's
output: the same chunk plan gives the same bytes in any process, another
budget may not. Both loops plan their chunks by one rule: every full
chunk, and the short last one when every process would still hold a full
chunk; a plan of one chunk runs in the calling process. The engine runs a
caller's exact statistic on each row the caller's batched kernel leaves. A
replicate that statistic fails on is counted by exception name, then kept
as NaN (the bootstrap) or redrawn (the independence test). Past 10%
failures the engine errors out.

``spread``, a lazy in-order map, is pcekit's one way to use more CPUs: on
Linux it evaluates shares of its items in forked child processes. The
engine runs its batched kernel's chunks through it, and ``replicate`` its
whole trials. A spread opened inside another stays in its process. An
item's value does not depend on where it is evaluated, so the results are
the same bytes as in one process.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import sys
import threading
import warnings
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .core import TrialColumns, check_integer
from .errors import BootstrapError, PcekitError

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")  # the starts a statistic's resamples take

# resample streams are keyed by the seed's 64 bits, so a seed outside
# [0, SEED_LIMIT) would repeat the resamples of one inside it
SEED_LIMIT = 2**64


def finite_real(value: object) -> bool:
    """Whether value is a finite real number; a bool, a string or None is none."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def check_level(name: str, value: object) -> None:
    """Refuse, by name and value, anything but a real number strictly between 0 and 1."""
    if not (finite_real(value) and 0.0 < value < 1.0):
        raise ValueError(f"{name} must be a number strictly between 0 and 1, not {value!r}")


def _mix(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SplitMix64's finalizer, in place on a uint64 array (wrapping
    arithmetic); z already holds its input plus the golden gamma. Returns z
    and the scratch array of its shape that the finalizer used."""
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z, t


def resample_index_matrix(seed: int, first_replicate: int, n_replicates: int, n: int) -> np.ndarray:
    """Index rows for replicates [first, first + count) of an n-item resample.

    Row b depends only on (seed, b, n): stream key = mix(seed + (b+1)*phi),
    draw j = mix(key + (j+1)*phi), index = floor(top53(draw) / 2^53 * n),
    where mix(z) is SplitMix64's finalizer applied to z + phi.

    The rows are built in two (count, n) buffers, which each step overwrites
    in place: the draws, then the indices as int64, in one, and the mix's
    scratch, then the scaled draws as float64, in the other.
    """
    if n <= 0:
        raise ValueError("cannot resample an empty collection")
    if n_replicates <= 0:
        return np.empty((0, n), dtype=np.int64)
    with np.errstate(over="ignore"):
        # uint64 sums wrap, so each mix's own + phi folds into the multiple
        # of phi: (k + 1) * phi + phi = (k + 2) * phi
        b = np.arange(first_replicate + 2, first_replicate + n_replicates + 2, dtype=_U64)
        keys = _mix(_U64(seed & 0xFFFFFFFFFFFFFFFF) + b * _GOLDEN)[0]
        z, t = _mix(keys[:, None] + np.arange(2, n + 2, dtype=_U64) * _GOLDEN)
    np.right_shift(z, _U64(11), out=z)
    # top53 * 2^-53 is exact, so scaling by n * 2^-53 rounds as (top53 * 2^-53) * n
    u = np.multiply(z, n * 2.0**-53, out=t.view(np.float64), casting="unsafe")
    idx = z.view(np.int64)
    np.copyto(idx, u, casting="unsafe")
    return np.minimum(idx, n - 1, out=idx)


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
        check_integer("n_replicates", self.n_replicates, 1)
        check_integer("seed", self.seed, 0, SEED_LIMIT)
        check_level("ci_level", self.ci_level)


class BootstrapResult(NamedTuple):
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
    check_level("ci_level", ci_level)
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


# each chunk of index rows holds about this many (replicate, subject) draws;
# it bounds a chunk's memory whatever the replicate count is. Another budget
# regroups the batched fits and may move the last bits of a bootstrap's
# replicates, which are its output
_CHUNK_ELEMENTS = 2**15

Chunk = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
# a warning a child recorded: (message, category, filename, lineno)
_Caught = tuple[Warning, type, str, int]


def _process_count(items: int) -> int:
    """Processes to evaluate ``items`` items in, the caller's included.

    One unless this is Linux with more than one CPU available and no other
    Python thread is alive: forking a threaded process copies locks that
    another thread may hold.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items))


def _fork_share(fn: Callable[[T], R], share: Sequence[T]) -> tuple[int, int]:
    """Fork a child that pickles [(fn(item), warnings caught), ...] for the
    items of ``share`` into a pipe. Returns its pid and the pipe's read end.

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
            for item in share:
                value = fn(item)
                results.append((value, [(w.message, w.category, w.filename, w.lineno)
                                        for w in caught]))
                caught.clear()
        with open(write_fd, "wb") as pipe:
            pickle.dump(results, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(children: dict[int, tuple[int, int]], first: int) -> list | None:
    """Read and reap the child whose share starts at item ``first``.

    Returns its [(value, warnings caught), ...]; None if it did not exit
    cleanly.
    """
    pid, fd = children[first]
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del children[first]
    os.close(fd)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    return pickle.loads(data)


def _reissue(caught: list[_Caught]) -> None:
    """Warn again, in this process, what a child's item warned.

    Each warning goes through the name and registry of the module that
    issued it, as ``warnings.warn`` would, so the active filters show it
    once per location just as if the item had run here. The module's
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


# spreads open in this process; a forked child inherits its parent's count
_open_spreads = 0


def spread(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """Yield ``fn(item)`` for each of ``items`` in order, over every CPU.

    With P = ``_process_count(len(items))`` above one, P - 1 forked children
    evaluate contiguous shares of the later items. This process evaluates
    the first share as its values are asked for, reads a child's pipe when
    that child's share is reached and raises again the warnings its items
    raised; a share a child did not deliver is evaluated here. Values,
    warnings and exceptions thus come as in a serial loop, given an ``fn``
    whose value does not depend on the process it runs in. Children still
    running when the generator ends or is closed are killed, and all are
    reaped: wrap it in ``contextlib.closing``, as garbage collection may
    come late.

    A spread opened while another is open in the same process, by ``fn`` in
    this process or in a child or by the consumer, stays in that process:
    the outer spread already has every CPU busy.
    """
    global _open_spreads
    procs = 1 if _open_spreads else _process_count(len(items))
    _open_spreads += 1
    bounds = [len(items) * p // procs for p in range(procs + 1)]
    # first item of each child's share -> (pid, pipe read end)
    children: dict[int, tuple[int, int]] = {}
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            try:
                children[lo] = _fork_share(fn, items[lo:hi])
            except OSError:  # no process or pipe to be had: the rest is evaluated here
                break
        for lo, hi in zip(bounds, bounds[1:]):
            delivered = _collect(children, lo) if lo in children else None
            if delivered is None:
                for item in items[lo:hi]:
                    yield fn(item)
            else:
                for value, caught in delivered:
                    _reissue(caught)
                    yield value
    finally:
        _open_spreads -= 1
        if children:  # closed early: kill the children still running
            import signal
        for pid, fd in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def draw_replicates(
    seed: int,
    n: int,
    n_replicates: int,
    chunk: Chunk,
    one: Callable[[np.ndarray], np.ndarray],
    redraw: bool = False,
) -> tuple[np.ndarray, dict[str, int]]:
    """Evaluate a statistic on ``n_replicates`` resamples of n subjects.

    Index rows are drawn by ``resample_index_matrix`` in chunks of
    ``_CHUNK_ELEMENTS // n`` rows, at least one, with the budget read at
    call time. A batched fit's last bits can depend on which rows share its
    chunk, so the budget is part of any output that shows a replicate's
    value, as the bootstrap's spread and percentiles do. ``chunk`` maps a
    (b, n) chunk of rows to (b, m) values and a (b,) mask of rows it leaves to ``one``, the exact
    (m,) values of one index row. A row fails where ``one`` raises a
    package error or ArithmeticError; it stays NaN, or with ``redraw`` is
    replaced by the next stream. A chunk never holds more rows than
    replicates still needed, so the rows drawn are those of a one-at-a-time
    loop. Returns the (n_replicates, m) values and the failures counted by
    name; more than 10% failures raise BootstrapError.

    The chunks of a run with no failure are planned up front: every full
    chunk, and the short last one when each process's share would still
    hold a full chunk. ``chunk`` runs on them through ``spread``, which
    hands back with each chunk's values the rows it leaves. A planned chunk
    is taken only when its bounds are the next chunk's; a redraw can only
    lengthen the last chunk, which is then drawn here and its planned copy
    dropped unread. The rest stays here, in chunk order: ``one`` on the
    rows left, failure counts, the 10% stop and the redraws.
    """
    kept: list[np.ndarray] = []
    failure_counts: dict[str, int] = {}
    filled = 0
    attempt = 0
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // n)
    full, short = divmod(n_replicates, rows_per_chunk)

    def evaluate(bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = resample_index_matrix(seed, *bounds, n)
        values, retry = chunk(idx)
        return values, retry, idx[retry]

    plan = [(k * rows_per_chunk, rows_per_chunk) for k in range(full)]
    if short and full >= _process_count(full + 1):
        plan.append((full * rows_per_chunk, short))
    with closing(spread(evaluate, plan)) as planned:
        while filled < n_replicates:
            bounds = (attempt, min(rows_per_chunk, n_replicates - filled))
            taken = len(kept) < len(plan) and plan[len(kept)] == bounds
            values, retry, left = next(planned) if taken else evaluate(bounds)
            attempt += bounds[1]
            failed: dict[int, str] = {}
            for r, row in zip(np.flatnonzero(retry).tolist(), left):
                try:
                    values[r] = one(row)
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
    res = bootstrap_vector(
        records, lambda sample, starts: (np.asarray([float(statistic(sample))]), starts), spec
    )
    return BootstrapResult(
        point=float(res.points[0]),
        se=float(res.se[0]),
        ci=(float(res.ci[0, 0]), float(res.ci[0, 1])),
        n_effective=int(res.n_effective[0]),
        n_failures=res.n_failures,
        failure_counts=res.failure_counts,
        warnings=res.warnings,
    )


class VectorBootstrapResult(NamedTuple):
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
    statistic: Callable[[Sequence[T] | TrialColumns, S | None], tuple[np.ndarray, S | None]],
    spec: BootstrapSpec,
    chunk_statistic: Callable[[np.ndarray, S | None], tuple[np.ndarray, np.ndarray]] | None = None,
) -> VectorBootstrapResult:
    """Bootstrap a vector statistic; NaN components mark inestimable pieces.

    ``statistic(sample, starts)`` returns the (m,) values and the starts a
    resample's evaluation takes, such as the coefficients of the fits behind
    the values. It runs once on the records with starts None, for the
    points and the starts; every replicate is then evaluated from those
    starts. A statistic that fits nothing passes its starts through.

    Columns are resampled by row, with ``TrialColumns.take``; any other
    sequence is resampled as a list. A raised package error fails the whole
    replicate, which stays NaN and is counted by exception name;
    per-component inestimability should be encoded as NaN so the other
    components survive.

    ``chunk_statistic``, if given, is the engine's ``chunk`` with the
    starts: it evaluates a (b, n) chunk of index rows at once and returns
    (b, m) values and a (b,) mask of the rows it could not evaluate cleanly;
    only those rows (all, without it) are resampled and passed to
    ``statistic``, whose verdict, value or exception, stands for them.
    """
    columnar = isinstance(records, TrialColumns)
    if not columnar:
        records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("cannot bootstrap an empty record list")
    points, starts = statistic(records, None)
    points = np.asarray(points, dtype=float)
    m = points.shape[0]

    def one(row: np.ndarray) -> np.ndarray:
        sample = records.take(row) if columnar else [records[i] for i in row.tolist()]
        return statistic(sample, starts)[0]

    def every_row(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full((idx.shape[0], m), np.nan), np.ones(idx.shape[0], dtype=bool)

    chunk = every_row if chunk_statistic is None else lambda idx: chunk_statistic(idx, starts)
    b_total = spec.n_replicates
    values, failure_counts = draw_replicates(spec.seed, n, b_total, chunk, one)

    se = np.full(m, np.nan)  # undefined below two replicates
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
