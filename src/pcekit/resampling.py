"""Deterministic subject-level bootstrap with percentile intervals.

Replicate index streams are derived from (seed, replicate_index) through a
SplitMix64 mix, so any replicate can be regenerated in isolation and results
are independent of evaluation order or chunking. Resamples where the
statistic is inestimable are recorded and excluded, not retried; if more
than 10% of replicates fail the whole bootstrap errors out.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
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


def resample_indices(seed: int, replicate: int, n: int) -> np.ndarray:
    """The index vector for one replicate; see resample_index_matrix."""
    return resample_index_matrix(seed, replicate, 1, n)[0]


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
    replicates: np.ndarray | None = None


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


def _chunk_size(n: int) -> int:
    return max(1, 8_000_000 // max(n, 1))


def bootstrap(
    records: Sequence[T],
    statistic: Callable[[list[T]], float],
    spec: BootstrapSpec,
    keep_replicates: bool = False,
    replicate_csv: str | Path | None = None,
) -> BootstrapResult:
    """Subject-level bootstrap of a scalar statistic.

    The statistic must be defined on the original records (errors propagate);
    on resamples, package errors mark the replicate inestimable.
    """
    records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("cannot bootstrap an empty record list")
    point = float(statistic(records))

    b_total = spec.n_replicates
    values = np.full(b_total, np.nan)
    failure_counts: dict[str, int] = {}
    n_failures = 0
    fail_cap = 0.1 * b_total
    done = 0
    while done < b_total:
        count = min(_chunk_size(n), b_total - done)
        idx = resample_index_matrix(spec.seed, done, count, n)
        for r in range(count):
            sample = [records[i] for i in idx[r].tolist()]
            try:
                values[done + r] = float(statistic(sample))
            except (PcekitError, ArithmeticError) as exc:
                name = type(exc).__name__
                failure_counts[name] = failure_counts.get(name, 0) + 1
                n_failures += 1
                if n_failures > fail_cap:
                    dominant = max(failure_counts, key=failure_counts.get)  # type: ignore[arg-type]
                    raise BootstrapError(
                        f"statistic failed on {n_failures} of the first {done + r + 1} "
                        f"replicates (>10% of {b_total}); dominant failure: {dominant}"
                    ) from exc
        done += count

    estimable = values[~np.isnan(values)]
    se = float(np.std(estimable, ddof=1)) if estimable.size >= 2 else 0.0
    ci = percentile_interval(estimable, spec.ci_level)
    warns: list[str] = []
    if b_total < 20:
        warns.append(
            f"only {b_total} replicates; the percentile interval is unstable below 20"
        )
    if replicate_csv is not None:
        _write_replicates(values, replicate_csv)
    return BootstrapResult(
        point=point,
        se=se,
        ci=ci,
        n_effective=int(estimable.size),
        n_failures=n_failures,
        failure_counts=failure_counts,
        warnings=tuple(warns),
        replicates=values if keep_replicates else None,
    )


def _write_replicates(values: np.ndarray, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate_index", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, "NA" if math.isnan(v) else repr(float(v))])


@dataclass(frozen=True)
class VectorBootstrapResult:
    """Component-wise bootstrap summaries sharing one set of resamples."""

    points: np.ndarray
    se: np.ndarray
    ci: np.ndarray  # shape (m, 2)
    n_effective: np.ndarray
    n_failures: int
    warnings: tuple[str, ...]


def bootstrap_vector(
    records: Sequence[T] | TrialColumns,
    statistic: Callable[[list[T]], np.ndarray] | Callable[[TrialColumns], np.ndarray],
    spec: BootstrapSpec,
) -> VectorBootstrapResult:
    """Bootstrap a vector statistic; NaN components mark inestimable pieces.

    Uses the same per-replicate index streams as ``bootstrap`` under the same
    spec. Columns are resampled by row, with ``TrialColumns.take``; any other
    sequence is resampled as a list. A raised package error fails the whole
    replicate; per-component inestimability should be encoded as NaN so the
    other components survive.
    """
    columnar = isinstance(records, TrialColumns)
    if not columnar:
        records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("cannot bootstrap an empty record list")
    points = np.asarray(statistic(records), dtype=float)
    m = points.shape[0]

    b_total = spec.n_replicates
    values = np.full((b_total, m), np.nan)
    n_failures = 0
    fail_cap = 0.1 * b_total
    done = 0
    while done < b_total:
        count = min(_chunk_size(n), b_total - done)
        idx = resample_index_matrix(spec.seed, done, count, n)
        for r in range(count):
            sample = records.take(idx[r]) if columnar else [records[i] for i in idx[r].tolist()]
            try:
                values[done + r] = np.asarray(statistic(sample), dtype=float)
            except (PcekitError, ArithmeticError):
                n_failures += 1
                if n_failures > fail_cap:
                    raise BootstrapError(
                        f"vector statistic failed on more than 10% of {b_total} replicates"
                    )
        done += count

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
        points=points, se=se, ci=ci, n_effective=n_eff, n_failures=n_failures, warnings=tuple(warns)
    )
