"""Layer spans for pcekit, recorded from outside the package.

Each probe wraps one public (or table-building) function of a pcekit module
at every name it is looked up by, so ``fit_logistic`` is caught whether it
is called through ``glm``, ``estimators`` or ``diagnostics``. A span's self
time is its duration minus the time of the spans it directly caused; the
self times of all spans inside one ``cli.main`` call add up to that call.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

PACKAGE = "pcekit"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)


def _count_fit(fit, args, kwargs) -> tuple[int, ...]:
    return (fit.iterations, int(not fit.converged))


def _count_bootstrap(result, args, kwargs) -> tuple[int, ...]:
    spec = kwargs["spec"] if "spec" in kwargs else args[2]
    return (spec.n_replicates, result.n_failures)


@dataclass(frozen=True)
class Probe:
    module: str  # defining module, relative to the package
    function: str
    span: str  # the layer metric is this name plus "_s"
    calls: str | None = None  # counter of calls, if the layer reports one
    counters: tuple[str, ...] = ()  # what ``count`` returns, in order
    count: Callable[[object, tuple, dict], tuple[int, ...]] | None = None


_BOOT_COUNTERS = ("resampling.replicates", "resampling.failed_replicates")

PROBES = (
    Probe("core", "load_crossover_csv", "core.load"),
    Probe("core", "as_parallel", "core.project", "core.project_calls",
          ("core.records_projected",), lambda r, a, k: (len(r),)),
    Probe("core", "completer_filter", "core.filter"),
    Probe("core", "classify_strata", "core.classify"),
    Probe("estimators", "estimate_mu_direct", "estimators.mu_direct", "estimators.mu_direct_calls"),
    Probe("estimators", "estimate_mu_hayden", "estimators.mu_weighted"),
    Probe("estimators", "principal_scores", "estimators.scores"),
    Probe("estimators", "fit_principal_score", "estimators.ps_fit"),
    Probe("estimators", "_prob_vector", "estimators.probs_self"),
    Probe("estimators", "_table_values", "estimators.table_self"),
    Probe("estimators", "estimate_pce_table", "estimators.table_self", None,
          ("estimators.inestimable_cells",),
          lambda r, a, k: (sum(math.isnan(row.point) for row in r),)),
    Probe("glm", "fit_logistic", "glm.logistic", "glm.logistic_fits",
          ("glm.irls_iterations", "glm.logistic_nonconverged"), _count_fit),
    Probe("glm", "fit_ols", "glm.ols"),
    Probe("resampling", "resample_index_matrix", "resampling.index", None,
          ("resampling.index_draws",), lambda r, a, k: (int(r.size),)),
    Probe("resampling", "bootstrap", "resampling.loop_self", None, _BOOT_COUNTERS, _count_bootstrap),
    Probe("resampling", "bootstrap_vector", "resampling.loop_self", None, _BOOT_COUNTERS,
          _count_bootstrap),
    Probe("diagnostics", "independence_test", "diagnostics.indep_self", None,
          ("diagnostics.indep_rejected",), lambda r, a, k: (r.n_rejected,)),
    Probe("diagnostics", "monotonicity_report", "diagnostics.other"),
    Probe("diagnostics", "ignorability_regressions", "diagnostics.other"),
    Probe("diagnostics", "crossover_effects_test", "diagnostics.other"),
    Probe("simulator", "generate_trial", "simulator.trial"),
    Probe("simulator", "true_pce", "simulator.oracle", None,
          ("simulator.oracle_draws",), lambda r, a, k: (r.oracle_n,)),
    Probe("cli", "main", "cli.self"),
)


class Tracer:
    """Collects spans and counts for the calls made while it is installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._clock = clock
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append(Span(sid, parent, probe.span, start, end))
                if probe.calls is not None:
                    self.counts[probe.calls] += 1
            if probe.count is not None:
                self.counts.update(dict(zip(probe.counters, probe.count(result, args, kwargs))))
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds per layer ("<span>_s") and every counter, 0 where not reached."""
        times = self_times(self.spans)
        out: dict[str, float] = {}
        for p in PROBES:
            out[f"{p.span}_s"] = times.get(p.span, 0.0)
            for name in (p.calls, *p.counters):
                if name is not None:
                    out[name] = self.counts[name]
        return out


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers on every pcekit name; restore them on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patched: list[tuple[object, str, object]] = []
    try:
        for probe in PROBES:
            owner = importlib.import_module(f"{PACKAGE}.{probe.module}")
            original = getattr(owner, probe.function)
            wrapper = tracer.wrap(probe, original)
            for mod in modules:
                for attr in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
