"""Outside-in layer tracing for the benchmark's traced run.

The traced run times calls into each layer's public functions from
outside the program.  :func:`install` replaces every target with a
timing wrapper:

* a module-level function is patched in *every* ``repro`` module
  namespace that bound it — ``from repro.sram.solver import
  solve_hold_state`` copies the function object into the importing
  module, so patching only the defining module would miss that call
  site — and in the defining module, so later imports bind the wrapper;
* a method (``MOSFET.current``) is patched on its class.

Spans stay in memory.  A span's self time is its duration minus the
time covered by its child spans, computed per thread as spans close.
:meth:`Recorder.document` renders the run with
:func:`repro.observability.export.chrome_trace`: the spans become trace
events (Perfetto / ``chrome://tracing``), and the per-span aggregates
and counters ride under ``otherData``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import threading
import time
from typing import Callable, NamedTuple

import numpy as np

#: Trace events kept for the chrome trace; aggregates stay exact beyond it.
DEFAULT_CAPACITY = 200_000


class Target(NamedTuple):
    """One wrapped layer entry point.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``count(args, kwargs, result)`` returns counter increments credited
    when the call returns.  Each name in ``deltas`` is a counter whose
    growth inside the span is also credited to ``<name>.<delta>``.
    """

    name: str
    module: str
    attr: str
    count: Callable | None = None
    deltas: tuple[str, ...] = ()


class _ThreadState:
    __slots__ = ("track", "stack", "spans", "counters")

    def __init__(self, track: int) -> None:
        self.track = track
        #: One ``[child_seconds]`` cell per open span.
        self.stack: list[list[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount


class Recorder:
    """In-memory spans with per-thread self-time accounting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.epoch = time.perf_counter()
        self.events: list[tuple] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _close(self, state, name, frame, start, end) -> None:
        state.stack.pop()
        dur = end - start
        if state.stack:
            state.stack[-1][0] += dur
        agg = state.spans.get(name)
        if agg is None:
            agg = state.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[0]
        if len(self.events) < self.capacity:
            self.events.append((name, start - self.epoch, dur, state.track))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-owned code (e.g. the run's root)."""
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(state, name, frame, start, time.perf_counter())

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` timed as a span named ``target.name``."""
        name, count, deltas = target.name, target.count, target.deltas
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = self._state()
            before = [state.counters.get(d, 0.0) for d in deltas]
            frame = [0.0]
            state.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(state, name, frame, start, clock())
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    state.add(key, amount)
            for delta, value in zip(deltas, before):
                state.add(f"{name}.{delta}", state.counters.get(delta, 0.0) - value)
            return result

        return timed

    def totals(self) -> tuple[dict, dict]:
        """Merged ``(spans, counters)`` over every thread.

        ``spans`` maps a name to ``{"calls", "total_s", "self_s"}``.
        """
        spans: dict[str, dict] = {}
        counters: dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, own) in list(state.spans.items()):
                agg = spans.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += own
            for key, value in list(state.counters.items()):
                counters[key] = counters.get(key, 0.0) + value
        return spans, counters

    def document(self, meta: dict | None = None) -> dict:
        """The run as a Chrome trace-event document."""
        from repro.observability.export import chrome_trace

        spans, counters = self.totals()
        timeline = {
            "capacity": self.capacity,
            "seen": sum(agg["calls"] for agg in spans.values()),
            "events": list(self.events),
        }
        return chrome_trace(
            timeline, {**(meta or {}), "spans": spans, "counters": counters}
        )


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _size(args, kwargs, result) -> dict:
    return {"devices.current.calls": 1.0, "devices.current.elements": float(np.size(result))}


def _cells(prefix: str) -> Callable:
    def count(args, kwargs, result) -> dict:
        cells = float(args[0].population)
        return {f"{prefix}.cells": cells, "sram.metrics.cells": cells}

    return count


def _ess(args, kwargs, result) -> dict:
    weights = result.weights
    total = float(weights.sum())
    squares = float((weights * weights).sum())
    ess = total * total / (weights.size * squares) if squares > 0 else 0.0
    return {"stats.rare_event.ess_sum": ess, "stats.rare_event.ess_n": 1.0}


def _cache_get(args, kwargs, result) -> dict:
    hit = result is not None
    return {"parallel.cache.hits": float(hit), "parallel.cache.misses": float(not hit)}


def _cache_put(args, kwargs, result) -> dict:
    return {"parallel.cache.put.bytes": float(os.path.getsize(result))}


def _text_bytes(args, kwargs, result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"durable.write.bytes": float(len(text))}


def _tasks(args, kwargs, result) -> dict:
    return {"parallel.executor.tasks": float(len(result))}


_SOLVERS = (
    "hold_state", "hold_trip", "read_node", "read_trip",
    "write_node", "write_trip", "write_time", "access_current",
)
_SAMPLERS = ("PlainSampler", "ScaledSampler", "AdaptiveIsSampler", "BlockadeSampler")
_INSTRUMENTS = ("incr", "observe", "set_gauge")

#: Every layer entry point the traced run times, named by module.
TARGETS: tuple[Target, ...] = (
    Target("devices.current", "repro.devices.mosfet", "MOSFET.current", _size),
    Target("sram.solver.bisect", "repro.sram.solver", "bisect_monotone"),
    *(
        Target(
            f"sram.solver.{solver}", "repro.sram.solver", f"solve_{solver}",
            deltas=("devices.current.calls",) if solver == "hold_state" else (),
        )
        for solver in _SOLVERS
    ),
    Target(
        "sram.metrics.cell_metrics", "repro.sram.metrics",
        "compute_cell_metrics", _cells("sram.metrics.cell_metrics"),
    ),
    Target(
        "sram.metrics.hold_margin", "repro.sram.metrics",
        "compute_hold_margin", _cells("sram.metrics.hold_margin"),
    ),
    Target("sram.leakage.cell_leakage", "repro.sram.leakage", "cell_leakage"),
    Target("sram.cell.sample_dvt", "repro.sram.cell", "sample_cell_dvt"),
    Target(
        "stats.sampling", "repro.stats.sampling", "importance_sample_dvt",
        lambda args, kwargs, result: {"stats.sampling.draws": float(result.n_samples)},
    ),
    *(
        Target("stats.rare_event.sample", "repro.stats.rare_event", f"{cls}.sample", _ess)
        for cls in _SAMPLERS
    ),
    Target("failures.criteria.calibrate", "repro.failures.criteria", "calibrate_criteria"),
    Target("failures.mpfp.direction_seeds", "repro.failures.mpfp", "MpfpEstimator.direction_seeds"),
    *(
        Target(
            "failures.analysis.estimate", "repro.failures.analysis",
            f"CellFailureAnalyzer.{method}", deltas=("sram.metrics.cells",),
        )
        for method in ("failure_probabilities", "hold_failure_probability")
    ),
    Target(
        "core.tables.build", "repro.core.tables", "FailureProbabilityTable._build",
        lambda args, kwargs, result: {"core.tables.cells": float(args[0].grid.size)},
    ),
    Target(
        "experiments.asb.hold_table", "repro.experiments.asb",
        "HoldProbabilityTable._grid_log_probabilities",
        lambda args, kwargs, result: {"experiments.asb.cells": float(result.size)},
    ),
    Target("core.monitor.calibrate", "repro.core.monitor", "LeakageMonitor.calibrate_references"),
    Target("core.lot.run", "repro.core.lot", "LotSimulator.run"),
    Target("core.lot.die", "repro.core.lot", "LotSimulator.process_die"),
    Target("core.body_bias.array_leakage", "repro.core.body_bias", "SelfRepairingSRAM.array_leakage"),
    Target("power.standby", "repro.power.standby", "die_standby_power"),
    Target("parallel.executor.map", "repro.parallel.executor", "ParallelExecutor.map", _tasks),
    Target("parallel.executor.retry", "repro.parallel.executor", "ParallelExecutor._note_retry"),
    Target("parallel.cache.get", "repro.parallel.cache", "ResultCache.get", _cache_get),
    Target("parallel.cache.put", "repro.parallel.cache", "ResultCache.put", _cache_put),
    Target("checkpoint.flush", "repro.checkpoint", "CheckpointStore.save"),
    Target("durable.write", "repro.durable", "atomic_write_text", _text_bytes),
    Target("service.ledger.append", "repro.service.ledger", "JobLedger.record"),
    Target("service.jobs.execute", "repro.service.jobs", "JobManager._execute"),
    *(
        Target("observability.instrument", "repro.observability.metrics", name)
        for name in _INSTRUMENTS
    ),
)


class Tap:
    """Counts calls or keeps their results, without timing them.

    The untraced run's only view inside the program: the batch
    workloads need the cells their solver calls evaluated and the
    failure estimates their tables were built from.  A target with a
    ``count`` is counted; any other keeps ``(args, result)`` per call.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        #: target name -> [(args, result)]
        self.results: dict[str, list] = {}

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if target.count is not None:
                for key, amount in target.count(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0.0) + amount
            else:
                self.results.setdefault(target.name, []).append((args, result))
            return result

        return tapped


def targets_named(names) -> tuple[Target, ...]:
    return tuple(target for target in TARGETS if target.name in names)


def install(recorder, targets: tuple[Target, ...] = TARGETS) -> None:
    """Wrap every target with ``recorder.wrap`` (a Recorder or a Tap).

    Call it before the workload, and before any executor pool, starts.
    """
    for module in sorted({target.module for target in targets}):
        importlib.import_module(module)
    namespaces = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for target in targets:
        owner = sys.modules[target.module]
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            cls = getattr(owner, cls_name)
            raw = inspect.getattr_static(cls, method)
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(recorder.wrap(target, raw.__func__)))
            else:
                setattr(cls, method, recorder.wrap(target, raw))
            continue
        original = getattr(owner, target.attr)
        timed = recorder.wrap(target, original)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, timed)
