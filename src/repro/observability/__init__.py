"""Observability: structured logging, metrics, and span tracing.

Three instruments, one switch:

* **metrics** (:mod:`repro.observability.metrics`) — counters, gauges
  and histograms in a :class:`MetricsRegistry` (Monte-Carlo sample
  totals, cache hits/misses, dies processed, effective-sample-size
  fractions, ...);
* **tracing** (:mod:`repro.observability.tracing`) — ``trace(name)``
  spans aggregating into a hierarchical wall-time tree that survives
  the :class:`~repro.parallel.executor.ParallelExecutor` process
  boundary (workers snapshot, the parent merges);
* **logging** (:mod:`repro.observability.log`) — event-style
  structured logs, human one-liners or JSON lines.

Measurements land in one place: the active run scope
(:mod:`repro.observability.context`) or, outside any run, the
process-wide collectors — the root scope, into which every run scope
folds when it exits.

Everything is **off by default** and costs a single flag check per
instrumented call site, so the library's numbers and the timing-
sensitive benchmarks are unaffected until a caller opts in::

    from repro import observability

    observability.configure(verbosity=1)      # logs on, metrics on
    ... run an experiment ...
    report = observability.snapshot()         # JSON-ready dict

The CLI exposes the same switchboard as ``-v`` / ``--log-json`` /
``--metrics-out FILE`` on ``python -m repro.experiments``; the report
schema and a worked walkthrough live in ``docs/observability.md``.
"""

from __future__ import annotations

from repro.observability import _state
from repro.observability import context
from repro.observability import diagnostics
from repro.observability import export
from repro.observability import log
from repro.observability.context import (
    RunContext,
    RunScope,
    current_run_id,
    current_scope,
)
from repro.observability.diagnostics import (
    BatchDiagnostics,
    DiagnosticThresholds,
    WeightDiagnostics,
    clopper_pearson_interval,
    weight_diagnostics,
    wilson_interval,
)
from repro.observability.env import environment_fingerprint, git_sha
from repro.observability.log import configure as configure_logging, get_logger
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    incr,
    observe,
    registry,
    set_gauge,
)
from repro.observability.profiling import (
    disable_profiling,
    enable_profiling,
    profile,
    profile_names,
    profiling_enabled,
    reset_profiles,
    write_profile,
)
from repro.observability import tracing
from repro.observability.tracing import (
    SpanNode,
    Timeline,
    Tracer,
    disable_timeline,
    enable_timeline,
    merge_timeline,
    timeline_enabled,
    timeline_snapshot,
    trace,
    tracer,
)

#: Version tag written into every ``--metrics-out`` report (defined in
#: :mod:`repro.observability.context`, which cannot import this
#: package without a cycle).
SCHEMA = context.SCHEMA

#: Counters that every report must contain even when the code path
#: that would create them never ran (a run without ``--cache-dir``
#: still reports ``cache.hits = 0``, so downstream consumers can rely
#: on the key).
_BASELINE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.puts",
    "cache.quarantined",
    "executor.retries",
    "executor.task_failures",
    "executor.pool_respawns",
    "mc.estimates",
    "mc.samples",
)


def enabled() -> bool:
    """True while metrics/trace collection is on."""
    return _state.enabled


def enable() -> None:
    """Turn metric and trace collection on (idempotent)."""
    _state.set_enabled(True)
    for name in _BASELINE_COUNTERS:
        registry.counter(name)


def disable() -> None:
    """Turn metric and trace collection off (data is kept)."""
    _state.set_enabled(False)


def reset() -> None:
    """Drop all collected metrics, traces, diagnostics, and profiles.

    An armed timeline is re-armed fresh (same capacity, new epoch)
    rather than dropped — so a worker that inherited the armed state
    at fork time (``worker_begin`` resets before running the task)
    records its own task-local timeline, and the parent can merge it
    under a new track.
    """
    registry.reset()
    tracer.reset()
    diagnostics.recorder.reset()
    reset_profiles()
    if tracing.timeline is not None:
        enable_timeline(tracing.timeline.capacity)


def configure(
    verbosity: int = 0,
    json_lines: bool = False,
    metrics: bool = True,
    stream=None,
) -> None:
    """One-call setup: logging wiring plus the collection switch.

    Args:
        verbosity: log level — 0 warnings, 1 progress, 2+ debug.
        json_lines: render log events as JSON lines.
        metrics: also enable metric/trace collection.
        stream: log destination (default stderr).
    """
    configure_logging(verbosity=verbosity, json_lines=json_lines, stream=stream)
    if metrics:
        enable()


def snapshot() -> dict:
    """The process totals so far, as a JSON-serialisable dict.

    The root scope plus every run scope still active
    (:func:`repro.observability.context.totals`), so a live service's
    totals include its running jobs.  ``diagnostics`` (per-scope
    estimator health — CI half-widths, effective sample sizes,
    convergence verdicts) is an additive block under the unchanged
    ``repro.telemetry/1`` schema.
    """
    return {"schema": SCHEMA, **context.totals()}


# ----------------------------------------------------------------------
# Cross-process plumbing (used by repro.parallel.executor)
# ----------------------------------------------------------------------
def worker_begin(run_id: str | None = None) -> None:
    """Start an isolated collection scope inside a worker process.

    Called at the top of every fanned-out task: enables collection and
    clears any state inherited from the parent at fork time, so the
    snapshot taken at task end contains exactly that task's telemetry.
    ``run_id`` is the parent's active run id, shipped across the
    pickle boundary in the task payload; naming the worker's root with
    it keeps worker-side log events stamped with the run that owns the
    fan-out (and works identically under fork and spawn start methods).
    """
    reset()
    _state.set_enabled(True)
    context.name_root(run_id)


def worker_snapshot() -> dict:
    """The worker-side telemetry delta to ship back to the parent.

    ``timeline`` is ``None`` unless the parent had armed timeline
    recording before the fan-out (fork start method inherits the armed
    state; ``worker_begin``'s reset then re-arms a fresh task-local
    timeline).
    """
    return {**context.collected(_state.root), "timeline": timeline_snapshot()}


def merge_worker(snapshot_dict: dict) -> None:
    """Absorb a :func:`worker_snapshot` into the active scope.

    The merge runs on the thread that owns the fan-out, so worker
    telemetry lands where that thread's own instruments write: its run
    scope, or the root outside any run.  The worker's trace subtree is
    grafted under the span open at the call site, so fanned-out work
    lands in the tree exactly where the fan-out happened.
    """
    target = _state.scope_var.get()
    target.registry.merge(snapshot_dict["metrics"])
    target.tracer.merge_at_current(snapshot_dict["trace"])
    # Additive keys: snapshots from older workers simply lack them.
    target.recorder.merge(snapshot_dict.get("diagnostics", {}))
    merge_timeline(snapshot_dict.get("timeline"))


__all__ = [
    "SCHEMA",
    "BatchDiagnostics",
    "Counter",
    "DiagnosticThresholds",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanNode",
    "Timeline",
    "Tracer",
    "WeightDiagnostics",
    "RunContext",
    "RunScope",
    "clopper_pearson_interval",
    "configure",
    "configure_logging",
    "context",
    "current_run_id",
    "current_scope",
    "diagnostics",
    "disable",
    "disable_profiling",
    "disable_timeline",
    "enable",
    "enable_profiling",
    "enable_timeline",
    "enabled",
    "export",
    "environment_fingerprint",
    "get_logger",
    "git_sha",
    "incr",
    "log",
    "merge_timeline",
    "merge_worker",
    "observe",
    "profile",
    "profile_names",
    "profiling_enabled",
    "registry",
    "reset",
    "reset_profiles",
    "set_gauge",
    "snapshot",
    "timeline_enabled",
    "timeline_snapshot",
    "trace",
    "tracer",
    "tracing",
    "weight_diagnostics",
    "wilson_interval",
    "worker_begin",
    "worker_snapshot",
    "write_profile",
]
