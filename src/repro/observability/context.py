"""Run-scoped telemetry: a ``run_id`` plus an isolated collection scope.

The process-wide collectors are the **root** scope: *what has this
process done*.  A :class:`RunScope` is a child scope — *what did this
run do*, the question a service fielding concurrent jobs ("why was
job X slow?") needs an exact, isolated answer to.  It bundles a
``run_id`` with its own metrics registry, tracer and diagnostics
recorder.  While a :class:`RunContext` has it active, every
instrument writes to the scope alone; when the context exits, the
scope is folded into the root (its trace tree grafted at the root
node).  Process totals (:func:`totals`) are the root plus every scope
still active, read under the same lock as each exit, so a running
job counts exactly once from its first write on.

Activation rides on a :class:`contextvars.ContextVar`
(:data:`repro.observability._state.scope_var`), so scopes are isolated
per thread: the :class:`~repro.service.jobs.JobManager` runs each job
inside ``RunContext(run_id=job_id)`` on its own worker thread, and two
jobs executing concurrently each see only their own counters, spans,
and diagnostics.  Across the
:class:`~repro.parallel.executor.ParallelExecutor` fork/pickle
boundary the run_id travels in the task payload and names the
worker's root (:func:`name_root`); the worker's snapshot is merged
back on the thread that owns the fan-out, so into its scope.

The active run_id is also stamped onto every structured log event and
every service journal/SSE event — one key to join logs, traces,
metrics, and events of a single run — even while metric collection is
off (``--log-json --run-id smoke`` without ``--metrics-out``).
"""

from __future__ import annotations

import threading

from repro.observability import _state
from repro.observability._state import current_run_id, current_scope  # noqa: F401
from repro.observability.diagnostics import DiagnosticsRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer

#: Version tag of the telemetry snapshot schema (kept in lockstep with
#: :data:`repro.observability.SCHEMA`, which re-exports it).
SCHEMA = "repro.telemetry/1"

#: Guards :data:`_active` together with each exit's fold into the root.
_lock = threading.Lock()

#: Scopes inside a :class:`RunContext` right now, in entry order.
_active: list["RunScope"] = []


class RunScope(_state.Scope):
    """One run's identity plus its isolated telemetry collectors."""

    __slots__ = ("_entered",)

    def __init__(self, run_id: str) -> None:
        if not isinstance(run_id, str):
            raise TypeError(f"run_id must be a string, got {type(run_id).__name__}")
        if not run_id.strip():
            raise ValueError("run_id must be a non-empty string")
        self.run_id = run_id
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.recorder = DiagnosticsRecorder()
        self._entered = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunScope(run_id={self.run_id!r})"

    def counter_value(self, name: str) -> float:
        """This run's total for counter ``name`` (0.0 if never bumped)."""
        return self.registry.counter_value(name)

    def snapshot(self) -> dict:
        """The run's telemetry as a ``repro.telemetry/1`` dict.

        Same shape as :func:`repro.observability.snapshot` plus a
        ``run_id`` key — an additive field under the unchanged schema,
        so every existing consumer (``python -m repro.observability
        report``, the export helpers) reads a per-run snapshot
        unchanged.
        """
        return {"schema": SCHEMA, "run_id": self.run_id, **collected(self)}


class RunContext:
    """Context manager activating a :class:`RunScope` on this context.

    ``RunContext("run-7")`` creates a fresh scope; ``RunContext(
    scope=existing)`` adopts one created earlier (how the service keeps
    a handle on a job's scope while the job thread runs inside it).
    Entry sets the context variable and returns the scope; exit
    restores whatever was active before, so contexts nest, and folds
    the scope into the root — an inner scope's work lands in the
    root, not in the outer scope.  A scope runs in one context, once:
    entering it again raises :class:`RuntimeError`, so it is folded
    into the root exactly once.
    """

    __slots__ = ("scope", "_token")

    def __init__(self, run_id: str | None = None, scope: RunScope | None = None):
        if scope is None:
            if run_id is None:
                raise ValueError("RunContext needs a run_id or a scope")
            scope = RunScope(run_id)
        self.scope = scope
        self._token = None

    def __enter__(self) -> RunScope:
        with _lock:
            if self.scope._entered:
                raise RuntimeError(
                    f"run scope {self.scope.run_id!r} was already entered"
                )
            self.scope._entered = True
            _active.append(self.scope)
        self._token = _state.scope_var.set(self.scope)
        return self.scope

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _state.scope_var.reset(self._token)
            self._token = None
            with _lock:
                _active.remove(self.scope)
                _fold(_state.root, self.scope)
        return False


def collected(scope: _state.Scope) -> dict:
    """``scope``'s ``metrics``, ``trace`` and ``diagnostics`` snapshots."""
    return {
        "metrics": scope.registry.snapshot(),
        "trace": scope.tracer.snapshot(),
        "diagnostics": scope.recorder.snapshot(),
    }


def _fold(target: _state.Scope, scope: _state.Scope) -> None:
    """Merge ``scope``'s collectors into ``target``'s; the trace tree is
    grafted at the root node, never under a span another thread holds
    open.
    """
    target.registry.merge(scope.registry.snapshot())
    target.tracer.root.merge(scope.tracer.snapshot())
    target.recorder.merge(scope.recorder.snapshot())


def detached_scope() -> _state.Scope:
    """Fresh collectors under this context's run id, registered nowhere.

    Where one of several estimates running side by side on their own
    threads writes (see :mod:`repro.failures.rendezvous`): a tracer's
    span stack belongs to its scope, so each needs its own.  The owner
    merges it back with :func:`repro.observability.merge_worker`, as it
    merges a pool worker's snapshot; until then process totals do not
    include it, as they do not include a worker's.
    """
    scope = _state.Scope()
    scope.run_id = _state.current_run_id()
    scope.registry = MetricsRegistry()
    scope.tracer = Tracer()
    scope.recorder = DiagnosticsRecorder()
    return scope


def totals() -> dict:
    """The process totals, root plus every active scope, as
    :func:`collected` blocks (the root's own when no scope is active).
    """
    with _lock:
        if not _active:
            return collected(_state.root)
        combined = RunScope("totals")
        combined.recorder.configure(_state.root.recorder.thresholds)
        for scope in (_state.root, *_active):
            _fold(combined, scope)
    return collected(combined)


def name_root(run_id: str | None) -> None:
    """Name the root scope and make it this context's target.

    How a CLI process names its whole lifetime (``--run-id``) and how
    a pool worker takes on the run id of the fan-out that dispatched
    it; ``None`` clears the name.  Resetting the target matters in a
    forked worker, which inherits the forking thread's active scope.
    """
    _state.root.run_id = run_id
    _state.scope_var.set(_state.root)

