"""The process-wide observability on/off switch and the active scope.

Isolated in its own module so that :mod:`repro.observability.metrics`
and :mod:`repro.observability.tracing` can both read it without
importing each other.  The flag is deliberately a bare module global:
the no-op fast path of every instrument is a single attribute load and
truth test, which is what keeps instrumented hot paths free (measured
in ``tests/test_observability.py``) when telemetry is off.

The *run scope* lives here for the same reason: a
:class:`contextvars.ContextVar` holding the active
:class:`~repro.observability.context.RunScope` (or ``None``), read by
the guarded metric/trace/diagnostic helpers (dual-write) and by the
structured-log emitter (run_id stamping).  Keeping the variable in
this leaf module lets every instrument module reach it without
importing :mod:`repro.observability.context` (which imports them).
"""

from __future__ import annotations

import contextvars

#: Collection switch.  False (the default) means every ``incr`` /
#: ``observe`` / ``trace`` call degenerates to a flag check; tier-1
#: tests and untraced benchmark runs stay in this mode.
enabled: bool = False

#: The active run scope (a ``RunScope`` instance or ``None``).  Being a
#: context variable, each thread — and each ``contextvars.Context`` —
#: sees its own value, which is what isolates concurrently-running
#: service jobs from each other.
scope_var: contextvars.ContextVar = contextvars.ContextVar(
    "repro_run_scope", default=None
)


def set_enabled(value: bool) -> None:
    """Flip the process-wide collection switch."""
    global enabled
    enabled = bool(value)


def current_scope():
    """The active run scope in this context, or ``None``."""
    return scope_var.get()


def current_run_id() -> str | None:
    """The active scope's run id, or ``None`` outside any scope."""
    scope = scope_var.get()
    return scope.run_id if scope is not None else None
