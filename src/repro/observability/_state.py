"""The collection switch, the root scope, and where a measurement lands.

A leaf module, so every instrument module can read it without
importing the others.  The flag is deliberately a bare module global:
the no-op fast path of every instrument is a single attribute load and
truth test, which keeps instrumented hot paths free when telemetry is
off (measured in ``tests/test_observability.py``).

Every instrument writes to one collector set: the scope
:data:`scope_var` holds in the calling context — the active
:class:`~repro.observability.context.RunScope` inside a ``RunContext``,
else the **root**, whose collectors are the process-wide ones.  The
root's ``run_id`` is ``None`` unless ``--run-id`` or a pool worker's
inherited id names it; the log emitter stamps the current one.
"""

from __future__ import annotations

import contextvars


class Scope:
    """A ``run_id`` plus the collectors a measurement lands in."""

    __slots__ = ("run_id", "registry", "tracer", "recorder")


#: The root scope.  Its collectors are the process-wide ones, bound by
#: the instrument modules as they are imported.
root = Scope()
root.run_id = None

#: Collection switch.  False (the default) means every ``incr`` /
#: ``observe`` / ``trace`` call degenerates to a flag check; tier-1
#: tests and untraced benchmark runs stay in this mode.
enabled: bool = False

#: The scope every instrument writes to in this context.  Being a
#: context variable, each thread — and each ``contextvars.Context`` —
#: sees its own value, which is what isolates concurrently-running
#: service jobs from each other.
scope_var: contextvars.ContextVar = contextvars.ContextVar(
    "repro_run_scope", default=root
)


def set_enabled(value: bool) -> None:
    """Flip the process-wide collection switch."""
    global enabled
    enabled = bool(value)


def current_scope():
    """The active run scope in this context, or ``None`` at the root."""
    scope = scope_var.get()
    return None if scope is root else scope


def current_run_id() -> str | None:
    """The active scope's run id, else the root's (``None`` unless named)."""
    return scope_var.get().run_id
