"""Per-span function profiling: a cProfile hook on the trace tree.

The trace tree says *which stage* a run spends its life in; this module
answers the next question — *which function inside the stage* — without
any ad-hoc timing code.  ``profile(name)`` behaves exactly like
``trace(name)`` (it *is* that span, landing in the active run scope
or the root like any other, so the tree shape never changes), and when profiling has been armed with
:func:`enable_profiling` it additionally runs the span body under
:class:`cProfile.Profile`, accumulating one profile per span name::

    from repro import observability

    observability.enable()
    observability.enable_profiling()
    with observability.profile("table.build"):
        ...                                  # profiled

    observability.write_profile("table.pstats")   # pstats.Stats-loadable

Cost model, in line with the rest of the package:

* telemetry disabled — one flag check, no span, no profiler (the
  disabled-path overhead guard in ``tests/test_observability.py``
  covers ``profile`` too);
* telemetry enabled, profiling not armed — identical to ``trace``;
* profiling armed — the span body runs under the profiler (expect the
  usual cProfile ~1.3–2x slowdown; never arm it for timing runs).

CPython allows a single active profiler per thread, so nested
``profile`` spans degrade gracefully: the outermost armed span keeps
the profiler and inner ``profile`` spans fall back to plain tracing
(their frames are still captured, attributed to the outer span's
profile).

Profiles do not cross the :class:`~repro.parallel.executor.
ParallelExecutor` process boundary — only the parent process's frames
are captured.  Profile a ``workers=1`` run to see inside the kernels.
"""

from __future__ import annotations

import cProfile
import functools
import pstats

from repro.observability import _state, tracing

#: Accumulated profiles, one per span name (parent process only).
_profiles: dict[str, cProfile.Profile] = {}

#: Armed by :func:`enable_profiling`; checked on every span entry.
_armed = False

#: True while a profiler is running (cProfile cannot nest).
_running = False


def enable_profiling() -> None:
    """Arm the profiler: subsequent ``profile(name)`` spans collect."""
    global _armed
    _armed = True


def disable_profiling() -> None:
    """Disarm (accumulated profiles are kept until :func:`reset`)."""
    global _armed
    _armed = False


def profiling_enabled() -> bool:
    """True while ``profile(name)`` spans run under cProfile."""
    return _armed


def reset_profiles() -> None:
    """Drop every accumulated profile."""
    global _running
    _profiles.clear()
    _running = False


def profile_names() -> list[str]:
    """Span names that have accumulated profile data, sorted."""
    return sorted(_profiles)


def write_profile(path: str, name: str | None = None) -> list[str]:
    """Dump accumulated profiles to ``path`` in ``pstats`` format.

    Args:
        path: output file; load it back with ``pstats.Stats(path)`` or
            browse with ``python -m pstats path``.
        name: restrict to one span name (default: combine all).

    Returns the span names included.  Raises :class:`ValueError` when
    nothing has been collected (a silent empty file would read as
    "profiled, found nothing").
    """
    if name is not None:
        selected = {name: _profiles[name]} if name in _profiles else {}
    else:
        selected = dict(_profiles)
    if not selected:
        raise ValueError(
            "no profile data collected"
            + (f" for span {name!r}" if name else "")
            + " — call enable_profiling() before the profiled spans run"
        )
    names = sorted(selected)
    profiles = [selected[n] for n in names]
    for prof in profiles:
        prof.create_stats()
    stats = pstats.Stats(profiles[0])
    for prof in profiles[1:]:
        stats.add(prof)
    stats.dump_stats(path)
    return names


class profile(tracing.trace):
    """``trace(name)`` that additionally profiles the span body.

    Context manager and decorator, like
    :class:`repro.observability.tracing.trace`, whose span it opens.
    """

    __slots__ = ("_prof",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._prof = None

    def _profiler(self) -> cProfile.Profile | None:
        """The profiler to run this span under, if any (see module doc)."""
        global _running
        if not _armed or _running:
            return None
        prof = _profiles.get(self.name)
        if prof is None:
            prof = _profiles[self.name] = cProfile.Profile()
        _running = True
        return prof

    def __call__(self, fn):
        name = self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _state.enabled:
                return fn(*args, **kwargs)
            with profile(name):
                return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "profile":
        super().__enter__()
        if self._active:
            self._prof = self._profiler()
            if self._prof is not None:
                self._prof.enable()
        return self

    def __exit__(self, *exc) -> bool:
        global _running
        if self._prof is not None:
            self._prof.disable()
            self._prof = None
            _running = False
        return super().__exit__(*exc)
