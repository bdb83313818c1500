"""Span-style timing that aggregates into a hierarchical trace tree.

``trace(name)`` marks a stage of work, either as a context manager::

    with trace("table.build"):
        ...

or as a decorator::

    @trace("calibrate")
    def calibrate(...): ...

Unlike a flat profiler, repeated entries into the same span *under the
same parent* aggregate — a 17-point grid build shows up as one
``analysis.point`` node with ``calls=17`` and its total wall time, not
17 siblings — so the tree stays readable at any sweep size while still
localising where a run spends its life (sampling vs solving vs
classification; cold table builds vs warm cache loads).

A span lands in one tree: the active run scope's tracer, or the
process-wide :data:`tracer` (the root's) outside any run.  A run
scope's tree is grafted at the root node of the process tree when its
context exits.  Trees also merge across processes: each worker
snapshots the subtree its task produced and the parent grafts it under
whatever span was open at the fan-out call site (see
:meth:`repro.parallel.executor.ParallelExecutor.map`), so a parallel
run's tree reads the same as a serial one, with the per-task counts
and times summed over workers.  Every tracer's completed spans also
go to the one process-wide :data:`timeline`, while it is armed.

When collection is disabled (:mod:`repro.observability._state`),
entering a span is a single flag check — the decorator form calls the
wrapped function directly and the context-manager form skips the clock
entirely.
"""

from __future__ import annotations

import functools
import random
import time

from repro.observability import _state


class Timeline:
    """Bounded record of individual span occurrences, for flamegraphs.

    The aggregated :class:`SpanNode` tree answers *where did the time
    go*; a timeline answers *when* — each completed span becomes one
    ``(name, start, dur, track)`` event, exportable as Chrome
    trace-event JSON (:func:`repro.observability.export.chrome_trace`)
    for Perfetto / ``chrome://tracing``.

    Memory is bounded the same way :class:`Histogram` reservoirs are:
    a fixed-capacity uniform sample (Vitter's algorithm R) over every
    span seen, with a deterministically seeded replacement stream, so
    a million-span sweep holds the same few hundred KB as a short run
    and two identical runs keep identical reservoirs.  ``seen`` counts
    all spans including the ones the reservoir dropped.

    Timestamps are seconds relative to ``epoch`` (a ``perf_counter``
    reading taken when the timeline was armed).  Worker timelines merge
    via :meth:`merge`, which shifts the incoming events into the
    parent's clock domain and assigns them a fresh track (lane) so the
    trace shows fanned-out work side by side.
    """

    #: Default cap on stored events (~a few hundred KB of tuples).
    DEFAULT_CAPACITY = 8192

    __slots__ = ("capacity", "epoch", "events", "seen", "next_track", "_rng")

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = int(capacity or self.DEFAULT_CAPACITY)
        if self.capacity <= 0:
            raise ValueError(f"timeline capacity must be > 0, got {capacity}")
        self.epoch = time.perf_counter()
        #: Reservoir of ``(name, start, dur, track)`` tuples; ``start``
        #: and ``dur`` in seconds, ``start`` relative to :attr:`epoch`.
        self.events: list[tuple[str, float, float, int]] = []
        self.seen = 0
        #: Next lane to hand out to a merged worker snapshot (0 is the
        #: recording process's own lane).
        self.next_track = 1
        self._rng = random.Random("timeline")

    def record(self, name: str, start: float, dur: float, track: int = 0) -> None:
        """Add one completed span (algorithm-R reservoir insert)."""
        self.seen += 1
        event = (name, start, dur, track)
        if len(self.events) < self.capacity:
            self.events.append(event)
        else:
            slot = self._rng.randrange(self.seen)
            if slot < self.capacity:
                self.events[slot] = event

    def snapshot(self) -> dict:
        """JSON-ready dict: ``{"capacity", "seen", "events"}``."""
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "events": [list(event) for event in self.events],
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this timeline.

        The worker clock's epoch is unrelated to ours, so the incoming
        events are shifted to end at *merge time* — the worker's last
        span finished just before its snapshot travelled back, which
        makes the alignment approximate by one IPC hop but keeps every
        duration and the relative spacing exact.  All events from one
        snapshot land on one fresh track.
        """
        events = snapshot.get("events", [])
        self.seen += snapshot.get("seen", len(events)) - len(events)
        if not events:
            return
        now = time.perf_counter() - self.epoch
        offset = now - max(start + dur for _, start, dur, _ in events)
        track = self.next_track
        self.next_track += 1
        for name, start, dur, _ in events:
            self.record(name, start + offset, dur, track)


class SpanNode:
    """One node of the aggregated timing tree."""

    __slots__ = ("name", "calls", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        """Get-or-create the child span called ``name``."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def snapshot(self) -> dict:
        """The subtree as a JSON-serialisable dict.

        Shape (the ``trace`` section of the ``--metrics-out`` report)::

            {"name": ..., "calls": ..., "seconds": ..., "children": [...]}
        """
        return {
            "name": self.name,
            "calls": self.calls,
            "seconds": self.seconds,
            "children": [
                self.children[name].snapshot()
                for name in sorted(self.children)
            ],
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` of a same-named node into this one."""
        self.calls += snapshot["calls"]
        self.seconds += snapshot["seconds"]
        for child_snap in snapshot["children"]:
            self.child(child_snap["name"]).merge(child_snap)


#: The armed process-wide :class:`Timeline`, or ``None`` (the
#: default): timeline recording is opt-in on top of the aggregated
#: trees and costs one global check per :meth:`Tracer.pop` while
#: disarmed.
timeline: Timeline | None = None


class Tracer:
    """Owns a trace tree and the currently-open span stack."""

    def __init__(self) -> None:
        self.root = SpanNode("run")
        self._stack: list[SpanNode] = [self.root]

    @property
    def current(self) -> SpanNode:
        """The innermost open span; the root when none is open.

        Falls back to the root even if the stack was somehow emptied
        (e.g. a :meth:`reset` racing an open span's exit), so callers
        like :meth:`merge_at_current` can always graft somewhere
        sensible instead of raising.
        """
        return self._stack[-1] if self._stack else self.root

    def push(self, name: str) -> SpanNode:
        node = self.current.child(name)
        node.calls += 1
        self._stack.append(node)
        return node

    def pop(self, elapsed: float) -> None:
        if len(self._stack) == 1:
            raise RuntimeError("trace stack underflow: pop without push")
        node = self._stack.pop()
        node.seconds += elapsed
        armed = timeline
        if armed is not None:
            end = time.perf_counter() - armed.epoch
            armed.record(node.name, end - elapsed, elapsed)

    def reset(self) -> None:
        """Drop the tree and any open spans."""
        self.root = SpanNode("run")
        self._stack = [self.root]

    def snapshot(self) -> dict:
        """The whole tree (root node named ``run``)."""
        return self.root.snapshot()

    def merge_at_current(self, snapshot: dict) -> None:
        """Graft another tree's children under the open span.

        ``snapshot`` is a full tree from :meth:`snapshot` (typically a
        worker's); its root is discarded and its children merge into
        whatever span is currently open here, which places remote work
        exactly where the fan-out happened.  Outside any ``trace(...)``
        block the open span is the root, so a snapshot merged from a
        bare call site grafts at the top of the tree — it never raises.
        """
        target = self.current
        for child_snap in snapshot.get("children", ()):
            target.child(child_snap["name"]).merge(child_snap)


#: The process-wide tracer: the root scope's, where every run scope's
#: tree is grafted on exit.
tracer = _state.root.tracer = Tracer()


def enable_timeline(capacity: int | None = None) -> None:
    """Arm the process-wide timeline (idempotent — re-arming drops any
    events recorded so far and restarts the epoch).
    """
    global timeline
    timeline = Timeline(capacity)


def disable_timeline() -> None:
    """Disarm timeline recording and drop recorded events."""
    global timeline
    timeline = None


def timeline_enabled() -> bool:
    """True while the process-wide timeline is armed."""
    return timeline is not None


def timeline_snapshot() -> dict | None:
    """The armed timeline's snapshot, or ``None`` when disarmed."""
    return timeline.snapshot() if timeline is not None else None


def merge_timeline(snapshot: dict | None) -> None:
    """Absorb a worker's timeline snapshot (no-op when either side is
    disarmed — a worker spawned rather than forked never armed one).
    """
    if snapshot and timeline is not None:
        timeline.merge(snapshot)


class trace:
    """Span marker, usable as a context manager or a decorator."""

    __slots__ = ("name", "_active", "_start", "_tracer")

    def __init__(self, name: str) -> None:
        self.name = name
        self._active = False
        self._tracer = None

    def __call__(self, fn):
        name = self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _state.enabled:
                return fn(*args, **kwargs)
            # Latch the tracer across the call so an inner RunContext
            # entry/exit cannot unbalance its span stack.
            tracer = _state.scope_var.get().tracer
            tracer.push(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(time.perf_counter() - start)

        return wrapper

    def __enter__(self) -> "trace":
        # The enabled state and the tracer are latched on entry so a
        # mid-span flip or scope change cannot unbalance a span stack.
        self._active = _state.enabled
        if self._active:
            self._tracer = _state.scope_var.get().tracer
            self._tracer.push(self.name)
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self._active:
            self._tracer.pop(time.perf_counter() - self._start)
            self._tracer = None
            self._active = False
        return False
