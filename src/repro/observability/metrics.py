"""Counters, gauges, and histograms with a mergeable registry.

Three instrument kinds cover everything the statistics stack wants to
report:

* :class:`Counter` — a monotonically growing total (samples drawn,
  cache hits, dies processed);
* :class:`Gauge` — a last-value-wins level (configured worker count,
  current effective-sample-size fraction);
* :class:`Histogram` — a streaming summary (count / total / min / max /
  mean plus reservoir-estimated p50/p95) of a repeated measurement,
  with a :meth:`Histogram.time` context manager for wall-clock
  observations.  Memory is bounded: per-value storage is a fixed-size
  reservoir (:data:`Histogram.RESERVOIR_SIZE` samples, Vitter's
  algorithm R with a per-name deterministic stream), so a week-long
  sweep observing millions of values holds the same few KB as a short
  one.

A :class:`MetricsRegistry` owns instruments by name, snapshots them to
a plain dict (JSON-ready), and can merge a snapshot produced by another
process — how per-worker measurements travel back across the
:class:`~repro.parallel.executor.ParallelExecutor` boundary.

Call sites never touch a registry directly; they use the guarded
module helpers (:func:`incr`, :func:`set_gauge`, :func:`observe`)
which are no-ops while collection is disabled and otherwise write to
the active run scope's registry, or to the process-wide
:data:`registry` (the root's) outside any run.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from repro.observability import _state


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: amount must be >= 0")
        self.value += amount


class Gauge:
    """A last-value-wins level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A bounded-memory summary of a repeated measurement.

    Running count/total/min/max are exact at any volume; quantiles are
    estimated from a fixed-size uniform reservoir (algorithm R), so the
    instrument's footprint is constant no matter how many values a
    long-running sweep observes.  The reservoir's replacement stream is
    seeded from the histogram name, so two processes observing the same
    sequence keep identical reservoirs — deterministic, like everything
    else in the library.
    """

    #: Per-histogram cap on stored raw samples (~4 KB of floats).
    RESERVOIR_SIZE = 512

    __slots__ = ("name", "count", "total", "min", "max", "samples", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: Uniform sample of everything observed, capped at
        #: :data:`RESERVOIR_SIZE` entries.
        self.samples: list[float] = []
        self._rng = random.Random(name)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.RESERVOIR_SIZE:
            self.samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self.samples[slot] = value

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Reservoir-estimated ``q``-quantile (``q`` in [0, 1]).

        Exact while fewer than :data:`RESERVOIR_SIZE` values have been
        observed; a uniform-subsample estimate beyond that.  Degenerate
        reservoirs are guarded, never raise: ``None`` before any
        observation, and the sample itself when only one has been seen
        (every quantile of a single observation is that observation).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self.samples:
            return None
        if len(self.samples) == 1:
            return self.samples[0]
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's snapshot dict into this one.

        Exact fields accumulate exactly; the incoming reservoir (when
        present) is re-observed through this reservoir's replacement
        stream, keeping the merged sample approximately uniform over
        both populations.
        """
        if not summary["count"]:
            return
        incoming = summary.get("reservoir", [])
        self.count += summary["count"] - len(incoming)
        self.total += summary["total"] - sum(incoming)
        self.min = min(self.min, summary["min"])
        self.max = max(self.max, summary["max"])
        for value in incoming:
            self.observe(value)

    @contextmanager
    def time(self):
        """Observe the wall time of the ``with`` body, in seconds."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(time.perf_counter() - start)


class MetricsRegistry:
    """Named instruments with dict snapshots and cross-process merge."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name)
        elif type(instrument) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter called ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge called ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the histogram called ``name``."""
        return self._get(name, Histogram)

    def counter_value(self, name: str) -> float:
        """Read counter ``name`` without creating it (0.0 when absent).

        A pure read: safe for another thread to poll (job progress off
        a live run scope) without mutating the instrument table.
        """
        instrument = self._instruments.get(name)
        return instrument.value if isinstance(instrument, Counter) else 0.0

    def reset(self) -> None:
        """Drop every instrument."""
        self._instruments.clear()

    def snapshot(self) -> dict:
        """All instruments as a JSON-serialisable dict.

        Shape (the ``metrics`` section of the ``--metrics-out``
        report — see ``docs/observability.md``)::

            {"counters":   {name: value},
             "gauges":     {name: value},
             "histograms": {name: {count, total, min, max, mean,
                                   p50, p95, reservoir}}}

        ``p50``/``p95`` are reservoir estimates (``None`` when empty)
        and ``reservoir`` is the bounded raw-sample list — additive
        fields under the unchanged ``repro.telemetry/1`` schema, and
        how quantile information survives the cross-process
        :meth:`merge`.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                out["counters"][name] = inst.value
            elif isinstance(inst, Gauge):
                out["gauges"][name] = inst.value
            else:
                out["histograms"][name] = {
                    "count": inst.count,
                    "total": inst.total,
                    "min": inst.min if inst.count else None,
                    "max": inst.max if inst.count else None,
                    "mean": inst.mean,
                    "p50": inst.percentile(0.50),
                    "p95": inst.percentile(0.95),
                    "reservoir": list(inst.samples),
                }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins, matching their in-process semantics).
        Used by the parent process to absorb per-worker measurements.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_summary(summary)


#: The process-wide registry: the root scope's, where every run scope
#: folds in on exit.
registry = _state.root.registry = MetricsRegistry()


def incr(name: str, amount: float = 1.0) -> None:
    """Bump counter ``name`` — no-op while collection is disabled."""
    if _state.enabled:
        _state.scope_var.get().registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` — no-op while collection is disabled."""
    if _state.enabled:
        _state.scope_var.get().registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Observe ``value`` in histogram ``name`` — no-op when disabled."""
    if _state.enabled:
        _state.scope_var.get().registry.histogram(name).observe(value)
