"""Interpolated failure-probability tables.

The yield-vs-sigma experiments (paper Figs. 2c, 4b, 5c, 10) need the
cell failure probability at hundreds of (corner, bias) points.  A single
importance-sampled estimate costs seconds; evaluating them on demand
would make the benchmark harness take hours.  A
:class:`FailureProbabilityTable` evaluates the analyzer once on a corner
grid per bias point and interpolates ``log10(p)`` with a monotone PCHIP
spline — failure probabilities vary smoothly (and near-exponentially)
with the inter-die shift, so a ~20-point grid reproduces direct
estimates to well within their Monte-Carlo error (verified in the test
suite).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from repro.checkpoint import resumable_map
from repro.failures.analysis import (
    MECHANISMS,
    CellFailureAnalyzer,
    FailureProbabilities,
)
from repro.observability import diagnostics
from repro.observability.diagnostics import BatchDiagnostics
from repro.observability.log import EventLogger, get_logger
from repro.observability.metrics import incr, observe
from repro.observability.tracing import trace
from repro.parallel.cache import fingerprint
from repro.sram.metrics import OperatingConditions
from repro.stats.montecarlo import MonteCarloResult
from repro.technology.corners import ProcessCorner

if TYPE_CHECKING:  # pragma: no cover - hint-only imports
    from repro.checkpoint import CheckpointStore
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import ParallelExecutor

_log = get_logger("core.tables")


@dataclass(frozen=True)
class Surface:
    """What sets one kind of estimate grid apart in :func:`build_surface`."""

    kind: str  # cache and checkpoint kind (the file name prefix)
    prefix: str  # of its log events, counter and histogram
    floor: float  # probability floor that keeps log10(p) finite
    counts: tuple[str, str]  # unconverged-warning fields: (count, total)
    log: EventLogger
    #: One point's result as ``{mechanism: estimate}``, headline last.
    estimates: Callable[[object], dict[str, MonteCarloResult]]
    #: One point's result from its checkpointed JSON.
    decode: Callable[[dict], object]


def build_surface(
    surface: Surface,
    key: dict,
    points: Sequence[tuple[ProcessCorner, OperatingConditions]],
    batch: Callable,
    finish: Callable[[dict[str, list[float]]], object],
    *,
    scope: str,
    start: dict,
    cached: dict,
    executor: "ParallelExecutor | None",
    cache: "ResultCache | None",
    checkpoint: "CheckpointStore | None",
) -> tuple[object, BatchDiagnostics]:
    """``(log10 probability, health)`` of an estimate grid: stored, or built.

    The one build behind both surfaces.  A hit re-records the stored
    health under ``scope``, so a warm run's verdict matches the cold
    run's.  A miss runs the analyzer's ``batch`` method over the
    ``(corner, conditions)`` points, checkpointed under the fingerprint
    of ``key`` (each point seeds its own RNG stream from its key, so a
    resumed build is bit-identical), reports every estimate's health,
    and stores what ``finish`` makes of ``{mechanism: [log10 p]}``.
    ``start`` and ``cached`` are the fields of those two log events.
    """
    if cache is not None:
        stored = cache.get(surface.kind, key)
        if stored is not None:
            health = BatchDiagnostics.from_dict(stored["diagnostics"])
            diagnostics.record_batch(scope, health)
            surface.log.info(f"{surface.prefix}.build.cached", **cached)
            return stored["log10_probability"], health
    surface.log.info(f"{surface.prefix}.build.start", **start)

    def compute(indices) -> list:
        return batch(
            [points[i][0] for i in indices],
            [points[i][1] for i in indices],
            executor=executor,
        )

    results = resumable_map(
        checkpoint, surface.kind, fingerprint(key), len(points), compute,
        dataclasses.asdict, surface.decode,
    )
    estimates = [surface.estimates(result) for result in results]
    health = diagnostics.summarize(
        [list(point.values())[-1] for point in estimates]
    )
    for point in estimates:
        for result in point.values():
            diagnostics.record(scope, result)
    incr(f"{surface.prefix}.unconverged_cells", health.unconverged)
    if health.worst_ci_halfwidth is not None:
        observe(f"{surface.prefix}.worst_ci_halfwidth", health.worst_ci_halfwidth)
    if health.unconverged:
        count, total = surface.counts
        surface.log.warning(
            f"{surface.prefix}.build.unconverged",
            **{count: health.unconverged, total: len(points)},
            min_ess=round(health.min_ess, 1),
        )
    log10_probability = finish(
        {
            name: [
                float(np.log10(min(max(point[name].estimate, surface.floor), 1.0)))
                for point in estimates
            ]
            for name in estimates[0]
        }
    )
    if cache is not None:
        cache.put(
            surface.kind,
            key,
            {"log10_probability": log10_probability, "diagnostics": health.as_dict()},
        )
    return log10_probability, health


#: The corner-grid failure table: every mechanism plus the union.
FAILURE_SURFACE = Surface(
    kind="failure-table",
    prefix="table",
    floor=1e-12,
    counts=("cells", "grid"),
    log=_log,
    estimates=lambda probs: {name: probs[name] for name in MECHANISMS + ("any",)},
    decode=lambda raw: FailureProbabilities(
        **{name: MonteCarloResult(**value) for name, value in raw.items()}
    ),
)


class FailureProbabilityTable:
    """Cell failure probability vs inter-die corner, per mechanism.

    Args:
        analyzer: the failure analyzer supplying point estimates.
        conditions: bias conditions the table is built at.
        corner_min / corner_max: grid span of inter-die shifts [V].
        n_grid: grid points (grid is uniform).
        executor: fan-out engine for the grid build; None builds
            serially.  Results are bit-identical at any worker count
            (each grid point derives its own RNG stream from its key).
        cache: disk-backed result cache; when set, the build first
            looks up the full (technology, criteria, sampling, grid)
            fingerprint and only runs Monte Carlo on a miss.
        checkpoint: checkpoint store; when set, completed grid cells
            are flushed periodically during the build and a re-run with
            the *same* fingerprint resumes from the last flush.  Resume
            is exact: each cell derives its RNG stream from its own
            (corner, bias) key, so recomputing only the missing cells
            is bit-identical to a fresh full build.
    """

    def __init__(
        self,
        analyzer: CellFailureAnalyzer,
        conditions: OperatingConditions | None = None,
        corner_min: float = -0.15,
        corner_max: float = 0.15,
        n_grid: int = 21,
        executor: "ParallelExecutor | None" = None,
        cache: "ResultCache | None" = None,
        checkpoint: "CheckpointStore | None" = None,
    ) -> None:
        if n_grid < 4:
            raise ValueError("n_grid must be at least 4 for PCHIP")
        if corner_min >= corner_max:
            raise ValueError("corner_min must be below corner_max")
        self.analyzer = analyzer
        self.conditions = (
            conditions if conditions is not None else analyzer.conditions
        )
        self.grid = np.linspace(corner_min, corner_max, n_grid)
        #: Estimator health of the grid build (worst-cell CI half-width,
        #: minimum ESS, unconverged-cell count over the union-mechanism
        #: estimates).
        self.diagnostics: BatchDiagnostics
        self._build(executor, cache, checkpoint)

    @trace("table.build")
    def _build(self, executor, cache, checkpoint) -> None:
        began = time.perf_counter()
        analyzer, n = self.analyzer, self.grid.size

        def finish(log_p: dict) -> dict:
            _log.info(
                "table.build.done",
                grid=n,
                seconds=round(time.perf_counter() - began, 3),
            )
            return log_p

        log_p, self.diagnostics = build_surface(
            FAILURE_SURFACE,
            analyzer.surface_key(
                conditions=dataclasses.asdict(self.conditions),
                grid=[float(x) for x in self.grid],
            ),
            [(ProcessCorner(float(x)), self.conditions) for x in self.grid],
            analyzer.failure_probabilities_batch,
            finish,
            scope=f"table[vbody={self.conditions.vbody_n:+.3f}]",
            start=dict(
                grid=n, n_samples=analyzer.n_samples, vbody=self.conditions.vbody_n
            ),
            cached=dict(grid=n),
            executor=executor,
            cache=cache,
            checkpoint=checkpoint,
        )
        self._splines = {
            name: PchipInterpolator(self.grid, np.array(values, dtype=float))
            for name, values in log_p.items()
        }

    def probability(
        self, corner: ProcessCorner | float, mechanism: str = "any"
    ) -> float:
        """Interpolated failure probability at ``corner``.

        Corners outside the grid clamp to the nearest grid edge (the
        probability there is already ~1 or ~floor).
        """
        if mechanism not in self._splines:
            raise KeyError(f"unknown mechanism {mechanism!r}")
        dvt = corner.dvt_inter if isinstance(corner, ProcessCorner) else float(corner)
        dvt = float(np.clip(dvt, self.grid[0], self.grid[-1]))
        p = 10.0 ** float(self._splines[mechanism](dvt))
        return float(np.clip(p, 0.0, 1.0))

    def series(
        self, corners: np.ndarray, mechanism: str = "any"
    ) -> np.ndarray:
        """Vectorised :meth:`probability` over an array of shifts [V]."""
        dvt = np.clip(np.asarray(corners, dtype=float), self.grid[0], self.grid[-1])
        p = 10.0 ** self._splines[mechanism](dvt)
        return np.clip(p, 0.0, 1.0)
