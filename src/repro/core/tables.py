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
from typing import TYPE_CHECKING

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
from repro.observability.log import get_logger
from repro.observability.metrics import incr, observe
from repro.observability.tracing import trace
from repro.parallel.cache import cached_surface, fingerprint
from repro.sram.metrics import OperatingConditions
from repro.stats.montecarlo import MonteCarloResult
from repro.technology.corners import ProcessCorner

if TYPE_CHECKING:  # pragma: no cover - hint-only imports
    from repro.checkpoint import CheckpointStore
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import ParallelExecutor

_log = get_logger("core.tables")

#: Probability floor to keep log-space interpolation finite.
_P_FLOOR = 1e-12


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
        self._executor = executor
        self._cache = cache
        self._checkpoint = checkpoint
        self._splines: dict[str, PchipInterpolator] = {}
        #: Estimator health of the grid build (worst-cell CI half-width,
        #: minimum ESS, unconverged-cell count over the union-mechanism
        #: estimates); ``None`` only when reloaded from a cache entry
        #: written before diagnostics existed.
        self.diagnostics: BatchDiagnostics | None = None
        self._build()

    def _cache_key(self) -> dict:
        """Everything the grid estimates depend on, as a JSON payload."""
        analyzer = self.analyzer
        return {
            "technology": dataclasses.asdict(analyzer.tech),
            "criteria": dataclasses.asdict(analyzer.criteria),
            "geometry": dataclasses.asdict(analyzer.geometry),
            "conditions": dataclasses.asdict(self.conditions),
            "n_samples": analyzer.n_samples,
            "scale": analyzer.scale,
            "sampler": analyzer.sampler,
            "seed": analyzer.seed,
            "grid": [float(x) for x in self.grid],
        }

    @trace("table.build")
    def _build(self) -> None:
        start = time.perf_counter()
        key = self._cache_key()

        def build() -> tuple[dict, BatchDiagnostics]:
            _log.info(
                "table.build.start",
                grid=self.grid.size,
                n_samples=self.analyzer.n_samples,
                vbody=self.conditions.vbody_n,
            )
            results = self._compute_grid(key)
            log_p = {name: [] for name in MECHANISMS + ("any",)}
            for probs in results:
                for name in MECHANISMS + ("any",):
                    p = max(probs[name].estimate, _P_FLOOR)
                    log_p[name].append(float(np.log10(min(p, 1.0))))
            self._record_diagnostics(results)
            _log.info(
                "table.build.done",
                grid=self.grid.size,
                seconds=round(time.perf_counter() - start, 3),
            )
            return log_p, self.diagnostics

        log_p, self.diagnostics = cached_surface(
            self._cache, "failure-table", key, build,
            f"table[vbody={self.conditions.vbody_n:+.3f}]",
            _log, "table.build.cached", grid=self.grid.size,
        )
        for name, values in log_p.items():
            self._splines[name] = PchipInterpolator(
                self.grid, np.array(values, dtype=float)
            )

    def _compute_grid(self, key: dict) -> list:
        """Per-grid-cell failure estimates, checkpointed when enabled.

        Without a checkpoint store this is one batch call.  With one,
        missing cells are computed in flush-sized slices keyed by the
        fingerprint of ``key`` (the cache key payload), so a killed
        build resumes — and because every cell seeds its own RNG stream
        from its (corner, bias) key, the resumed table is bit-identical.
        """

        def compute(indices) -> list:
            return self.analyzer.failure_probabilities_batch(
                [ProcessCorner(float(self.grid[i])) for i in indices],
                [self.conditions] * len(indices),
                executor=self._executor,
            )

        def encode(probs) -> dict:
            return {
                name: dataclasses.asdict(probs[name])
                for name in MECHANISMS + ("any",)
            }

        def decode(raw) -> FailureProbabilities:
            return FailureProbabilities(
                **{
                    name: MonteCarloResult(**raw[name])
                    for name in MECHANISMS + ("any",)
                }
            )

        return resumable_map(
            self._checkpoint,
            "failure-table",
            fingerprint(key),
            self.grid.size,
            compute,
            encode,
            decode,
        )

    def _record_diagnostics(self, results) -> None:
        """Summarise and report the grid estimates' statistical health.

        The per-cell headline number is the union (``any``) estimate,
        so the table-level summary — worst-cell CI half-width, minimum
        ESS, ``unconverged_cells`` — is taken over it; all mechanism
        estimates additionally feed the per-scope recorder so a run
        report can localise which mechanism is starved.
        """
        self.diagnostics = diagnostics.summarize(
            [probs["any"] for probs in results]
        )
        scope = f"table[vbody={self.conditions.vbody_n:+.3f}]"
        for probs in results:
            for name in MECHANISMS + ("any",):
                diagnostics.record(scope, probs[name])
        incr("table.unconverged_cells", self.diagnostics.unconverged)
        if self.diagnostics.worst_ci_halfwidth is not None:
            observe(
                "table.worst_ci_halfwidth",
                self.diagnostics.worst_ci_halfwidth,
            )
        if self.diagnostics.unconverged:
            _log.warning(
                "table.build.unconverged",
                cells=self.diagnostics.unconverged,
                grid=self.grid.size,
                min_ess=round(self.diagnostics.min_ess, 1),
            )

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
