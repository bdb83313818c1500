"""Shared, cached setup for all experiments.

Criteria calibration and the failure-probability tables are the
expensive pieces every figure needs; the context builds each exactly
once and shares it.  ``default_context()`` memoises a full-accuracy
instance; tests construct small ones explicitly.

Execution is configurable: ``workers`` fans grid builds out across
processes (bit-identical to serial — see ``docs/performance.md``) and
``cache_dir`` persists calibrated criteria and built tables to disk so
a rerun with the same parameters loads instead of recomputing.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from repro import faults
from repro.checkpoint import FLUSH_EVERY, CheckpointStore
from repro.core.tables import FailureProbabilityTable
from repro.failures.analysis import CellFailureAnalyzer
from repro.failures.criteria import FailureCriteria, calibrate_criteria
from repro.observability.log import get_logger
from repro.observability.tracing import trace
from repro.parallel.cache import ResultCache
from repro.parallel.executor import ParallelExecutor
from repro.sram.cell import CellGeometry
from repro.sram.metrics import OperatingConditions
from repro.technology.parameters import TechnologyParameters, predictive_70nm

_log = get_logger("experiments.context")


class ExperimentContext:
    """Technology + calibrated criteria + shared analyzers/tables.

    Args:
        tech: technology card (default predictive 70 nm).
        geometry: cell geometry.
        target: per-mechanism failure probability at the nominal/ZBB
            calibration point.
        calibration_samples: Monte-Carlo size for criteria calibration.
        analysis_samples: solver-call budget per failure estimate.
        sampler: rare-event sampling strategy for analyzers minted by
            this context — one of :data:`repro.stats.SAMPLER_NAMES`
            (``plain``, ``scaled``, ``adaptive-is``, ``blockade``).
        sampler_scale: sigma inflation for ``sampler="scaled"``; None
            auto-tunes the scale from a pilot batch.  Ignored by the
            other strategies.
        table_grid: corner-grid points per interpolated table.
        seed: base seed for all derived randomness.
        workers: process count for sweep fan-out (default 1 = serial,
            hermetic).  Any worker count produces bit-identical results.
        cache_dir: directory for the disk-backed result cache (default
            None = no persistence); criteria and tables computed by this
            context are stored there and reloaded on the next run.
        checkpoint_dir: directory for mid-build checkpoints (default
            None = no checkpointing); table builds flush completed grid
            cells there and a killed run resumes exactly.
        checkpoint_every: flush cadence (completed cells per flush).
        fault_plan: chaos-injection plan (:class:`repro.faults.FaultPlan`)
            installed process-wide and handed to the executor; None (the
            default) injects nothing.  Test/CI-only.
    """

    def __init__(
        self,
        tech: TechnologyParameters | None = None,
        geometry: CellGeometry | None = None,
        target: float = 1e-7,
        calibration_samples: int = 150_000,
        analysis_samples: int = 40_000,
        sampler: str = "scaled",
        sampler_scale: float | None = 2.0,
        table_grid: int = 17,
        seed: int = 2006,
        workers: int = 1,
        cache_dir: str | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = FLUSH_EVERY,
        fault_plan: "faults.FaultPlan | None" = None,
    ) -> None:
        self.tech = tech if tech is not None else predictive_70nm()
        self.geometry = geometry if geometry is not None else CellGeometry()
        self.conditions = OperatingConditions.nominal(self.tech)
        self.target = target
        self.analysis_samples = analysis_samples
        self.sampler = sampler
        self.sampler_scale = sampler_scale
        self.table_grid = table_grid
        self.seed = seed
        self._criteria: FailureCriteria | None = None
        self._calibration_samples = calibration_samples
        self._tables: dict[float, FailureProbabilityTable] = {}
        #: Scratch cache for expensive experiment-level artifacts (e.g.
        #: the ASB hold-probability table); keyed by the artifact name.
        self.cache: dict = {}
        self.fault_plan = fault_plan
        if fault_plan is not None:
            faults.install(fault_plan)
        self.executor = ParallelExecutor(workers, fault_plan=fault_plan)
        self.result_cache = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.checkpoint_store = (
            CheckpointStore(checkpoint_dir, every=checkpoint_every)
            if checkpoint_dir is not None
            else None
        )

    @classmethod
    def from_spec(
        cls,
        spec: dict,
        workers: int = 1,
        cache_dir: str | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = FLUSH_EVERY,
        fault_plan: "faults.FaultPlan | None" = None,
    ) -> "ExperimentContext":
        """A context configured from a normalized service job spec.

        ``spec`` is the output of
        :func:`repro.service.spec.normalize_spec` — the wire-format
        payload a ``POST /v1/jobs`` submission carries (see
        ``docs/service.md``).  Accuracy knobs (target, sample budgets,
        sampler, grid, seed) come from the spec because they are part
        of the job's identity (its cache fingerprint); execution knobs
        (workers, cache/checkpoint directories) come from the server
        because they must not change what is computed, only how.

        ``sampler_scale`` is always ``None``: the scaled sampler
        auto-tunes from a pilot batch and the adaptive strategies use
        their default exploration width, so a spec never needs to pick
        a magic inflation constant.
        """
        return cls(
            target=spec["target"],
            calibration_samples=spec["calibration_samples"],
            analysis_samples=spec["analysis_samples"],
            sampler=spec["sampler"],
            sampler_scale=None,
            table_grid=spec["table_grid"],
            seed=spec["seed"],
            workers=workers,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            fault_plan=fault_plan,
        )

    @property
    def workers(self) -> int:
        """The configured fan-out width (1 = serial)."""
        return self.executor.requested_workers

    def configure_execution(
        self,
        workers: int | None = None,
        cache_dir: str | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = FLUSH_EVERY,
        fault_plan: "faults.FaultPlan | None" = None,
    ) -> "ExperimentContext":
        """Re-point the execution engine / result cache after creation.

        Used by the CLI to upgrade an already-built context (e.g. the
        memoised :func:`default_context`) without re-calibrating; only
        artifacts built *after* the call see the new settings.  Returns
        ``self`` for chaining.
        """
        if fault_plan is not None:
            self.fault_plan = fault_plan
            faults.install(fault_plan)
        if workers is not None or fault_plan is not None:
            self.executor = ParallelExecutor(
                workers if workers is not None else self.workers,
                fault_plan=self.fault_plan,
            )
        if cache_dir is not None:
            self.result_cache = ResultCache(cache_dir)
        if checkpoint_dir is not None:
            self.checkpoint_store = CheckpointStore(
                checkpoint_dir, every=checkpoint_every
            )
        return self

    def configure_sampling(
        self,
        sampler: str | None = None,
        scale: float | None = None,
        analysis_samples: int | None = None,
    ) -> "ExperimentContext":
        """Re-point the rare-event sampling strategy after creation.

        Like :meth:`configure_execution`, this upgrades an already-built
        context (e.g. the memoised :func:`default_context`) in place;
        only analyzers and tables minted *after* the call use the new
        strategy.  Tables already built under the old strategy stay in
        ``self._tables``, so switching samplers drops them.  Returns
        ``self`` for chaining.
        """
        changed = False
        if sampler is not None and sampler != self.sampler:
            self.sampler = sampler
            changed = True
        if scale is not None and scale != self.sampler_scale:
            self.sampler_scale = scale
            changed = True
        if sampler == "scaled" and scale is None:
            # Explicit re-selection of "scaled" means auto-tune.
            self.sampler_scale = None
            changed = True
        if (
            analysis_samples is not None
            and analysis_samples != self.analysis_samples
        ):
            self.analysis_samples = analysis_samples
            changed = True
        if changed:
            self._tables.clear()
        return self

    def _criteria_key(self) -> dict:
        """Everything criteria calibration depends on, as JSON."""
        return {
            "technology": dataclasses.asdict(self.tech),
            "geometry": dataclasses.asdict(self.geometry),
            "conditions": dataclasses.asdict(self.conditions),
            "target": self.target,
            "n_samples": self._calibration_samples,
            "seed": self.seed,
        }

    @property
    def criteria(self) -> FailureCriteria:
        """Calibrated failure criteria (computed once, lazily).

        With a ``cache_dir`` configured, a previous run's calibration
        for the identical (technology, target, sampling) payload is
        loaded from disk instead of recomputed.
        """
        if self._criteria is None:
            key = self._criteria_key() if self.result_cache is not None else None
            if key is not None:
                stored = self.result_cache.get("criteria", key)
                if stored is not None:
                    self._criteria = FailureCriteria(**stored["criteria"])
                    _log.info("criteria.cached", target=self.target)
                    return self._criteria
            _log.info(
                "criteria.calibrate.start",
                target=self.target,
                n_samples=self._calibration_samples,
            )
            with trace("criteria.calibrate"):
                self._criteria = calibrate_criteria(
                    self.tech,
                    self.geometry,
                    self.conditions,
                    target=self.target,
                    n_samples=self._calibration_samples,
                    seed=self.seed,
                )
            _log.info("criteria.calibrate.done", target=self.target)
            if key is not None:
                self.result_cache.put(
                    "criteria",
                    key,
                    {"criteria": dataclasses.asdict(self._criteria)},
                )
        return self._criteria

    def analyzer(
        self, conditions: OperatingConditions | None = None
    ) -> CellFailureAnalyzer:
        """A failure analyzer bound to this context's calibration."""
        return CellFailureAnalyzer(
            self.tech,
            self.criteria,
            geometry=self.geometry,
            conditions=conditions if conditions is not None else self.conditions,
            n_samples=self.analysis_samples,
            scale=self.sampler_scale,
            seed=self.seed + 1,
            sampler=self.sampler,
        )

    def table(self, vbody: float = 0.0) -> FailureProbabilityTable:
        """Shared interpolated failure table at one body-bias level.

        Built through the context's executor (fan-out over the corner
        grid) and result cache (warm reload across runs).
        """
        key = round(vbody, 6)
        if key not in self._tables:
            conditions = self.conditions.with_body_bias(vbody)
            self._tables[key] = FailureProbabilityTable(
                self.analyzer(),
                conditions,
                n_grid=self.table_grid,
                executor=self.executor,
                cache=self.result_cache,
                checkpoint=self.checkpoint_store,
            )
        return self._tables[key]

    def asb_conditions(self, vsb: float = 0.0) -> OperatingConditions:
        """Source-biasing standby conditions (Section IV experiments)."""
        return OperatingConditions.source_biased_standby(self.tech, vsb)


@lru_cache(maxsize=1)
def default_context() -> ExperimentContext:
    """The full-accuracy shared context used by benchmarks/examples."""
    return ExperimentContext()
