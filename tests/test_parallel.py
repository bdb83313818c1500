"""Tests for the parallel execution engine and the result cache.

Covers the determinism contract (``workers=N`` bit-identical to
``workers=1``), warm-vs-cold cache equality, fingerprint invalidation
when the technology card or criteria change, and the fault-tolerance
layer: retries, pool recovery, serial degradation, quarantined cache
entries, and the crash-then-retry bit-identity property.
"""

import dataclasses
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro import observability
from repro.core.tables import FailureProbabilityTable
from repro.experiments.asb import HoldProbabilityTable
from repro.experiments.context import ExperimentContext
from repro.failures.analysis import CellFailureAnalyzer
from repro.failures.criteria import FailureCriteria
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import (
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    TaskError,
    TaskFailure,
    fingerprint,
    spawn_seeds,
)
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import predictive_70nm

#: Cheap context parameters shared by every cache/determinism test.
CTX_PARAMS = dict(
    target=1e-2,
    calibration_samples=3_000,
    analysis_samples=1_500,
    table_grid=5,
    seed=7,
)


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def _draw(seed_seq):
    """One deterministic draw from a task-embedded seed."""
    return float(np.random.default_rng(seed_seq).normal())


class TestExecutor:
    def test_serial_map_preserves_order(self):
        assert ParallelExecutor(1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        tasks = list(range(20))
        serial = ParallelExecutor(1).map(_square, tasks)
        parallel = ParallelExecutor(2).map(_square, tasks)
        assert serial == parallel

    def test_seeded_tasks_identical_at_any_worker_count(self):
        seeds = spawn_seeds(42, 8)
        serial = ParallelExecutor(1).map(_draw, seeds)
        parallel = ParallelExecutor(3).map(_draw, spawn_seeds(42, 8))
        assert serial == parallel

    def test_spawn_seeds_stable_and_distinct(self):
        a = [_draw(s) for s in spawn_seeds(5, 4)]
        b = [_draw(s) for s in spawn_seeds(5, 4)]
        assert a == b
        assert len(set(a)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)

    def test_workers_clamp_to_cores(self):
        import os

        executor = ParallelExecutor(10_000)
        assert executor.workers <= (os.cpu_count() or 1)
        assert executor.requested_workers == 10_000
        assert not executor.is_serial

    def test_executor_is_picklable(self):
        import pickle

        executor = pickle.loads(pickle.dumps(ParallelExecutor(4)))
        assert executor.requested_workers == 4


#: A fast-failing retry policy so resilience tests don't sleep.
_FAST_RETRY = RetryPolicy(backoff_base=0.001, backoff_max=0.01)


class TestExecutorResilience:
    def test_inline_crash_retries_and_succeeds(self):
        plan = FaultPlan(
            [FaultSpec(kind="worker_crash", task_index=1, times=1)]
        )
        executor = ParallelExecutor(1, retry=_FAST_RETRY, fault_plan=plan)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.retries == 1
        assert executor.task_failures == 0

    def test_inline_exhausted_retries_raise_task_error(self):
        plan = FaultPlan(
            [FaultSpec(kind="worker_crash", task_index=0, times=5)]
        )
        retry = RetryPolicy(max_attempts=2, backoff_base=0.001)
        executor = ParallelExecutor(1, retry=retry, fault_plan=plan)
        with pytest.raises(TaskError, match="task 0 gave up"):
            executor.map(_square, [1, 2])
        assert executor.task_failures == 1

    def test_return_failures_keeps_survivors(self):
        plan = FaultPlan(
            [FaultSpec(kind="worker_crash", task_index=1, times=5)]
        )
        retry = RetryPolicy(max_attempts=2, backoff_base=0.001)
        executor = ParallelExecutor(1, retry=retry, fault_plan=plan)
        results = executor.map(_square, [1, 2, 3], return_failures=True)
        assert results[0] == 1 and results[2] == 9
        assert isinstance(results[1], TaskFailure)
        assert results[1].index == 1
        assert results[1].attempts == 2

    def test_pool_worker_crash_recovers(self):
        plan = FaultPlan([FaultSpec(kind="worker_crash", times=1)])
        executor = ParallelExecutor(2, retry=_FAST_RETRY, fault_plan=plan)
        assert executor.map(_square, list(range(8))) == [
            i * i for i in range(8)
        ]
        assert executor.pool_respawns == 1
        assert executor.retries >= 1
        assert executor.task_failures == 0

    def test_pool_hang_times_out_and_recovers(self):
        plan = FaultPlan(
            [FaultSpec(kind="task_hang", task_index=0, seconds=5.0, times=1)]
        )
        retry = RetryPolicy(timeout=1.0, backoff_base=0.001)
        executor = ParallelExecutor(2, retry=retry, fault_plan=plan)
        assert executor.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert executor.retries >= 1
        assert executor.task_failures == 0

    def test_second_pool_break_degrades_to_serial(self):
        # Task 0's first two attempts crash a worker; the pool breaks
        # twice, so the survivors must finish on the inline path.
        plan = FaultPlan(
            [
                FaultSpec(kind="worker_crash", task_index=0, times=1),
                FaultSpec(kind="worker_crash", task_index=0, times=1),
            ]
        )
        executor = ParallelExecutor(2, retry=_FAST_RETRY, fault_plan=plan)
        assert executor.map(_square, list(range(6))) == [
            i * i for i in range(6)
        ]
        assert executor.pool_respawns == 1
        assert executor.serial_degrades == 1
        assert executor.task_failures == 0

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(3, 1) == policy.backoff_delay(3, 1)
        assert policy.backoff_delay(3, 1) != policy.backoff_delay(4, 1)
        assert policy.backoff_delay(3, 2) <= policy.backoff_max * 1.5

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = {"a": 1, "b": [1.0, 2.0]}
        assert cache.get("thing", key) is None
        cache.put("thing", key, {"value": 3.5})
        assert cache.get("thing", key) == {"value": 3.5}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_key_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("thing", {"a": 1}, {"v": 1})
        assert cache.get("thing", {"a": 2}) is None
        assert cache.get("other", {"a": 1}) is None

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("thing", {"a": 1}, {"v": 1})
        path.write_text("{not json")
        assert cache.get("thing", {"a": 1}) is None

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        # Regression: a hand-truncated entry (simulating a torn write
        # or disk-full crash) must degrade to a counted miss and be
        # moved aside, never raise or serve partial data.
        cache = ResultCache(tmp_path)
        path = cache.put("thing", {"a": 1}, {"v": 1})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.get("thing", {"a": 1}) is None
        assert cache.quarantined == 1
        assert cache.misses == 1
        assert list(tmp_path.glob("*.corrupt-1"))
        # The slot is reusable: a fresh put serves again.
        cache.put("thing", {"a": 1}, {"v": 2})
        assert cache.get("thing", {"a": 1}) == {"v": 2}

    def test_tampered_value_is_quarantined_miss(self, tmp_path):
        # Valid JSON whose body no longer matches its checksum.
        import json

        cache = ResultCache(tmp_path)
        path = cache.put("thing", {"a": 1}, {"v": 1})
        stored = json.loads(path.read_text())
        stored["value"]["v"] = 999
        path.write_text(json.dumps(stored))
        assert cache.get("thing", {"a": 1}) is None
        assert cache.quarantined == 1

    def test_unversioned_legacy_entry_is_quarantined(self, tmp_path):
        # A pre-checksum (format 1) file cannot be verified: miss.
        import json

        cache = ResultCache(tmp_path)
        path = cache.put("thing", {"a": 1}, {"v": 1})
        stored = json.loads(path.read_text())
        stored["format"] = 1
        path.write_text(json.dumps(stored))
        assert cache.get("thing", {"a": 1}) is None
        assert cache.quarantined == 1

    def test_cache_dir_collides_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(NotADirectoryError):
            ResultCache(target)

    def test_fingerprint_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})
        assert fingerprint({"x": np.float64(1.5)}) == fingerprint({"x": 1.5})


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def ctx(self):
        return ExperimentContext(**CTX_PARAMS)

    def test_batch_matches_pointwise(self, ctx):
        analyzer = ctx.analyzer()
        corners = [ProcessCorner(x) for x in (-0.06, 0.0, 0.06)]
        batch = analyzer.failure_probabilities_batch(corners)
        for corner, probs in zip(corners, batch):
            assert probs.as_dict() == analyzer.failure_probabilities(corner).as_dict()

    def test_batch_identical_across_workers(self, ctx):
        analyzer = ctx.analyzer()
        corners = [ProcessCorner(x) for x in (-0.05, 0.0, 0.05)]
        serial = analyzer.failure_probabilities_batch(corners)
        parallel = analyzer.failure_probabilities_batch(
            corners, executor=ParallelExecutor(4)
        )
        for s, p in zip(serial, parallel):
            assert s.as_dict() == p.as_dict()

    def test_hold_batch_identical_across_workers(self, ctx):
        analyzer = ctx.analyzer()
        corners = [ProcessCorner(x) for x in (-0.05, 0.05)]
        conditions = [ctx.asb_conditions(0.2), ctx.asb_conditions(0.4)]
        serial = analyzer.hold_failure_probability_batch(corners, conditions)
        parallel = analyzer.hold_failure_probability_batch(
            corners, conditions, executor=ParallelExecutor(2)
        )
        assert [r.estimate for r in serial] == [r.estimate for r in parallel]

    def test_batch_length_mismatch_rejected(self, ctx):
        analyzer = ctx.analyzer()
        with pytest.raises(ValueError):
            analyzer.failure_probabilities_batch(
                [ProcessCorner(0.0)], [None, None]
            )
        with pytest.raises(ValueError):
            analyzer.hold_failure_probability_batch(
                [ProcessCorner(0.0)], [None, None]
            )

    def test_crash_then_retry_bit_identical_to_serial(self, ctx):
        # The headline robustness property: a 4-worker run that loses a
        # worker mid-sweep (crash injected, task retried on the
        # respawned pool) produces *bit-identical* estimates to a
        # serial, fault-free run — retries recompute from the same
        # task-embedded seeds.
        analyzer = ctx.analyzer()
        corners = [ProcessCorner(x) for x in (-0.06, -0.02, 0.02, 0.06)]
        serial = analyzer.failure_probabilities_batch(corners)
        chaotic = ParallelExecutor(
            4,
            retry=_FAST_RETRY,
            fault_plan=FaultPlan([FaultSpec(kind="worker_crash", times=1)]),
        )
        recovered = analyzer.failure_probabilities_batch(
            corners, executor=chaotic
        )
        assert chaotic.retries >= 1
        assert chaotic.task_failures == 0
        for s, p in zip(serial, recovered):
            assert s.as_dict() == p.as_dict()

    def test_parallel_table_matches_serial(self, ctx):
        serial = ExperimentContext(**CTX_PARAMS)
        parallel = ExperimentContext(**CTX_PARAMS, workers=2)
        for dvt in (-0.07, 0.0, 0.07):
            assert serial.table().probability(dvt) == parallel.table().probability(dvt)


#: Probe corners [V] of the surface equality checks.
PROBES = (-0.07, -0.02, 0.0, 0.05, 0.07)


class SurfaceCase(NamedTuple):
    """One of the two estimate grids, as the build tests drive it."""

    build: Callable  # context -> surface
    values: Callable  # surface -> its probabilities at fixed probes
    batch: str  # the analyzer batch method the build calls


SURFACES = [
    pytest.param(
        SurfaceCase(
            lambda ctx: ctx.table(0.0),
            lambda table: [
                table.probability(dvt, mechanism)
                for dvt in PROBES
                for mechanism in ("read", "write", "access", "hold", "any")
            ],
            "failure_probabilities_batch",
        ),
        id="failure-table",
    ),
    pytest.param(
        SurfaceCase(
            lambda ctx: HoldProbabilityTable(
                ctx,
                corner_grid=np.linspace(-0.08, 0.08, 3),
                vsb_grid=np.array([0.0, 0.3, 0.5]),
            ),
            lambda table: [
                table.probability(dvt, vsb)
                for dvt in PROBES
                for vsb in (0.0, 0.2, 0.45)
            ],
            "hold_failure_probability_batch",
        ),
        id="hold-surface",
    ),
]


@pytest.mark.parametrize("surface", SURFACES)
class TestCheckpointedBuilds:
    def test_checkpointed_table_matches_plain(self, surface, tmp_path):
        plain = surface.build(ExperimentContext(**CTX_PARAMS))
        ctx = ExperimentContext(
            **CTX_PARAMS, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        assert surface.values(surface.build(ctx)) == surface.values(plain)
        # Build completed: the checkpoint was cleared.
        assert not list(tmp_path.glob("*.ckpt.json"))

    def test_partial_checkpoint_resumes_without_recompute(
        self, surface, tmp_path
    ):
        # Build once with clearing disabled so the finished checkpoint
        # survives, then rebuild: every cell must come from the file.
        ctx = ExperimentContext(
            **CTX_PARAMS, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        store = ctx.checkpoint_store
        store.clear = lambda *a, **k: None
        reference = surface.build(ctx)
        assert list(tmp_path.glob("*.ckpt.json"))

        resumed_ctx = ExperimentContext(
            **CTX_PARAMS, checkpoint_dir=tmp_path, checkpoint_every=2
        )

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("recomputed despite a full checkpoint")

        analyzer_factory = resumed_ctx.analyzer

        def patched_analyzer(*args, **kwargs):
            analyzer = analyzer_factory(*args, **kwargs)
            setattr(analyzer, surface.batch, boom)
            return analyzer

        resumed_ctx.analyzer = patched_analyzer
        resumed = surface.build(resumed_ctx)
        assert surface.values(resumed) == surface.values(reference)


class TestDiskCache:
    @pytest.mark.parametrize("surface", SURFACES)
    def test_warm_table_equals_cold(self, surface, tmp_path):
        cold = ExperimentContext(**CTX_PARAMS, cache_dir=tmp_path)
        cold_table = surface.build(cold)
        assert cold.result_cache.hits == 0

        warm = ExperimentContext(**CTX_PARAMS, cache_dir=tmp_path)
        warm_table = surface.build(warm)
        assert warm.result_cache.hits >= 2  # criteria + surface
        assert warm_table.diagnostics == cold_table.diagnostics
        assert surface.values(warm_table) == surface.values(cold_table)

    def test_technology_change_invalidates(self, tmp_path):
        base = ExperimentContext(**CTX_PARAMS, cache_dir=tmp_path)
        base.table(0.0)
        tweaked_tech = dataclasses.replace(base.tech, vdd=base.tech.vdd * 1.01)
        tweaked = ExperimentContext(tech=tweaked_tech, **CTX_PARAMS,
                                    cache_dir=tmp_path)
        tweaked.table(0.0)
        assert tweaked.result_cache.hits == 0
        assert tweaked.result_cache.misses >= 2

    def test_criteria_change_invalidates(self, tmp_path):
        params = dict(CTX_PARAMS)
        base = ExperimentContext(**params, cache_dir=tmp_path)
        base.table(0.0)
        params["target"] = 3e-2
        retargeted = ExperimentContext(**params, cache_dir=tmp_path)
        retargeted.table(0.0)
        assert retargeted.result_cache.hits == 0

    def test_cached_criteria_skip_recalibration(self, tmp_path, monkeypatch):
        first = ExperimentContext(**CTX_PARAMS, cache_dir=tmp_path)
        calibrated = first.criteria

        import repro.experiments.context as context_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("calibration ran despite a warm cache")

        monkeypatch.setattr(context_module, "calibrate_criteria", boom)
        second = ExperimentContext(**CTX_PARAMS, cache_dir=tmp_path)
        assert second.criteria == calibrated

    def test_configure_execution_after_creation(self, tmp_path):
        ctx = ExperimentContext(**CTX_PARAMS)
        assert ctx.workers == 1 and ctx.result_cache is None
        ctx.configure_execution(workers=2, cache_dir=tmp_path)
        assert ctx.workers == 2
        ctx.table(0.0)
        assert ctx.result_cache.misses >= 1
        warm = ExperimentContext(**CTX_PARAMS, cache_dir=tmp_path)
        warm.table(0.0)
        assert warm.result_cache.hits >= 2


class TestAdaptiveSweepCache:
    """The fig2c-style adaptive-IS sweep, cold into a cache then warm.

    Checked on the observability counters rather than wall-clock: a
    warm run with ``mc.samples == 0`` did no Monte-Carlo work.
    """

    PARAMS = dict(
        target=1e-4,
        calibration_samples=2_500,
        analysis_samples=384,
        sampler="adaptive-is",
        sampler_scale=None,
        table_grid=5,
        seed=11,
    )
    VBODY_LEVELS = (0.0, 0.3)
    PROBES = (-0.09, -0.03, 0.0, 0.04, 0.09)

    def sweep(self, cache_dir):
        """Build every table with collection on; (tables, metrics)."""
        observability.reset()
        observability.enable()
        try:
            ctx = ExperimentContext(**self.PARAMS, cache_dir=cache_dir)
            tables = [ctx.table(vbody) for vbody in self.VBODY_LEVELS]
            return tables, observability.snapshot()["metrics"]
        finally:
            observability.disable()
            observability.reset()

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("sweep-cache")
        return cache_dir, *self.sweep(cache_dir)

    def test_cold_sweep_spends_at_most_1000_calls_per_estimate(self, cold):
        _, _, metrics = cold
        counters = metrics["counters"]
        assert counters["mc.samples"] > 0
        assert counters["mc.estimates"] > 0
        assert counters["solver.calls"] > 0
        # The legacy fixed-scale sampler needed 1200 solver calls per
        # estimate at this sizing for the same CI width.
        assert metrics["histograms"]["analysis.solver_calls"]["max"] <= 1000
        # Exhausted retries on a healthy, fault-free run would mean the
        # fault-tolerance layer itself regressed.
        assert counters.get("executor.task_failures", 0) == 0

    def test_warm_rerun_recomputes_nothing(self, cold):
        cache_dir, cold_tables, cold_metrics = cold
        warm_tables, metrics = self.sweep(cache_dir)
        counters = metrics["counters"]
        # Criteria plus one table per body-bias level.
        n_artifacts = 1 + len(self.VBODY_LEVELS)
        assert cold_metrics["counters"]["cache.misses"] >= n_artifacts
        assert counters["cache.hits"] >= n_artifacts
        assert counters.get("cache.misses", 0) == 0
        assert counters.get("mc.samples", 0) == 0
        # The entries the cold build just wrote must all verify.
        assert counters.get("cache.quarantined", 0) == 0
        for cold_t, warm_t in zip(cold_tables, warm_tables):
            for probe in self.PROBES:
                assert warm_t.probability(probe) == cold_t.probability(probe)


class TestSurfaceFingerprints:
    """The cache file names of both surfaces, pinned.

    Built from literal criteria (no calibration), so only literal
    inputs enter the keys: a change to how a key is composed renames
    the file, and every cache written before it would miss.
    """

    CRITERIA = FailureCriteria(
        delta_read=0.05, t_write_max=2e-10, i_access_min=2e-5,
        hold_fraction_min=0.9,
    )

    def test_failure_table_file_name(self, tmp_path):
        analyzer = CellFailureAnalyzer(
            predictive_70nm(), self.CRITERIA, n_samples=200, seed=7
        )
        FailureProbabilityTable(
            analyzer, n_grid=4, cache=ResultCache(tmp_path)
        )
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "failure-table-397d7349e625e390cf4d188d.json"
        ]

    def test_hold_surface_file_name(self, tmp_path):
        ctx = ExperimentContext(analysis_samples=200, seed=7, cache_dir=tmp_path)
        ctx._criteria = self.CRITERIA  # literal: nothing is calibrated
        HoldProbabilityTable(
            ctx, corner_grid=np.array([-0.05, 0.05]),
            vsb_grid=np.array([0.0, 0.4]),
        )
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "hold-table-4e19abdd0f982c75df9ca40b.json"
        ]
