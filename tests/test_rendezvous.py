"""Batched estimates: bit-identical to pointwise, bounded in rows,
serial-shaped and live telemetry, and no hang or leaked thread when an
estimate or a shared solve fails.

A batch call of :class:`CellFailureAnalyzer` runs its estimates stage by
stage together (:mod:`repro.failures.rendezvous`), so every comparison
here is exact ``==`` against a loop of pointwise calls.
"""

from __future__ import annotations

import contextvars
import sys
import threading

import numpy as np

import pytest

from repro import observability
from repro.checkpoint import CheckpointStore
from repro.core.tables import FailureProbabilityTable
from repro.failures import analysis, rendezvous
from repro.failures.analysis import CellFailureAnalyzer
from repro.observability import RunContext, trace
from repro.parallel.executor import ParallelExecutor
from repro.sram.metrics import OperatingConditions
from repro.technology.corners import ProcessCorner


class Boom(RuntimeError):
    pass


MECHANISMS = ("read", "write", "access", "hold", "any")
CORNERS = [ProcessCorner(x) for x in (-0.04, 0.0, 0.04, 0.02)]


def _analyzer(tech, criteria, sampler: str) -> CellFailureAnalyzer:
    return CellFailureAnalyzer(
        tech, criteria, n_samples=300, scale=None, seed=31, sampler=sampler
    )


def _cell_values(results) -> list:
    return [
        (probs[m].estimate, probs[m].stderr) for probs in results for m in MECHANISMS
    ]


def _hold_values(results) -> list:
    return [(result.estimate, result.stderr) for result in results]


def _body_biases(tech) -> list:
    nominal = OperatingConditions.nominal(tech)
    rbb = nominal.with_body_bias(-0.2)
    return [rbb, nominal, rbb, nominal]


def _source_biases(tech) -> list:
    low, high = (
        OperatingConditions.source_biased_standby(tech, vsb) for vsb in (0.0, 0.5)
    )
    return [low, high, high, low]


@pytest.fixture(scope="module", params=["adaptive-is", "blockade", "scaled"])
def strategy(request, tech, fast_criteria):
    """An analyzer per strategy sampler (``scaled`` auto-tuned)."""
    return _analyzer(tech, fast_criteria, request.param)


@pytest.fixture(scope="module")
def adaptive(tech, fast_criteria):
    return _analyzer(tech, fast_criteria, "adaptive-is")


@pytest.fixture()
def metrics_on():
    observability.reset()
    observability.enable()
    yield
    observability.disable()
    observability.reset()


class TestBatchIsPointwise:
    def test_cell_batch_mixed_body_bias(self, strategy, tech):
        conditions = _body_biases(tech)
        batch = strategy.failure_probabilities_batch(CORNERS, conditions)
        pointwise = [
            strategy.failure_probabilities(c, k) for c, k in zip(CORNERS, conditions)
        ]
        assert _cell_values(batch) == _cell_values(pointwise)

    def test_hold_batch_mixed_source_bias(self, strategy, tech):
        conditions = _source_biases(tech)
        batch = strategy.hold_failure_probability_batch(CORNERS, conditions)
        pointwise = [
            strategy.hold_failure_probability(c, k)
            for c, k in zip(CORNERS, conditions)
        ]
        assert _hold_values(batch) == _hold_values(pointwise)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_executor(self, adaptive, tech, workers):
        executor = ParallelExecutor(workers)
        cell_conditions = _body_biases(tech)
        hold_conditions = _source_biases(tech)
        cell = adaptive.failure_probabilities_batch(
            CORNERS, cell_conditions, executor=executor
        )
        hold = adaptive.hold_failure_probability_batch(
            CORNERS, hold_conditions, executor=executor
        )
        assert _cell_values(cell) == _cell_values([
            adaptive.failure_probabilities(c, k)
            for c, k in zip(CORNERS, cell_conditions)
        ])
        assert _hold_values(hold) == _hold_values([
            adaptive.hold_failure_probability(c, k)
            for c, k in zip(CORNERS, hold_conditions)
        ])

    def test_checkpointed_build_resumed_after_one_slice(
        self, adaptive, tmp_path, monkeypatch
    ):
        fresh = FailureProbabilityTable(adaptive, n_grid=5)
        calls = []
        original = CellFailureAnalyzer.failure_probabilities_batch

        def interrupted(self, corners, *args, **kwargs):
            calls.append(len(corners))
            if len(calls) == 2:
                raise Boom("killed after one slice")
            return original(self, corners, *args, **kwargs)

        store = CheckpointStore(tmp_path, every=2)
        monkeypatch.setattr(
            CellFailureAnalyzer, "failure_probabilities_batch", interrupted
        )
        with pytest.raises(Boom):
            FailureProbabilityTable(adaptive, n_grid=5, checkpoint=store)
        monkeypatch.undo()
        resumed = FailureProbabilityTable(adaptive, n_grid=5, checkpoint=store)
        assert calls == [2, 2]
        for mechanism in MECHANISMS:
            assert list(resumed.series(resumed.grid, mechanism)) == list(
                fresh.series(fresh.grid, mechanism)
            )


def _live_estimates() -> int:
    return sum(
        thread.name.startswith("repro-estimate-") for thread in threading.enumerate()
    )


class TestRowLimit:
    def test_width_follows_the_budget(self):
        width = analysis._rendezvous_width
        chunk = analysis.SOLVE_CHUNK
        assert width(256) == chunk // 256 == 64
        assert width(300) == chunk // 300
        assert width(chunk // 2) == 2
        assert width(chunk // 2 + 1) == 1
        assert width(chunk) == width(1_000_000) == 1
        assert width(1) == analysis.MAX_RENDEZVOUS

    def test_batch_runs_at_most_one_chunk_of_estimates_at_once(
        self, adaptive, tech, monkeypatch
    ):
        """With room for two estimates per solver chunk, a 4-point batch
        is two rendezvous of two, and never more than two estimates are
        alive at any solve."""
        conditions = _source_biases(tech)
        pointwise = [
            adaptive.hold_failure_probability(c, k) for c, k in zip(CORNERS, conditions)
        ]
        widths, alive = [], []
        run = rendezvous.run
        original = analysis.compute_hold_margin

        def counted_run(jobs):
            widths.append(len(jobs))
            return run(jobs)

        def hold_margin(cell, conditions):
            alive.append(_live_estimates())
            return original(cell, conditions)

        monkeypatch.setattr(analysis, "SOLVE_CHUNK", 2 * adaptive.n_samples)
        monkeypatch.setattr(rendezvous, "run", counted_run)
        monkeypatch.setattr(analysis, "compute_hold_margin", hold_margin)
        batch = adaptive.hold_failure_probability_batch(CORNERS, conditions)
        assert _hold_values(batch) == _hold_values(pointwise)
        assert widths == [2, 2]
        assert alive and max(alive) == 2

    def test_budget_of_a_chunk_runs_pointwise(self, adaptive, tech, monkeypatch):
        conditions = _source_biases(tech)
        pointwise = [
            adaptive.hold_failure_probability(c, k) for c, k in zip(CORNERS, conditions)
        ]

        def no_rendezvous(jobs):
            raise AssertionError("a rendezvous at a budget of a whole chunk")

        monkeypatch.setattr(analysis, "SOLVE_CHUNK", adaptive.n_samples)
        monkeypatch.setattr(rendezvous, "run", no_rendezvous)
        batch = adaptive.hold_failure_probability_batch(CORNERS, conditions)
        assert _hold_values(batch) == _hold_values(pointwise)


def _tree_child(node: dict, name: str) -> dict:
    matches = [child for child in node["children"] if child["name"] == name]
    assert len(matches) == 1, [child["name"] for child in node["children"]]
    return matches[0]


class TestTelemetryIsSerialShaped:
    def _run(self, work) -> dict:
        with RunContext("rendezvous-test") as scope:
            with trace("site"):
                work()
        return scope.snapshot()

    def test_batch_matches_a_loop_of_point_calls(self, adaptive, metrics_on):
        adaptive._direction_seeds(adaptive.conditions)  # warm, outside both runs
        batch = self._run(lambda: adaptive.failure_probabilities_batch(CORNERS))
        loop = self._run(
            lambda: [adaptive.failure_probabilities(c) for c in CORNERS]
        )
        batch_counters = batch["metrics"]["counters"]
        loop_counters = loop["metrics"]["counters"]
        for name in ("mc.samples", "mc.estimates", "solver.calls"):
            assert batch_counters[name] == loop_counters[name] > 0, name
        sampling = [name for name in loop_counters if name.startswith("sampling.")]
        assert sampling
        for name in sampling:
            assert batch_counters[name] == loop_counters[name], name
        # Only the number of solver calls may differ: that is the point.
        assert batch_counters["solver.batches"] < loop_counters["solver.batches"]
        assert batch["metrics"]["histograms"] == loop["metrics"]["histograms"]
        assert batch["metrics"]["gauges"] == loop["metrics"]["gauges"]
        assert batch["diagnostics"] == loop["diagnostics"]

        for snapshot in (batch, loop):
            site = _tree_child(snapshot["trace"], "site")
            assert [child["name"] for child in site["children"]] == ["analysis.point"]
            point = site["children"][0]
            assert point["calls"] == len(CORNERS)
            assert [child["name"] for child in point["children"]] == ["solve"]
            assert point["children"][0]["calls"] == 2 * len(CORNERS)
            assert point["children"][0]["children"] == []


class TestLiveTelemetry:
    def test_finished_estimates_merge_before_each_solve(self, metrics_on):
        """Job ``i`` solves ``i + 1`` stages, so before flush ``k`` jobs
        ``0 .. k-1`` have finished: a live reader sees them counted."""
        seen = []

        def solver(shift, z):
            seen.append(scope.counter_value("live.done"))
            return {"x": shift + z.sum(axis=1)}

        def job(index: int) -> None:
            for _ in range(index + 1):
                rendezvous.solve("key", solver, np.zeros(1), np.zeros((1, 2)))
            observability.incr("live.done")

        with RunContext("live") as scope:
            rendezvous.run([lambda i=i: job(i) for i in range(4)])
            assert scope.counter_value("live.done") == 4
        assert seen == [0, 1, 2, 3]

    def test_mc_estimates_rise_during_a_batch(
        self, adaptive, tech, monkeypatch, metrics_on
    ):
        """What the service's job progress reads: ``mc.estimates`` in the
        job's scope rises while one batch call runs."""
        seen = []
        original = analysis.compute_hold_margin

        def hold_margin(cell, conditions):
            seen.append(scope.counter_value("mc.estimates"))
            return original(cell, conditions)

        monkeypatch.setattr(analysis, "SOLVE_CHUNK", 2 * adaptive.n_samples)
        monkeypatch.setattr(analysis, "compute_hold_margin", hold_margin)
        with RunContext("progress") as scope:
            adaptive.hold_failure_probability_batch(CORNERS, _source_biases(tech))
            assert scope.counter_value("mc.estimates") == len(CORNERS)
        # Two rendezvous of two points: pilots, then main stages, at
        # each of the two source biases.
        assert seen == [0, 0, 0, 0, 2, 2, 2, 2]

    def test_every_solve_runs_inside_an_estimate_on_its_thread(
        self, adaptive, tech, monkeypatch
    ):
        """A profiler that counts per thread (cells solved during each
        estimate call on the caller's thread) still finds every cell."""
        local = threading.local()
        solved, attributed = [], []
        original_margin = analysis.compute_hold_margin
        original_point = CellFailureAnalyzer.hold_failure_probability

        def hold_margin(cell, conditions):
            local.cells = getattr(local, "cells", 0) + cell.population
            solved.append(cell.population)
            return original_margin(cell, conditions)

        def point(self, corner, conditions=None):
            before = getattr(local, "cells", 0)
            result = original_point(self, corner, conditions)
            attributed.append(getattr(local, "cells", 0) - before)
            return result

        monkeypatch.setattr(analysis, "compute_hold_margin", hold_margin)
        monkeypatch.setattr(CellFailureAnalyzer, "hold_failure_probability", point)
        adaptive.hold_failure_probability_batch(CORNERS, _source_biases(tech))
        assert len(attributed) == len(CORNERS)
        assert sum(attributed) == sum(solved) == len(CORNERS) * adaptive.n_samples


def _bounded(call, timeout: float = 120.0) -> dict:
    """Run ``call`` on a watchdog thread, in this thread's context; fail
    rather than hang."""
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["result"] = call()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            outcome["error"] = exc

    thread = threading.Thread(
        target=contextvars.copy_context().run, args=(target,), daemon=True
    )
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the batch call hung"
    return outcome


class TestFailure:
    def test_estimate_raising_in_its_main_stage(self, adaptive, monkeypatch):
        original = analysis._Problem.margins
        stages: dict[float, int] = {}

        def margins(self, z):
            corner = self._corner.dvt_inter
            stages[corner] = stages.get(corner, 0) + 1
            if corner == 0.04 and stages[corner] == 2:
                raise Boom("main stage")
            return original(self, z)

        monkeypatch.setattr(analysis._Problem, "margins", margins)
        before = threading.active_count()
        outcome = _bounded(lambda: adaptive.failure_probabilities_batch(CORNERS))
        assert isinstance(outcome.get("error"), Boom)
        assert threading.active_count() == before
        # The other estimates ran to the end: two stages each.
        assert stages == {c.dvt_inter: 2 for c in CORNERS}

    def test_raising_solve_fails_its_group(self, adaptive, tech, monkeypatch):
        original = analysis.compute_hold_margin
        failing_vsb = 0.5

        def hold_margin(cell, conditions):
            if conditions.vsb == failing_vsb:
                raise Boom("shared solve")
            return original(cell, conditions)

        monkeypatch.setattr(analysis, "compute_hold_margin", hold_margin)
        before = threading.active_count()
        outcome = _bounded(
            lambda: adaptive.hold_failure_probability_batch(
                CORNERS, _source_biases(tech)
            )
        )
        assert isinstance(outcome.get("error"), Boom)
        assert threading.active_count() == before


class TestRendezvousStress:
    def test_many_estimates_under_fast_switching(self, metrics_on):
        """16 estimates (more than cores) of 3 stages over 3 keys, with the
        interpreter switching threads every microsecond: each flush must
        solve every parked row once per key, and no telemetry is lost."""
        solves = []

        def solver(shift, z):
            solves.append(z.shape[0])
            return {"x": shift + z.sum(axis=1)}

        def job(index: int):
            outputs = []
            for stage in range(3):
                z = np.full((index + 1, 2), float(stage))
                shift = np.full(index + 1, float(index))
                outputs.append(rendezvous.solve(index % 3, solver, shift, z)["x"])
                observability.incr("stress.stages")
            return outputs

        jobs = [lambda i=i: job(i) for i in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RunContext("stress") as scope:
                outcome = _bounded(lambda: rendezvous.run(jobs))
        finally:
            sys.setswitchinterval(interval)
        assert "error" not in outcome, outcome.get("error")
        for index, outputs in enumerate(outcome["result"]):
            for stage, values in enumerate(outputs):
                assert list(values) == [index + 2.0 * stage] * (index + 1)
        # One solve per (stage, key): every estimate parked before a flush.
        assert len(solves) == 3 * 3
        assert sum(solves) == 3 * sum(range(1, 17))
        assert scope.counter_value("stress.stages") == 16 * 3
