"""Tests for ``repro.observability``: metrics, tracing, logs, CLI."""

from __future__ import annotations

import json
import time

import pytest

from repro import observability
from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    incr,
    observe,
)
from repro.observability.tracing import Tracer, trace, tracer
from repro.parallel.executor import ParallelExecutor


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test starts and ends with collection off and empty."""
    observability.disable()
    observability.disable_profiling()
    observability.reset()
    yield
    observability.disable()
    observability.disable_profiling()
    observability.reset()
    # CLI tests raise the repro log level; drop it back to the default.
    observability.configure_logging(verbosity=0)


# ----------------------------------------------------------------------
# Metrics semantics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert registry.counter("x") is counter

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(7.0)
        assert registry.snapshot()["gauges"]["g"] == 7.0

    def test_histogram_summary(self):
        hist = Histogram("h")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)

    def test_histogram_time_context(self):
        hist = Histogram("h")
        with hist.time():
            time.sleep(0.01)
        assert hist.count == 1
        assert hist.max >= 0.01

    def test_histogram_memory_is_bounded(self):
        """A week-long sweep cannot grow the instrument: fixed reservoir."""
        hist = Histogram("h")
        for value in range(10 * Histogram.RESERVOIR_SIZE):
            hist.observe(float(value))
        assert len(hist.samples) == Histogram.RESERVOIR_SIZE
        # Exact streaming stats survive at any volume.
        assert hist.count == 10 * Histogram.RESERVOIR_SIZE
        assert hist.min == 0.0
        assert hist.max == 10 * Histogram.RESERVOIR_SIZE - 1

    def test_histogram_percentiles(self):
        hist = Histogram("h")
        for value in range(100):
            hist.observe(float(value))
        # Below the reservoir cap the quantiles are exact.
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(1.0) == 99.0
        assert hist.percentile(0.5) == pytest.approx(50.0, abs=1.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        assert Histogram("empty").percentile(0.5) is None

    def test_histogram_percentile_degenerate_reservoirs(self):
        # Empty and single-sample reservoirs are explicit guards, not
        # accidents of the interpolation: None before any observation,
        # the lone sample at every q after exactly one.
        empty = Histogram("empty")
        for q in (0.0, 0.5, 0.95, 1.0):
            assert empty.percentile(q) is None
        single = Histogram("single")
        single.observe(3.25)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert single.percentile(q) == 3.25

    def test_histogram_reservoir_estimate_stays_sane(self):
        """Past the cap the reservoir still tracks the distribution."""
        hist = Histogram("h")
        for value in range(10_000):
            hist.observe(float(value))
        assert hist.percentile(0.5) == pytest.approx(5_000, rel=0.15)
        assert hist.percentile(0.95) == pytest.approx(9_500, rel=0.1)

    def test_histogram_merge_carries_reservoir(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in range(50):
            a.histogram("h").observe(float(value))
        for value in range(50, 100):
            b.histogram("h").observe(float(value))
        a.merge(b.snapshot())
        merged = a.histogram("h")
        assert merged.count == 100
        assert merged.mean == pytest.approx(49.5)
        assert merged.percentile(0.5) == pytest.approx(50.0, abs=2.0)
        snap = a.snapshot()["histograms"]["h"]
        assert snap["p50"] is not None and snap["p95"] is not None

    def test_histogram_merge_tolerates_reservoirless_summary(self):
        """Snapshots from older writers (no reservoir key) still merge."""
        hist = Histogram("h")
        hist.merge_summary(
            {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}
        )
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.samples == []

    def test_name_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_merge_accumulates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.histogram("h").observe(5.0)
        b.gauge("g").set(4.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5.0
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["gauges"]["g"] == 4.0

    def test_guarded_helpers_respect_switch(self):
        incr("off.counter")
        observe("off.hist", 1.0)
        assert observability.registry.snapshot()["counters"] == {}
        observability.enable()
        incr("on.counter", 2)
        assert (
            observability.registry.snapshot()["counters"]["on.counter"] == 2.0
        )


# ----------------------------------------------------------------------
# Trace tree
# ----------------------------------------------------------------------
class TestTrace:
    def test_nesting_and_aggregation(self):
        observability.enable()
        with trace("outer"):
            for _ in range(3):
                with trace("inner"):
                    pass
        tree = tracer.snapshot()
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert outer["calls"] == 1
        (inner,) = outer["children"]
        assert inner["name"] == "inner"
        assert inner["calls"] == 3
        assert inner["seconds"] <= outer["seconds"]

    def test_decorator_form(self):
        observability.enable()

        @trace("worked")
        def job(x):
            return x * 2

        assert job(21) == 42
        (node,) = tracer.snapshot()["children"]
        assert node["name"] == "worked"
        assert node["calls"] == 1

    def test_disabled_records_nothing(self):
        with trace("ghost"):
            pass

        @trace("ghost2")
        def job():
            return 1

        job()
        assert tracer.snapshot()["children"] == []

    def test_exception_still_pops(self):
        observability.enable()
        with pytest.raises(RuntimeError):
            with trace("boom"):
                raise RuntimeError("x")
        # The stack is balanced: a sibling span lands at the same depth.
        with trace("after"):
            pass
        names = {c["name"] for c in tracer.snapshot()["children"]}
        assert names == {"boom", "after"}

    def test_merge_grafts_under_current(self):
        observability.enable()
        remote = Tracer()
        remote.push("task")
        remote.pop(1.5)
        with trace("fanout"):
            tracer.merge_at_current(remote.snapshot())
        (fanout,) = tracer.snapshot()["children"]
        (task,) = fanout["children"]
        assert task["name"] == "task"
        assert task["seconds"] == pytest.approx(1.5)

    def test_merge_outside_any_span_grafts_at_root(self):
        """A worker snapshot merged from a bare call site must not
        raise — it lands at the top of the tree."""
        observability.enable()
        remote = Tracer()
        remote.push("task")
        remote.pop(0.5)
        tracer.merge_at_current(remote.snapshot())  # no open trace(...)
        (task,) = tracer.snapshot()["children"]
        assert task["name"] == "task"
        assert task["calls"] == 1

    def test_merge_tolerates_childless_snapshot(self):
        observability.enable()
        tracer.merge_at_current({"name": "run", "calls": 0, "seconds": 0.0})
        assert tracer.snapshot()["children"] == []

    def test_exception_path_closes_span_then_merges_at_root(self):
        """Regression: after an exception unwinds an open span, the
        stack is back at the root and a worker merge grafts there, not
        under the dead span."""
        observability.enable()
        with pytest.raises(ValueError):
            with trace("doomed"):
                raise ValueError("boom")
        remote = Tracer()
        remote.push("late.task")
        remote.pop(0.25)
        tracer.merge_at_current(remote.snapshot())
        children = {c["name"]: c for c in tracer.snapshot()["children"]}
        assert set(children) == {"doomed", "late.task"}
        assert children["doomed"]["children"] == []  # nothing grafted inside

    def test_pop_underflow_still_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().pop(0.1)


# ----------------------------------------------------------------------
# Cross-process merging through ParallelExecutor
# ----------------------------------------------------------------------
def _instrumented_square(task: int) -> int:
    incr("square.calls")
    with trace("square"):
        return task * task


class TestWorkerMerge:
    def test_counters_and_spans_cross_the_pool(self):
        observability.enable()
        executor = ParallelExecutor(workers=2)
        with trace("sweep"):
            results = executor.map(_instrumented_square, list(range(6)))
        assert results == [0, 1, 4, 9, 16, 25]
        counters = observability.registry.snapshot()["counters"]
        assert counters["square.calls"] == 6.0
        (sweep,) = tracer.snapshot()["children"]
        square = {c["name"]: c for c in sweep["children"]}["square"]
        assert square["calls"] == 6

    def test_serial_path_equivalent(self):
        observability.enable()
        with trace("sweep"):
            ParallelExecutor(workers=1).map(_instrumented_square, range(6))
        counters = observability.registry.snapshot()["counters"]
        assert counters["square.calls"] == 6.0

    def test_disabled_parallel_map_unchanged(self):
        executor = ParallelExecutor(workers=2)
        assert executor.map(_instrumented_square, [2, 3]) == [4, 9]
        assert observability.registry.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# CLI round-trip
# ----------------------------------------------------------------------
class TestMetricsOut:
    def test_fast_cli_run_writes_valid_report(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.__main__ as cli
        from repro.experiments.context import ExperimentContext

        monkeypatch.setattr(
            cli, "_fast_context",
            lambda: ExperimentContext(
                target=1e-2, calibration_samples=2_000,
                analysis_samples=1_000, table_grid=5, seed=99,
            ),
        )
        out_file = tmp_path / "metrics.json"
        profile_file = tmp_path / "fig2a.pstats"
        assert main_ok(cli, ["fig2a", "--fast", "-v",
                             "--metrics-out", str(out_file),
                             "--profile-out", str(profile_file)])
        report = json.loads(out_file.read_text())
        assert report["schema"] == observability.SCHEMA
        assert report["experiment"] == "fig2a"
        assert report["invocation"]["fast"] is True
        # The meta block makes the stored report self-describing
        # (additive under repro.telemetry/1).
        meta = report["meta"]
        assert meta["seed"] == 99
        assert meta["workers"] == 1
        for key in ("git_sha", "python", "numpy", "platform", "cpu_count"):
            assert key in meta
        # --profile-out produced a pstats-loadable per-span profile.
        import pstats

        stats = pstats.Stats(str(profile_file))
        assert stats.total_calls > 0
        counters = report["metrics"]["counters"]
        # Monte-Carlo volume and cache counters are always present.
        assert counters["mc.samples"] > 0
        assert counters["mc.estimates"] > 0
        assert "cache.hits" in counters
        assert "cache.misses" in counters
        # Per-stage wall-time spans: the experiment root and its stages.
        (root,) = report["trace"]["children"]
        assert root["name"] == "fig2a"
        stages = {c["name"] for c in root["children"]}
        assert "criteria.calibrate" in stages
        assert "table.build" in stages

    def test_report_round_trips_with_cache(self, tmp_path, monkeypatch):
        import repro.experiments.__main__ as cli
        from repro.experiments.context import ExperimentContext

        monkeypatch.setattr(
            cli, "_fast_context",
            lambda: ExperimentContext(
                target=1e-2, calibration_samples=2_000,
                analysis_samples=1_000, table_grid=5, seed=99,
            ),
        )
        cache_dir = tmp_path / "cache"
        reports = []
        for name in ("cold.json", "warm.json"):
            out = tmp_path / name
            assert main_ok(cli, [
                "fig2a", "--fast", "--cache-dir", str(cache_dir),
                "--metrics-out", str(out),
            ])
            observability.reset()
            reports.append(json.loads(out.read_text()))
        cold, warm = reports
        assert cold["metrics"]["counters"]["cache.misses"] >= 2
        assert warm["metrics"]["counters"]["cache.hits"] >= 2
        assert warm["metrics"]["counters"]["cache.misses"] == 0
        assert warm["metrics"]["counters"]["mc.samples"] == 0


def main_ok(cli, argv) -> bool:
    return cli.main(argv) == 0


class TestProfileSmoke:
    def test_profile_writes_loadable_stats(self, tmp_path):
        import pstats

        observability.enable()
        observability.enable_profiling()
        with observability.profile("zone"):
            sum(i * i for i in range(20_000))
        out = tmp_path / "zone.pstats"
        assert observability.write_profile(str(out)) == ["zone"]
        assert out.stat().st_size > 0
        assert pstats.Stats(str(out)).total_calls > 0

    def test_write_without_data_raises(self, tmp_path):
        with pytest.raises(ValueError):
            observability.write_profile(str(tmp_path / "empty.pstats"))


# ----------------------------------------------------------------------
# No-op mode stays free
# ----------------------------------------------------------------------
class TestNoOpOverhead:
    def test_disabled_instruments_leave_no_state(self):
        incr("a")
        observe("b", 1.0)
        with trace("c"):
            pass
        assert observability.registry.snapshot()["counters"] == {}
        assert tracer.snapshot()["children"] == []

    def test_disabled_overhead_is_negligible(self):
        """Guarded calls must stay within an absolute budget.

        100k disabled ``incr`` + ``trace`` pairs complete in well under
        a second on any hardware (measured ~30 ms); the generous bound
        only trips if someone removes the no-op fast path entirely.
        """
        start = time.perf_counter()
        for _ in range(100_000):
            incr("hot.counter")
        incr_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10_000):
            with trace("hot.span"):
                pass
        trace_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10_000):
            with observability.profile("hot.profile"):
                pass
        profile_elapsed = time.perf_counter() - start
        assert incr_elapsed < 1.0, f"disabled incr too slow: {incr_elapsed:.3f}s"
        assert trace_elapsed < 1.0, f"disabled trace too slow: {trace_elapsed:.3f}s"
        assert profile_elapsed < 1.0, (
            f"disabled profile too slow: {profile_elapsed:.3f}s"
        )
        assert observability.registry.snapshot()["counters"] == {}
        assert observability.profile_names() == []

    def test_profile_without_arming_is_just_a_span(self):
        """Telemetry on, profiling not armed: profile == trace."""
        observability.enable()
        with observability.profile("stage"):
            pass
        (node,) = observability.tracer.snapshot()["children"]
        assert node["name"] == "stage"
        assert observability.profile_names() == []


# ----------------------------------------------------------------------
# Docs stay in sync with the registry
# ----------------------------------------------------------------------
class TestExperimentsDoc:
    def test_docs_experiments_md_matches_registry(self):
        import pathlib

        from repro.experiments.registry import render_markdown

        doc = pathlib.Path(__file__).resolve().parents[1] / "docs" / "experiments.md"
        assert doc.exists(), "docs/experiments.md is missing"
        assert render_markdown() in doc.read_text(), (
            "docs/experiments.md is stale — regenerate the table with "
            "`PYTHONPATH=src python -m repro.experiments --doc`"
        )
