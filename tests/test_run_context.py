"""Tests for run-scoped telemetry (``repro.observability.context``).

Covers the :class:`RunScope` / :class:`RunContext` attribution layer:
dual-write into the ambient scope alongside the global registry, span
mirroring, thread isolation between concurrent scopes, run-id
propagation across the :class:`ParallelExecutor` pool boundary, run-id
stamping on structured log events, and the ``HumanFormatter`` k=v
quoting the stamped lines rely on.
"""

from __future__ import annotations

import io
import json
import logging
import sys
import threading

import pytest

from repro import observability
from repro.observability import context, log
from repro.observability.context import RunContext, RunScope
from repro.observability.log import HumanFormatter, get_logger
from repro.observability.metrics import incr, observe, set_gauge
from repro.observability.tracing import trace
from repro.parallel.executor import ParallelExecutor


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test starts and ends with collection off, empty, unscoped."""
    observability.disable()
    observability.reset()
    context.name_root(None)
    yield
    context.name_root(None)
    observability.disable()
    observability.reset()
    observability.configure_logging(verbosity=0)


# ----------------------------------------------------------------------
# RunScope / RunContext semantics
# ----------------------------------------------------------------------
class TestRunScope:
    def test_requires_nonempty_run_id(self):
        for bad in ("", "   ", None, 7):
            with pytest.raises((ValueError, TypeError)):
                RunScope(bad)

    def test_snapshot_shape(self):
        scope = RunScope("r1")
        snap = scope.snapshot()
        assert snap["schema"] == observability.SCHEMA
        assert snap["run_id"] == "r1"
        assert set(snap) >= {"schema", "run_id", "metrics", "trace",
                             "diagnostics"}
        assert snap["metrics"]["counters"] == {}

    def test_counter_value_reads_without_creating(self):
        scope = RunScope("r1")
        assert scope.counter_value("never.written") == 0.0
        assert scope.registry.snapshot()["counters"] == {}
        scope.registry.counter("x").inc(3.0)
        assert scope.counter_value("x") == 3.0


class TestDualWrite:
    def test_metrics_land_in_scope_and_global(self):
        observability.enable()
        with RunContext("r1") as scope:
            incr("mc.samples", 100)
            set_gauge("depth", 4.0)
            observe("latency", 0.5)
        scoped = scope.snapshot()["metrics"]
        assert scoped["counters"]["mc.samples"] == 100.0
        assert scoped["gauges"]["depth"] == 4.0
        assert scoped["histograms"]["latency"]["count"] == 1
        # The global registry saw the very same instrument writes.
        top = observability.registry.snapshot()
        assert top["counters"]["mc.samples"] == 100.0
        assert top["gauges"]["depth"] == 4.0

    def test_no_scope_means_global_only(self):
        observability.enable()
        incr("mc.samples", 7)
        assert observability.registry.snapshot()["counters"][
            "mc.samples"
        ] == 7.0
        assert context.current_scope() is None

    def test_disabled_collection_writes_nowhere(self):
        with RunContext("r1") as scope:
            incr("mc.samples", 5)
        assert scope.snapshot()["metrics"]["counters"] == {}
        assert observability.registry.snapshot()["counters"] == {}

    def test_nested_scope_shadows_outer(self):
        observability.enable()
        with RunContext("outer") as outer:
            incr("k", 1)
            with RunContext("inner") as inner:
                assert context.current_run_id() == "inner"
                incr("k", 10)
            assert context.current_run_id() == "outer"
            incr("k", 100)
        assert outer.counter_value("k") == 101.0
        assert inner.counter_value("k") == 10.0
        assert observability.registry.snapshot()["counters"]["k"] == 111.0

    def test_exit_restores_previous_scope(self):
        with RunContext("a"):
            with RunContext("b"):
                pass
            assert context.current_run_id() == "a"
        assert context.current_run_id() is None

    def test_spans_mirror_into_the_scope(self):
        observability.enable()
        with RunContext("r1") as scope:
            with trace("build"):
                with trace("solve"):
                    pass
                with trace("solve"):
                    pass
        (build,) = scope.tracer.snapshot()["children"]
        assert build["name"] == "build"
        (solve,) = build["children"]
        assert solve["calls"] == 2
        assert solve["seconds"] <= build["seconds"]
        # Global tree has the identical subtree — same call counts.
        (gbuild,) = observability.tracer.snapshot()["children"]
        assert gbuild["children"][0]["calls"] == 2

    def test_decorator_form_mirrors_too(self):
        observability.enable()

        @trace("fn")
        def fn():
            return 42

        with RunContext("r1") as scope:
            assert fn() == 42
        (span,) = scope.tracer.snapshot()["children"]
        assert span["name"] == "fn"
        assert span["calls"] == 1


class TestThreadIsolation:
    def test_concurrent_scopes_attribute_disjointly(self):
        observability.enable()
        scopes: dict[str, RunScope] = {}
        barrier = threading.Barrier(2)

        def work(run_id: str, amount: int) -> None:
            with RunContext(run_id) as scope:
                scopes[run_id] = scope
                barrier.wait(timeout=10)
                for _ in range(amount):
                    incr("work.units")
                barrier.wait(timeout=10)

        threads = [
            threading.Thread(target=work, args=("job-a", 30)),
            threading.Thread(target=work, args=("job-b", 50)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert scopes["job-a"].counter_value("work.units") == 30.0
        assert scopes["job-b"].counter_value("work.units") == 50.0
        # The main thread never saw either scope.
        assert context.current_scope() is None

    def test_process_tree_is_the_disjoint_union_of_scope_trees(self):
        # Two jobs with nested spans, held open at the same time: the
        # process tree must hold each job's own subtree, calls and
        # seconds unchanged — never one job's span under the other's.
        observability.enable()
        scopes: dict[str, RunScope] = {}
        barrier = threading.Barrier(2)

        def work(name: str) -> None:
            with RunContext(f"job-{name}") as scope:
                scopes[name] = scope
                with trace(f"job.{name}"):
                    barrier.wait(timeout=10)  # both outer spans open
                    with trace(f"{name}.solve"):
                        barrier.wait(timeout=10)  # both inner spans open
                    barrier.wait(timeout=10)

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        expected = sorted(
            scopes["a"].tracer.snapshot()["children"]
            + scopes["b"].tracer.snapshot()["children"],
            key=lambda node: node["name"],
        )
        assert [node["name"] for node in expected] == ["job.a", "job.b"]
        assert [c["name"] for c in expected[0]["children"]] == ["a.solve"]
        assert observability.snapshot()["trace"]["children"] == expected

    def test_scope_does_not_leak_into_new_threads(self):
        observability.enable()
        seen: list[str | None] = []
        with RunContext("r1"):
            thread = threading.Thread(
                target=lambda: seen.append(context.current_run_id())
            )
            thread.start()
            thread.join(timeout=10)
        # A new thread starts on a fresh contextvars context, so it does
        # NOT inherit the creator's scope — propagation is explicit
        # (RunContext in the thread body, or the executor payload).
        assert seen == [None]


class TestScopeExit:
    def test_polls_never_see_an_exiting_scope_missing_or_doubled(self):
        # A scope's counters count once in the process totals from the
        # first write on: while it is active (root + active) and after
        # its exit merged it into the root — never zero or twice while
        # the exit is under way.  A tiny switch interval makes the
        # poller interleave with each exit.
        observability.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(60):
                name = f"exit.round{k}"
                values: list = []
                polling, stop = threading.Event(), threading.Event()

                def poll() -> None:
                    while not stop.is_set():
                        counters = observability.snapshot()["metrics"]["counters"]
                        values.append(counters.get(name))
                        polling.set()

                with RunContext(f"r{k}"):
                    incr(name, 5)
                    for j in range(1000):  # a fold long enough to poll into
                        incr(f"exit.pad{j}")
                    poller = threading.Thread(target=poll)
                    poller.start()
                    assert polling.wait(timeout=10)
                polled = len(values)
                while len(values) < polled + 3 and poller.is_alive():
                    stop.wait(0.0005)
                stop.set()
                poller.join(timeout=10)
                assert not poller.is_alive()
                assert set(values) == {5.0}, (k, sorted(set(map(str, values))))
        finally:
            sys.setswitchinterval(interval)

    def test_entering_an_active_scope_raises(self):
        observability.enable()
        scope = RunScope("r1")
        with RunContext(scope=scope):
            incr("k", 1)
            with pytest.raises(RuntimeError):
                with RunContext(scope=scope):
                    incr("k", 100)
            assert context.current_scope() is scope
        # Merged exactly once, and a spent scope cannot run again.
        assert observability.snapshot()["metrics"]["counters"]["k"] == 1.0
        with pytest.raises(RuntimeError):
            with RunContext(scope=scope):
                pass
        assert observability.snapshot()["metrics"]["counters"]["k"] == 1.0


# ----------------------------------------------------------------------
# Propagation across the ParallelExecutor pool boundary
# ----------------------------------------------------------------------
def _scoped_square(task: int) -> int:
    incr("square.calls")
    assert context.current_run_id() == "pool-run"
    with trace("square"):
        return task * task


def _tagged_call(task: int) -> str | None:
    return context.current_run_id()


class TestExecutorPropagation:
    def test_workers_inherit_run_id_and_merge_into_scope(self):
        observability.enable()
        with RunContext("pool-run") as scope:
            with trace("sweep"):
                results = ParallelExecutor(workers=2).map(
                    _scoped_square, list(range(6))
                )
        assert results == [0, 1, 4, 9, 16, 25]
        # Worker-side writes were merged back into the run scope, under
        # the span that was open at merge time.
        assert scope.counter_value("square.calls") == 6.0
        (sweep,) = scope.tracer.snapshot()["children"]
        square = {c["name"]: c for c in sweep["children"]}["square"]
        assert square["calls"] == 6
        # And into the global registry, as before.
        counters = observability.registry.snapshot()["counters"]
        assert counters["square.calls"] == 6.0

    def test_uncollected_map_still_propagates_run_id(self):
        # Collection off: workers skip snapshotting but still see the id
        # (log correlation must survive --log-json without --metrics-out).
        with RunContext("pool-run"):
            seen = ParallelExecutor(workers=2).map(_tagged_call, range(4))
        assert seen == ["pool-run"] * 4

    def test_serial_map_runs_in_the_callers_scope(self):
        observability.enable()
        with RunContext("pool-run") as scope:
            ParallelExecutor(workers=1).map(_scoped_square, range(3))
        assert scope.counter_value("square.calls") == 3.0

    def test_no_scope_means_workers_unscoped(self):
        observability.enable()
        seen = ParallelExecutor(workers=2).map(_tagged_call, range(4))
        assert seen == [None] * 4


# ----------------------------------------------------------------------
# Log stamping + HumanFormatter quoting
# ----------------------------------------------------------------------
def _capture_line(json_lines: bool, emit) -> str:
    stream = io.StringIO()
    log.configure(verbosity=1, json_lines=json_lines, stream=stream)
    try:
        emit(get_logger("test"))
    finally:
        log.configure(verbosity=0)
    lines = [l for l in stream.getvalue().splitlines() if l]
    assert len(lines) == 1, lines
    return lines[0]


class TestLogRunIdStamping:
    def test_json_events_carry_ambient_run_id(self):
        with RunContext("smoke"):
            line = _capture_line(
                True, lambda lg: lg.info("evt", grid=5)
            )
        payload = json.loads(line)
        assert payload["run_id"] == "smoke"
        assert payload["event"] == "evt"
        assert payload["grid"] == 5

    def test_human_line_leads_with_run_id(self):
        with RunContext("smoke"):
            line = _capture_line(
                False, lambda lg: lg.info("evt", grid=5)
            )
        assert " evt run_id=smoke grid=5" in line

    def test_explicit_run_id_field_wins(self):
        with RunContext("ambient"):
            line = _capture_line(
                True, lambda lg: lg.info("evt", run_id="mine")
            )
        assert json.loads(line)["run_id"] == "mine"

    def test_stamping_works_with_metrics_off(self):
        assert not observability.enabled()
        with RunContext("smoke"):
            line = _capture_line(True, lambda lg: lg.info("evt"))
        assert json.loads(line)["run_id"] == "smoke"

    def test_no_scope_means_no_run_id_key(self):
        line = _capture_line(True, lambda lg: lg.info("evt", grid=5))
        assert "run_id" not in json.loads(line)


class TestHumanFormatterQuoting:
    def _format(self, **fields) -> str:
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "evt", (), None
        )
        record.event_fields = fields
        return HumanFormatter().format(record)

    def test_plain_values_stay_bare(self):
        line = self._format(grid=5, sampler="adaptive-is")
        assert line.endswith("evt grid=5 sampler=adaptive-is")

    @pytest.mark.parametrize(
        "value, rendered",
        [
            ("hello world", '"hello world"'),
            ("a=b", '"a=b"'),
            ('say "hi"', '"say \\"hi\\""'),
            ("", '""'),
            ("back\\slash and space", '"back\\\\slash and space"'),
        ],
    )
    def test_values_needing_quotes_are_quoted(self, value, rendered):
        line = self._format(msg=value)
        assert line.endswith(f"evt msg={rendered}")
        # The line must stay whitespace-splittable: the quoted value is
        # one shlex token, round-tripping to the original text.
        import shlex

        token = shlex.split(line.split("evt msg=", 1)[1])
        assert token == [value]

    def test_float_rendering_unchanged(self):
        line = self._format(p=0.123456789)
        assert line.endswith("evt p=0.123457")


# ----------------------------------------------------------------------
# Experiments CLI --run-id (scope for the whole process lifetime)
# ----------------------------------------------------------------------
class TestExperimentsRunId:
    def test_run_id_lands_in_logs_and_report(self, tmp_path, monkeypatch, capsys):
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
        assert cli.main(["fig2a", "--fast", "-v", "--log-json",
                         "--run-id", "smoke",
                         "--metrics-out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["run_id"] == "smoke"
        assert report["meta"]["run_id"] == "smoke"
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert events, "expected --log-json events on stderr"
        assert all(event["run_id"] == "smoke" for event in events)

    def test_run_id_names_the_root_for_report_and_timeline(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.__main__ as cli
        from repro.experiments.context import ExperimentContext

        monkeypatch.setattr(
            cli, "_fast_context",
            lambda: ExperimentContext(
                target=1e-2, calibration_samples=2_000,
                analysis_samples=600, table_grid=4, seed=99,
            ),
        )
        metrics_file = tmp_path / "m.json"
        trace_file = tmp_path / "t.json"
        try:
            assert cli.main(["fig2c", "--fast", "--run-id", "r",
                             "--metrics-out", str(metrics_file),
                             "--trace-out", str(trace_file)]) == 0
        finally:
            observability.disable_timeline()
        report = json.loads(metrics_file.read_text())
        assert report["run_id"] == "r"
        assert report["trace"]["children"], "empty trace tree"
        assert report["metrics"]["counters"]["mc.samples"] > 0
        document = json.loads(trace_file.read_text())
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert spans, "no timeline spans under a named root"
        assert document["otherData"]["run_id"] == "r"

    def test_blank_run_id_rejected(self):
        import repro.experiments.__main__ as cli

        with pytest.raises(SystemExit):
            cli.main(["fig2a", "--fast", "--run-id", "   "])
