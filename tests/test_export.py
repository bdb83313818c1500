"""Tests for ``repro.observability.export`` and its CLI/report surface.

The Prometheus renderer is checked the only way that means anything:
round-tripping its output through an independent strict parser
(:mod:`tests.prometheus_parser`) and comparing the recovered values to
the registry snapshot that produced them.  Timeline recording and the
Chrome-trace document get the same treatment — structural validation
plus determinism, the property everything in this repo leans on.
"""

from __future__ import annotations

import json
import math
import multiprocessing

import pytest

from repro import observability
from repro.observability import __main__ as obs_cli
from repro.observability.export import (
    chrome_trace,
    escape_label_value,
    format_value,
    render_prometheus,
    sanitize_metric_name,
    span_rows,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Timeline, trace, tracer
from repro.parallel.executor import ParallelExecutor
from tests.prometheus_parser import ExpositionError, parse_exposition


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test starts and ends with collection and timeline off."""
    observability.disable()
    observability.disable_timeline()
    observability.reset()
    yield
    observability.disable()
    observability.disable_timeline()
    observability.reset()


# ----------------------------------------------------------------------
# Name sanitisation and value formatting
# ----------------------------------------------------------------------
class TestSanitisation:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("mc.samples", "mc_samples"),
            ("service.jobs_accepted", "service_jobs_accepted"),
            ("a-b.c", "a_b_c"),
            ("already_fine", "already_fine"),
            ("9lives", "_9lives"),
            (".", "_"),
            (":colons:ok", ":colons:ok"),
        ],
    )
    def test_mapping(self, raw, expected):
        assert sanitize_metric_name(raw) == expected

    def test_format_value_specials(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(None) == "NaN"
        assert format_value(3.5) == "3.5"

    def test_label_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


# ----------------------------------------------------------------------
# Exposition rendering, validated by round-trip through the parser
# ----------------------------------------------------------------------
class TestRenderPrometheus:
    def test_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("mc.samples").inc(4096)
        registry.counter("solver.calls").inc(17)
        registry.gauge("service.queue_depth").set(3.0)
        hist = registry.histogram("service.request_seconds")
        for i in range(100):
            hist.observe(i / 100.0)
        snap = registry.snapshot()

        page = render_prometheus(snap)
        families = parse_exposition(page)

        assert families["mc_samples"].type == "counter"
        assert families["mc_samples"].value() == 4096.0
        assert families["solver_calls"].value() == 17.0
        assert families["service_queue_depth"].type == "gauge"
        assert families["service_queue_depth"].value() == 3.0
        summary = families["service_request_seconds"]
        assert summary.type == "summary"
        assert summary.value("_count") == 100.0
        assert summary.value("_sum") == pytest.approx(sum(
            i / 100.0 for i in range(100)
        ))
        p50 = summary.value("", {"quantile": "0.5"})
        p95 = summary.value("", {"quantile": "0.95"})
        assert 0.3 <= p50 <= 0.7  # reservoir estimate of the median
        assert p95 >= p50

    def test_nan_and_inf_gauges_render_and_parse(self):
        metrics = {
            "gauges": {
                "g.nan": float("nan"),
                "g.pinf": float("inf"),
                "g.ninf": float("-inf"),
            }
        }
        page = render_prometheus(metrics)
        assert "g_nan NaN" in page
        assert "g_pinf +Inf" in page
        assert "g_ninf -Inf" in page
        families = parse_exposition(page)
        assert math.isnan(families["g_nan"].value())
        assert families["g_pinf"].value() == math.inf
        assert families["g_ninf"].value() == -math.inf

    def test_empty_reservoir_histogram_has_no_quantiles(self):
        metrics = {
            "histograms": {
                "h.empty": {"count": 0, "total": 0.0, "reservoir": []}
            }
        }
        page = render_prometheus(metrics)
        assert "quantile" not in page
        families = parse_exposition(page)
        family = families["h_empty"]
        assert family.type == "summary"
        assert family.value("_count") == 0.0
        assert family.value("_sum") == 0.0

    def test_name_collision_keeps_first_and_stays_parseable(self):
        # '.' sorts before '/', so mc.samples claims the family.
        metrics = {"counters": {"mc.samples": 1.0, "mc/samples": 2.0}}
        page = render_prometheus(metrics)
        assert "# skipped" in page
        families = parse_exposition(page)  # must not raise
        assert families["mc_samples"].value() == 1.0

    def test_summary_suffix_collision_skips_histogram(self):
        # A counter that owns 'h_count' blocks the histogram family 'h',
        # whose _count sample would otherwise be a duplicate.
        metrics = {
            "counters": {"h_count": 5.0},
            "histograms": {
                "h": {"count": 2, "total": 3.0, "reservoir": [1.0, 2.0]}
            },
        }
        page = render_prometheus(metrics)
        assert "# skipped" in page
        families = parse_exposition(page)
        assert families["h_count"].value() == 5.0
        assert "h" not in families

    def test_empty_snapshot_renders_empty_page(self):
        assert render_prometheus({}) == ""
        assert parse_exposition("") == {}


# ----------------------------------------------------------------------
# The test-suite parser is itself strict
# ----------------------------------------------------------------------
class TestParserStrictness:
    @pytest.mark.parametrize(
        "text",
        [
            "bad-name 1.0\n",
            "x 1.0\nx 2.0\n",  # duplicate sample
            "# TYPE x counter\n# TYPE x counter\nx 1.0\n",
            "# TYPE x wibble\nx 1.0\n",
            "x notanumber\n",
            'x{l="unterminated} 1.0\n',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_label_unescaping(self):
        families = parse_exposition('x{l="a\\"b\\\\c\\nd"} 1.0\n')
        (_, labels, value) = families["x"].samples[0]
        assert labels == {"l": 'a"b\\c\nd'}
        assert value == 1.0


# ----------------------------------------------------------------------
# Timeline: bounded, deterministic, mergeable
# ----------------------------------------------------------------------
class TestTimeline:
    def test_reservoir_is_bounded_and_counts_everything(self):
        timeline = Timeline(capacity=16)
        for i in range(100):
            timeline.record(f"span{i}", float(i), 0.5)
        snap = timeline.snapshot()
        assert len(snap["events"]) == 16
        assert snap["seen"] == 100
        assert snap["capacity"] == 16

    def test_reservoir_is_deterministic(self):
        def build():
            timeline = Timeline(capacity=16)
            for i in range(500):
                timeline.record(f"span{i % 7}", float(i), 0.25)
            return timeline.snapshot()["events"]

        assert build() == build()

    def test_merge_assigns_fresh_track_and_keeps_durations(self):
        parent = Timeline(capacity=64)
        parent.record("local", 0.0, 1.0)
        worker = Timeline(capacity=64)
        worker.record("remote.a", 0.0, 0.5)
        worker.record("remote.b", 0.5, 0.25)
        parent.merge(worker.snapshot())

        events = parent.snapshot()["events"]
        remote = [e for e in events if e[3] == 1]
        assert {e[0] for e in remote} == {"remote.a", "remote.b"}
        durs = {name: dur for name, _, dur, _ in remote}
        assert durs["remote.a"] == 0.5
        assert durs["remote.b"] == 0.25
        # Relative spacing survives the clock-domain shift.
        starts = {name: start for name, start, _, _ in remote}
        assert starts["remote.b"] - starts["remote.a"] == pytest.approx(0.5)
        assert parent.snapshot()["seen"] == 3

    def test_merge_accounts_for_dropped_worker_events(self):
        parent = Timeline(capacity=64)
        worker = Timeline(capacity=4)
        for i in range(20):
            worker.record("w", float(i), 0.1)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert len(snap["events"]) == 4
        assert snap["seen"] == 20  # includes the 16 the worker dropped

    def test_tracer_records_spans_only_while_armed(self):
        observability.enable()
        with trace("unarmed"):
            pass
        assert observability.tracing.timeline is None
        assert observability.timeline_snapshot() is None

        observability.enable_timeline()
        with trace("outer"):
            with trace("inner"):
                pass
        snap = observability.timeline_snapshot()
        names = [event[0] for event in snap["events"]]
        # inner pops (and records) before outer.
        assert names == ["inner", "outer"]
        inner, outer = snap["events"]
        assert inner[1] >= outer[1]  # inner starts after outer
        assert inner[2] <= outer[2]  # and is contained in it

        observability.disable_timeline()
        assert observability.timeline_snapshot() is None

    def test_reset_rearms_a_fresh_timeline(self):
        observability.enable()
        observability.enable_timeline(capacity=7)
        with trace("before"):
            pass
        observability.reset()
        snap = observability.timeline_snapshot()
        assert snap is not None, "reset must re-arm, not disarm"
        assert snap["capacity"] == 7
        assert snap["events"] == []


@trace("task.square")
def _square(x: int) -> int:
    return x * x


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker timeline inheritance requires the fork start method",
)
def test_worker_timelines_merge_across_processes():
    observability.enable()
    observability.enable_timeline()
    executor = ParallelExecutor(workers=2)
    assert executor.map(_square, [0, 1, 2, 3]) == [0, 1, 4, 9]
    snap = observability.timeline_snapshot()
    worker_events = [e for e in snap["events"] if e[3] > 0]
    assert worker_events, "expected merged worker spans on tracks > 0"
    assert {e[0] for e in worker_events} == {"task.square"}


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_document_structure(self):
        timeline = Timeline(capacity=64)
        timeline.record("a", 0.001, 0.002)
        timeline.record("b", 0.004, 0.001, track=1)
        doc = chrome_trace(timeline.snapshot(), meta={"experiment": "fig2c"})

        json.loads(json.dumps(doc))  # strictly JSON-serialisable
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["ph"] for e in events} == {"M", "X"}
        assert {e["name"] for e in metas} == {"process_name", "thread_name"}
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in metas
            if e["name"] == "thread_name"
        }
        assert thread_names == {0: "main", 1: "task-1"}
        by_name = {e["name"]: e for e in spans}
        assert by_name["a"]["ts"] == pytest.approx(1000.0)  # µs
        assert by_name["a"]["dur"] == pytest.approx(2000.0)
        assert by_name["b"]["tid"] == 1
        other = doc["otherData"]
        assert other["schema"] == "repro.trace/1"
        assert other["spans_recorded"] == 2
        assert other["experiment"] == "fig2c"

    def test_empty_timeline_still_names_the_main_track(self):
        doc = chrome_trace({"capacity": 8, "seen": 0, "events": []})
        names = [e["name"] for e in doc["traceEvents"]]
        assert "process_name" in names
        assert "thread_name" in names
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# span_rows and the report command
# ----------------------------------------------------------------------
_SNAPSHOT = {
    "schema": "repro.telemetry/1",
    "experiment": "fig2a",
    "elapsed_seconds": 12.5,
    "meta": {"git_sha": "abc1234", "seed": 2006, "workers": 2},
    "metrics": {
        "counters": {"mc.samples": 4096.0, "solver.calls": 17.0},
        "gauges": {},
        "histograms": {},
    },
    "trace": {
        "name": "run",
        "calls": 1,
        "seconds": 12.0,
        "children": [
            {
                "name": "build",
                "calls": 1,
                "seconds": 10.0,
                "children": [
                    {
                        "name": "solve",
                        "calls": 5,
                        "seconds": 8.0,
                        "children": [],
                    }
                ],
            }
        ],
    },
    "diagnostics": {
        "thresholds": {"min_ess": 50.0},
        "scopes": {
            "cell0": {"converged": True, "n_estimates": 3, "min_ess": 210.0},
            "cell1": {"converged": False, "n_estimates": 2, "min_ess": 12.0},
        },
        "unconverged_scopes": ["cell1"],
    },
}


class TestSpanRows:
    def test_self_time_subtracts_children(self):
        rows = {r["path"]: r for r in span_rows(_SNAPSHOT["trace"])}
        assert rows["build"]["self_seconds"] == pytest.approx(2.0)
        assert rows["build/solve"]["self_seconds"] == pytest.approx(8.0)
        assert "run" not in rows  # root excluded

    def test_self_time_clamped_at_zero(self):
        tree = {
            "children": [
                {
                    "name": "jittery",
                    "calls": 1,
                    "seconds": 1.0,
                    "children": [
                        {
                            "name": "child",
                            "calls": 1,
                            "seconds": 1.001,
                            "children": [],
                        }
                    ],
                }
            ]
        }
        (parent, _child) = span_rows(tree)
        assert parent["self_seconds"] == 0.0


class TestReportCommand:
    def test_renders_all_sections(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(_SNAPSHOT))
        assert obs_cli.main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out
        assert "slowest spans" in out
        assert "build/solve" in out
        assert "mc.samples" in out
        assert "4096" in out
        assert "UNCONVERGED" in out
        assert "1/2 scope(s) converged" in out

    def test_rejects_non_snapshot_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"not": "telemetry"}))
        assert obs_cli.main(["report", str(path)]) == 1
        assert "metrics" in capsys.readouterr().err

    def test_rejects_missing_file(self, tmp_path):
        assert obs_cli.main(["report", str(tmp_path / "nope.json")]) == 1

    def test_json_format_mirrors_the_text_report(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        snapshot = dict(_SNAPSHOT, run_id="smoke")
        path.write_text(json.dumps(snapshot))
        assert obs_cli.main(["report", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.report/1"
        assert summary["snapshot_schema"] == "repro.telemetry/1"
        assert summary["experiment"] == "fig2a"
        assert summary["run_id"] == "smoke"
        # Same selection and ordering as the text renderer: spans by
        # self time, counters by value.
        assert [r["path"] for r in summary["slowest_spans"]] == [
            "build/solve", "build"
        ]
        assert summary["top_counters"][0] == {
            "name": "mc.samples", "value": 4096.0
        }
        assert summary["diagnostics"]["unconverged_scopes"] == ["cell1"]
        assert set(summary["diagnostics"]["scopes"]) == {"cell0", "cell1"}

    def test_json_format_respects_top(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(_SNAPSHOT))
        assert obs_cli.main(
            ["report", str(path), "--format", "json", "--top", "1"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["slowest_spans"]) == 1
        assert len(summary["top_counters"]) == 1
