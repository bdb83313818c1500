"""Tests for the yield-analysis service (``repro.service``).

Layered like the package: spec validation and fingerprinting are unit
tests; job lifecycle (dedupe, failure, retry) runs against a
:class:`JobManager` with an injected runner; the HTTP surface runs a
real in-process :class:`BackgroundServer` over a tiny real build; and
the kill-and-restart test drives an actual ``python -m repro.service``
subprocess through SIGKILL and checkpoint resume.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import cancellation, observability
from repro.service.jobs import (
    DrainingError,
    JobManager,
    QueueFullError,
)
from repro.service.journal import EventJournal
from repro.service.ledger import RECORD_TYPES, JobLedger
from repro.service.loadgen import (
    ClientRetryPolicy,
    _follow,
    _retry_after_seconds,
    run_load,
)
from repro.service.server import BackgroundServer
from repro.service.spec import (
    SpecError,
    job_cells,
    normalize_spec,
    spec_fingerprint,
)
from tests.prometheus_parser import parse_exposition

#: Seconds-scale spec exercising the full real pipeline.
TINY_SPEC = {
    "kind": "table",
    "target": 1e-2,
    "calibration_samples": 2_000,
    "analysis_samples": 600,
    "sampler": "adaptive-is",
    "table_grid": 5,
    "seed": 2006,
    "vbody_levels": [0.0],
}


def request(
    method: str, url: str, payload: dict | None = None, timeout: float = 30.0
) -> tuple[int, dict]:
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def fetch_raw(
    url: str, headers: dict | None = None, timeout: float = 30.0
) -> tuple[int, dict, str]:
    """GET a non-JSON endpoint; returns (status, headers, body text)."""
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


def read_sse(
    url: str,
    last_event_id: int | None = None,
    timeout: float = 120.0,
    stop=None,
) -> list[tuple[int | None, str | None, dict]]:
    """Read an SSE stream into ``(id, event, payload)`` messages.

    Reads until the server closes the stream (per-job streams close
    after the terminal event) or ``stop(message)`` returns True — the
    escape hatch for the never-ending global stream.
    """
    headers = {"Accept": "text/event-stream"}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    req = urllib.request.Request(url, headers=headers)
    messages: list[tuple[int | None, str | None, dict]] = []
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        assert "text/event-stream" in resp.headers.get("Content-Type", "")
        event_id: int | None = None
        event_type: str | None = None
        data_lines: list[str] = []
        for raw in resp:
            line = raw.decode().rstrip("\r\n")
            if not line:
                if event_type is not None or data_lines:
                    payload = (
                        json.loads("\n".join(data_lines)) if data_lines else {}
                    )
                    message = (event_id, event_type, payload)
                    messages.append(message)
                    if stop is not None and stop(message):
                        break
                event_id, event_type, data_lines = None, None, []
                continue
            if line.startswith(":"):
                continue  # comment / keepalive
            field, _, value = line.partition(":")
            value = value[1:] if value.startswith(" ") else value
            if field == "id":
                event_id = int(value)
            elif field == "event":
                event_type = value
            elif field == "data":
                data_lines.append(value)
    return messages


def wait_for(predicate, timeout: float = 60.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {predicate}")
        time.sleep(interval)


# ----------------------------------------------------------------------
# Spec validation and identity
# ----------------------------------------------------------------------
class TestSpec:
    def test_defaults_are_materialised(self):
        spec = normalize_spec({"kind": "table"})
        assert spec["sampler"] == "adaptive-is"
        assert spec["target"] == 1e-5
        assert spec["vbody_levels"] == [0.0]
        assert spec["table_grid"] == 9

    def test_hold_surface_defaults(self):
        spec = normalize_spec({"kind": "hold-surface"})
        assert spec["corner_points"] == 5
        assert spec["vsb_levels"] == [0.0, 0.2, 0.4, 0.6]
        assert job_cells(spec) == 5 * 4

    def test_job_cells_table(self):
        spec = normalize_spec(
            {"kind": "table", "table_grid": 7, "vbody_levels": [0.0, 0.3]}
        )
        assert job_cells(spec) == 14

    def test_fingerprint_ignores_field_order_and_spelling(self):
        a = normalize_spec({"kind": "table", "seed": 7, "target": 1e-5})
        b = normalize_spec({"target": 0.00001, "kind": "table", "seed": 7})
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_fingerprint_changes_with_any_field(self):
        base = normalize_spec({"kind": "table"})
        for raw in (
            {"kind": "table", "seed": 2007},
            {"kind": "table", "sampler": "plain"},
            {"kind": "table", "vbody_levels": [0.1]},
            {"kind": "hold-surface"},
        ):
            assert spec_fingerprint(normalize_spec(raw)) != spec_fingerprint(
                base
            )

    @pytest.mark.parametrize(
        "raw, code",
        [
            ([1, 2], "invalid-spec"),
            ({}, "invalid-spec"),
            ({"kind": "fig99"}, "unknown-kind"),
            ({"kind": "table", "smapler": "plain"}, "unknown-field"),
            # hold-surface fields are unknown on a table spec.
            ({"kind": "table", "vsb_levels": [0.1, 0.2]}, "unknown-field"),
            ({"kind": "table", "sampler": "magic"}, "invalid-value"),
            ({"kind": "table", "target": 2.0}, "invalid-value"),
            ({"kind": "table", "target": "tiny"}, "invalid-value"),
            ({"kind": "table", "calibration_samples": 10}, "invalid-value"),
            ({"kind": "table", "table_grid": 3}, "invalid-value"),
            ({"kind": "table", "seed": -1}, "invalid-value"),
            ({"kind": "table", "vbody_levels": []}, "invalid-value"),
            ({"kind": "table", "vbody_levels": [0.3, 0.0]}, "invalid-value"),
            ({"kind": "table", "vbody_levels": [0.0, True]}, "invalid-value"),
            ({"kind": "hold-surface", "vsb_levels": [0.4]}, "invalid-value"),
            ({"kind": "hold-surface", "corner_points": 1}, "invalid-value"),
            ({"kind": "table", "deadline_s": 0}, "invalid-value"),
            ({"kind": "table", "deadline_s": -5}, "invalid-value"),
            ({"kind": "table", "deadline_s": "soon"}, "invalid-value"),
            ({"kind": "table", "deadline_s": 1e9}, "invalid-value"),
        ],
    )
    def test_rejections_carry_wire_codes(self, raw, code):
        with pytest.raises(SpecError) as excinfo:
            normalize_spec(raw)
        assert excinfo.value.code == code

    def test_deadline_is_execution_only(self):
        # Validated and carried in the normalized spec, but excluded
        # from the job id: the same surface with a different budget
        # must dedupe onto the in-flight job, and pre-deadline job
        # ids (and their cache entries) must be unchanged.
        bare = normalize_spec({"kind": "table"})
        bounded = normalize_spec({"kind": "table", "deadline_s": 30})
        assert bare["deadline_s"] is None
        assert bounded["deadline_s"] == 30.0
        assert spec_fingerprint(bounded) == spec_fingerprint(bare)


# ----------------------------------------------------------------------
# Job lifecycle against an injected runner (no HTTP, no real builds)
# ----------------------------------------------------------------------
@pytest.fixture
def metrics_on():
    observability.reset()
    observability.enable()
    yield
    observability.disable()
    observability.reset()


class TestJobManager:
    def test_inflight_dedupe_and_queued_state(self, metrics_on):
        started, release = threading.Event(), threading.Event()

        def runner(spec, **_opts):
            started.set()
            assert release.wait(timeout=30)
            return {"ok": True}

        manager = JobManager(runner=runner)
        try:
            job, created = manager.submit(dict(TINY_SPEC))
            assert created
            assert started.wait(timeout=10)
            dup, dup_created = manager.submit(dict(TINY_SPEC))
            assert not dup_created
            assert dup.id == job.id
            assert dup.submissions == 2
            assert manager.get(job.id).status == "running"
            assert manager.queue_depth() == 1
            release.set()
            wait_for(lambda: manager.get(job.id).status == "completed")
            assert manager.get(job.id).result == {"ok": True}
            assert manager.queue_depth() == 0
        finally:
            release.set()
            manager.shutdown()

    def test_failed_job_reports_error_and_retries(self, metrics_on):
        attempts = []

        def runner(spec, **_opts):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("solver exploded")
            return {"ok": True}

        manager = JobManager(runner=runner)
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: manager.get(job.id).status == "failed")
            assert "solver exploded" in manager.get(job.id).error
            # A failed job is retried under the same id, not deduped.
            retry, created = manager.submit(dict(TINY_SPEC))
            assert created
            assert retry.id == job.id
            wait_for(lambda: manager.get(job.id).status == "completed")
            assert manager.get(job.id).error is None
            counters = observability.snapshot()["metrics"]["counters"]
            assert counters["service.jobs_failed"] == 1
            assert counters["service.jobs_completed"] == 1
            assert counters["service.jobs_accepted"] == 2
        finally:
            manager.shutdown()

    def test_progress_counts_cells(self, metrics_on):
        manager = JobManager(runner=lambda spec, **_opts: {"ok": True})
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: manager.get(job.id).status == "completed")
            progress = manager.get(job.id).progress()
            assert progress["cells_total"] == job_cells(job.spec)
            assert progress["cells_done"] == progress["cells_total"]
            assert set(progress["counters"]) >= {"mc.samples", "solver.calls"}
        finally:
            manager.shutdown()


def _blocking_runner(started: threading.Event, release: threading.Event):
    """A runner that parks at a cancellation safe point until released."""

    def runner(spec, **_opts):
        started.set()
        deadline = time.monotonic() + 60
        while not release.is_set() and time.monotonic() < deadline:
            cancellation.check_active()
            time.sleep(0.01)
        return {"ok": True}

    return runner


class TestJobLedger:
    def test_record_replay_folds_latest_state(self, tmp_path):
        ledger = JobLedger(tmp_path)
        spec = normalize_spec(TINY_SPEC)
        ledger.record(
            "accepted", "job-a", spec=spec, submissions=2, created_at=10.0
        )
        ledger.record("started", "job-a")
        ledger.record("accepted", "job-b", spec=spec, created_at=11.0)
        ledger.record("started", "job-b")
        ledger.record("completed", "job-b")
        states, skipped = ledger.replay()
        assert skipped == 0
        assert states["job-a"]["status"] == "started"
        assert states["job-a"]["spec"] == spec
        assert states["job-a"]["submissions"] == 2
        assert states["job-a"]["created_at"] == 10.0
        assert states["job-b"]["status"] == "completed"

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        ledger = JobLedger(tmp_path)
        spec = normalize_spec(TINY_SPEC)
        ledger.record(
            "accepted", "job-a", spec=spec, submissions=1, created_at=1.0
        )
        with open(ledger.path, "a") as fh:
            fh.write("{ torn line\n")  # undecodable JSON
            fh.write('{"type": "started", "job_id": "job-a"}\n')  # no seal
        ledger.record("started", "job-a")
        states, skipped = ledger.replay()
        assert skipped == 2
        assert states["job-a"]["status"] == "started"
        assert states["job-a"]["spec"] == spec

    def test_compact_bounds_the_file(self, tmp_path):
        ledger = JobLedger(tmp_path)
        spec = normalize_spec(TINY_SPEC)
        for _ in range(5):
            ledger.record(
                "accepted", "job-a", spec=spec, submissions=1, created_at=1.0
            )
        ledger.record("accepted", "gone", spec=spec, created_at=2.0)
        ledger.record("completed", "gone")
        states, _ = ledger.replay()
        live = {"job-a": states["job-a"]}
        ledger.compact(live)
        assert len(ledger.path.read_text().splitlines()) == 1
        states, skipped = ledger.replay()
        assert skipped == 0
        assert set(states) == {"job-a"}
        assert states["job-a"]["status"] == "accepted"
        assert states["job-a"]["spec"] == spec

    def test_unknown_record_type_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown ledger record type"):
            JobLedger(tmp_path).record("paused", "job-a")


def test_ledger_line_is_durable_before_event_is_visible(
    metrics_on, tmp_path, monkeypatch
):
    """Every durable transition (accepted, started, completed, failed,
    cancelled) is on disk before its event is visible to a reader of
    the journal (the SSE streams)."""
    managers = []
    recorded = []
    original = JobLedger.record

    def record(self, type_, job_id, **fields):
        original(self, type_, job_id, **fields)
        recorded.append((type_, job_id, managers[0].journal.last_seq))

    monkeypatch.setattr(JobLedger, "record", record)

    def runner(spec, **_opts):
        if spec["seed"] == 12:
            raise RuntimeError("boom")
        deadline = time.monotonic() + 60
        while spec["seed"] == 13 and time.monotonic() < deadline:
            cancellation.check_active()
            time.sleep(0.01)
        return {"ok": True}

    manager = JobManager(runner=runner, state_dir=str(tmp_path))
    managers.append(manager)
    try:
        done, _ = manager.submit(dict(TINY_SPEC, seed=11))
        wait_for(lambda: manager.get(done.id).status == "completed")
        failed, _ = manager.submit(dict(TINY_SPEC, seed=12))
        wait_for(lambda: manager.get(failed.id).status == "failed")
        stopped, _ = manager.submit(dict(TINY_SPEC, seed=13))
        wait_for(lambda: manager.get(stopped.id).status == "running")
        manager.cancel(stopped.id)
        wait_for(lambda: manager.get(stopped.id).status == "cancelled")
    finally:
        manager.shutdown()
    seen = {(type_, job_id): seq for type_, job_id, seq in recorded}
    durable = [
        event
        for event in manager.journal.after(0)[0]
        if event.type.removeprefix("job.") in RECORD_TYPES
    ]
    assert {event.type.removeprefix("job.") for event in durable} == set(
        RECORD_TYPES
    )
    for event in durable:
        recorded_at = seen[(event.type.removeprefix("job."), event.job_id)]
        assert recorded_at < event.seq, event.type


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(
            runner=_blocking_runner(started, release),
            max_queue_depth=1,
            retry_after_s=2.5,
        )
        try:
            manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(dict(TINY_SPEC, seed=31))
            assert excinfo.value.code == "queue-full"
            assert excinfo.value.retry_after == 2.5
            counters = observability.registry.snapshot()["counters"]
            assert counters["service.jobs_rejected"] == 1
            # The shed spec was never registered as a job.
            assert manager.queue_depth() == 1
        finally:
            release.set()
            manager.shutdown()

    def test_dedupe_is_never_rejected(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(
            runner=_blocking_runner(started, release), max_queue_depth=1
        )
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            # The queue is at its bound, but a retrying client must be
            # able to re-attach to its own in-flight job.
            dup, created = manager.submit(dict(TINY_SPEC))
            assert not created
            assert dup.id == job.id
        finally:
            release.set()
            manager.shutdown()

    def test_queue_depth_validated(self):
        with pytest.raises(ValueError):
            JobManager(runner=lambda s, **_o: {}, max_queue_depth=0)


class TestCancellationAndDeadline:
    def test_cancel_queued_job_is_terminal(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(
            runner=_blocking_runner(started, release), job_workers=1
        )
        try:
            manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            queued, _ = manager.submit(dict(TINY_SPEC, seed=31))
            assert manager.get(queued.id).status == "queued"
            job, outcome = manager.cancel(queued.id)
            assert outcome == "cancelled"
            assert job.status == "cancelled"
            assert job.error_code == "cancelled"
            counters = observability.registry.snapshot()["counters"]
            assert counters["service.jobs_cancelled"] == 1
        finally:
            release.set()
            manager.shutdown()

    def test_cancel_running_job_stops_at_safe_point(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(runner=_blocking_runner(started, release))
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            _, outcome = manager.cancel(job.id)
            assert outcome == "cancelling"
            # The runner's next check_active() raises: the job lands
            # terminally cancelled without being released.
            wait_for(lambda: manager.get(job.id).status == "cancelled")
            assert manager.get(job.id).error_code == "cancelled"
        finally:
            release.set()
            manager.shutdown()

    def test_cancel_terminal_and_missing(self, metrics_on):
        manager = JobManager(runner=lambda spec, **_o: {"ok": True})
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: manager.get(job.id).status == "completed")
            _, outcome = manager.cancel(job.id)
            assert outcome == "terminal"
            assert manager.get(job.id).status == "completed"  # untouched
            assert manager.cancel("no-such-job") == (None, "missing")
        finally:
            manager.shutdown()

    def test_cancelled_job_can_be_retried(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(
            runner=_blocking_runner(started, release), job_workers=1
        )
        try:
            manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            queued, _ = manager.submit(dict(TINY_SPEC, seed=31))
            manager.cancel(queued.id)
            release.set()
            retry, created = manager.submit(dict(TINY_SPEC, seed=31))
            assert created  # a cancelled job is retried, not deduped
            assert retry.id == queued.id
            wait_for(lambda: manager.get(retry.id).status == "completed")
            assert manager.get(retry.id).error is None
        finally:
            release.set()
            manager.shutdown()

    def test_deadline_exceeded_fails_with_wire_code(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(runner=_blocking_runner(started, release))
        try:
            job, _ = manager.submit(dict(TINY_SPEC, deadline_s=0.2))
            assert started.wait(timeout=10)
            wait_for(lambda: manager.get(job.id).status == "failed")
            assert manager.get(job.id).error_code == "deadline-exceeded"
            counters = observability.snapshot()["metrics"]["counters"]
            assert counters["service.jobs_deadline_exceeded"] == 1
            assert counters["service.jobs_failed"] == 1
        finally:
            release.set()
            manager.shutdown()


class TestDrain:
    def test_drain_rejects_new_work_but_dedupes(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(runner=_blocking_runner(started, release))
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            manager.begin_drain()
            assert manager.draining
            with pytest.raises(DrainingError) as excinfo:
                manager.submit(dict(TINY_SPEC, seed=31))
            assert excinfo.value.code == "draining"
            dup, created = manager.submit(dict(TINY_SPEC))
            assert not created and dup.id == job.id
            gauges = observability.registry.snapshot()["gauges"]
            assert gauges["service.draining"] == 1
        finally:
            release.set()
            manager.shutdown()

    def test_drain_waits_for_running_jobs(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(runner=_blocking_runner(started, release))
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            done = []
            thread = threading.Thread(
                target=lambda: done.append(manager.drain(timeout=30))
            )
            thread.start()
            time.sleep(0.1)
            assert not done  # still waiting on the running job
            release.set()
            thread.join(timeout=30)
            assert done == [True]
            assert manager.get(job.id).status == "completed"
        finally:
            release.set()
            manager.shutdown()

    def test_drain_timeout_reports_stragglers(self, metrics_on):
        started, release = threading.Event(), threading.Event()
        manager = JobManager(runner=_blocking_runner(started, release))
        try:
            manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            assert manager.drain(timeout=0.2) is False
        finally:
            release.set()
            manager.shutdown()


class TestRecovery:
    def test_boot_recovers_accepted_jobs(self, metrics_on, tmp_path):
        spec = normalize_spec(TINY_SPEC)
        job_id = spec_fingerprint(spec)
        ledger = JobLedger(tmp_path)
        ledger.record(
            "accepted", job_id, spec=spec, submissions=2, created_at=10.0
        )
        ledger.record("started", job_id)

        manager = JobManager(
            runner=lambda s, **_o: {"ok": True}, state_dir=str(tmp_path)
        )
        try:
            job = manager.get(job_id)
            assert job is not None and job.recovered
            assert job.submissions == 2
            wait_for(lambda: manager.get(job_id).status == "completed")
            assert manager.get(job_id).result == {"ok": True}
            counters = observability.registry.snapshot()["counters"]
            assert counters["service.jobs_recovered"] == 1
            assert counters.get("service.jobs_lost", 0) == 0
        finally:
            manager.shutdown()
        # The completion was journaled: a third boot recovers nothing.
        states, _ = JobLedger(tmp_path).replay()
        assert states[job_id]["status"] == "completed"

    def test_terminal_jobs_are_not_recovered(self, metrics_on, tmp_path):
        spec = normalize_spec(TINY_SPEC)
        job_id = spec_fingerprint(spec)
        ledger = JobLedger(tmp_path)
        ledger.record("accepted", job_id, spec=spec, created_at=1.0)
        ledger.record("completed", job_id)
        manager = JobManager(
            runner=lambda s, **_o: {"ok": True}, state_dir=str(tmp_path)
        )
        try:
            assert manager.get(job_id) is None
            counters = observability.registry.snapshot()["counters"]
            assert counters.get("service.jobs_recovered", 0) == 0
        finally:
            manager.shutdown()

    def test_unrecoverable_job_counts_lost(self, metrics_on, tmp_path):
        # A "started" record without any intact "accepted" line: the
        # spec is gone, so the job cannot be re-run — it must be
        # surfaced as lost, not silently dropped.
        ledger = JobLedger(tmp_path)
        ledger.record("started", "deadbeef" * 3)
        manager = JobManager(
            runner=lambda s, **_o: {"ok": True}, state_dir=str(tmp_path)
        )
        try:
            assert manager.get("deadbeef" * 3) is None
            counters = observability.registry.snapshot()["counters"]
            assert counters["service.jobs_lost"] == 1
            assert counters.get("service.jobs_recovered", 0) == 0
        finally:
            manager.shutdown()

    def test_recovery_preserves_submission_order(self, metrics_on, tmp_path):
        spec_a = normalize_spec(TINY_SPEC)
        spec_b = normalize_spec(dict(TINY_SPEC, seed=31))
        ledger = JobLedger(tmp_path)
        # Written out of order; created_at must decide execution order.
        ledger.record(
            "accepted", spec_fingerprint(spec_b), spec=spec_b,
            created_at=20.0,
        )
        ledger.record(
            "accepted", spec_fingerprint(spec_a), spec=spec_a,
            created_at=10.0,
        )
        ran = []
        manager = JobManager(
            runner=lambda s, **_o: ran.append(s["seed"]) or {"ok": True},
            state_dir=str(tmp_path),
            job_workers=1,
        )
        try:
            wait_for(lambda: len(ran) == 2)
            assert ran == [spec_a["seed"], spec_b["seed"]]
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# Event journal, flight recorder, uptime (no HTTP)
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_ring_eviction_and_truncation(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.append("job.progress", job_id="j", i=i)
        assert journal.last_seq == 5
        assert journal.dropped == 2
        events, truncated = journal.after(0)
        assert truncated  # seqs 1-2 were evicted
        assert [e.seq for e in events] == [3, 4, 5]
        events, truncated = journal.after(3)
        assert not truncated
        assert [e.seq for e in events] == [4, 5]

    def test_per_job_filter_and_wire_shape(self):
        journal = EventJournal(capacity=16)
        journal.append("job.accepted", job_id="a")
        journal.append("job.accepted", job_id="b")
        journal.append("job.completed", job_id="a", run_id="a", seconds=1.5)
        events, truncated = journal.after(0, job_id="a")
        assert not truncated
        assert [e.type for e in events] == ["job.accepted", "job.completed"]
        wire = events[-1].wire()
        assert wire["job_id"] == "a"
        assert wire["run_id"] == "a"
        assert wire["data"] == {"seconds": 1.5}
        assert set(wire) == {"seq", "ts", "type", "job_id", "run_id", "data"}

    def test_overflow_counts_drops(self, metrics_on):
        journal = EventJournal(capacity=1)
        journal.append("job.accepted")
        journal.append("job.accepted")
        counters = observability.registry.snapshot()["counters"]
        assert counters["service.events"] == 2.0
        assert counters["service.events_dropped"] == 1.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_durable_events_reach_the_ledger_first(self):
        """The ledger line for a durable event is written before the
        event enters the ring, and outside the ring lock."""

        class SnapshotLedger:
            def __init__(self):
                self.records = []

            def record(self, type_, job_id, **fields):
                assert not journal._lock.locked()
                self.records.append((type_, job_id, fields, journal.last_seq))

        ledger = SnapshotLedger()
        journal = EventJournal(capacity=8)
        journal.ledger = ledger
        journal.append(
            "job.accepted", job_id="a", record={"spec": {"k": 1}}, kind="t"
        )
        journal.append("job.progress", job_id="a", cells_done=1)
        journal.append("job.started", job_id="a")
        events, _ = journal.after(0)
        assert [e.type for e in events] == [
            "job.accepted", "job.progress", "job.started",
        ]
        assert events[0].data == {"kind": "t"}
        assert ledger.records == [
            ("accepted", "a", {"spec": {"k": 1}}, 0),
            ("started", "a", {}, 2),
        ]


class TestFlightRecorder:
    def test_failed_job_dumps_journal_to_disk(self, metrics_on, tmp_path):
        def runner(spec, **_opts):
            raise RuntimeError("solver exploded")

        manager = JobManager(runner=runner, flight_dir=str(tmp_path))
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: manager.get(job.id).status == "failed")
            flights = wait_for(
                lambda: list(tmp_path.glob("flight-*.json")) or None,
                timeout=10,
            )
        finally:
            manager.shutdown()
        [path] = flights
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.flight/1"
        assert doc["job"]["id"] == job.id
        assert doc["job"]["status"] == "failed"
        assert doc["dropped_events"] == 0
        types = [event["type"] for event in doc["events"]]
        assert "job.accepted" in types
        assert "job.started" in types
        assert types[-1] == "job.failed"
        assert "solver exploded" in doc["events"][-1]["data"]["error"]

    def test_interrupted_dump_leaves_no_torn_file(
        self, metrics_on, tmp_path, monkeypatch
    ):
        """A dump cut off mid-write (here: the disk fills after half
        the bytes) leaves nothing under the final name, and the job's
        terminal state does not depend on it."""
        import builtins
        import errno
        import io

        real_open = builtins.open
        cut = []

        class DiskFull:
            def __init__(self, handle):
                self._handle = handle

            def write(self, text):
                self._handle.write(text[: len(text) // 2])
                self._handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

        def filling_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            name = os.path.basename(os.fspath(file))
            if "w" in mode and name.startswith(("flight-", "telemetry-")):
                cut.append(name)
                return DiskFull(handle)
            return handle

        monkeypatch.setattr(builtins, "open", filling_open)
        monkeypatch.setattr(io, "open", filling_open)

        def runner(spec, **_opts):
            raise RuntimeError("solver exploded")

        manager = JobManager(runner=runner, flight_dir=str(tmp_path))
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: len(cut) == 2, timeout=30)
        finally:
            manager.shutdown()
        assert not list(tmp_path.glob("flight-*.json"))
        assert not list(tmp_path.glob("telemetry-*.json"))
        job = manager.get(job.id)
        assert job.status == "failed"
        assert "solver exploded" in job.error
        events, _ = manager.journal.after(0, job_id=job.id)
        assert events[-1].type == "job.failed"

    def test_no_flight_dir_means_no_dump(self, metrics_on, tmp_path):
        def runner(spec, **_opts):
            raise RuntimeError("boom")

        manager = JobManager(runner=runner)
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: manager.get(job.id).status == "failed")
        finally:
            manager.shutdown()
        assert not list(tmp_path.glob("flight-*.json"))


def test_uptime_is_monotonic(metrics_on):
    manager = JobManager(runner=lambda spec, **_opts: {"ok": True})
    try:
        first = manager.uptime_seconds()
        assert first >= 0
        time.sleep(0.02)
        assert manager.uptime_seconds() > first
    finally:
        manager.shutdown()


# ----------------------------------------------------------------------
# HTTP surface over a real in-process build
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_server():
    observability.reset()
    observability.enable()
    manager = JobManager()
    background = BackgroundServer(manager)
    url = background.start()
    yield url
    background.stop()
    observability.disable()
    observability.reset()


def completed_job_id(base_url: str) -> str:
    """Submit TINY_SPEC and wait until it is completed (idempotent)."""
    status, body = request("POST", f"{base_url}/v1/jobs", TINY_SPEC)
    assert status in (200, 202), body
    job_id = body["job"]["id"]
    wait_for(
        lambda: request("GET", f"{base_url}/v1/jobs/{job_id}")[1]["job"][
            "status"
        ]
        == "completed",
        timeout=120,
    )
    return job_id


class TestHttpApi:
    def test_submit_poll_result_roundtrip(self, live_server):
        status, body = request("POST", f"{live_server}/v1/jobs", TINY_SPEC)
        assert status in (200, 202)
        assert body["job"]["kind"] == "table"
        job_id = body["job"]["id"]
        assert job_id == spec_fingerprint(normalize_spec(TINY_SPEC))

        job_id = completed_job_id(live_server)
        status, view = request("GET", f"{live_server}/v1/jobs/{job_id}")
        assert status == 200
        progress = view["job"]["progress"]
        assert progress["cells_done"] == progress["cells_total"] == 5
        assert view["job"]["elapsed_seconds"] > 0

        status, result = request(
            "GET", f"{live_server}/v1/jobs/{job_id}/result"
        )
        assert status == 200
        surface = result["result"]
        assert surface["kind"] == "table"
        assert len(surface["corner_grid"]) == 5
        [per_vbody] = surface["surfaces"]
        assert per_vbody["vbody"] == 0.0
        curve = per_vbody["log10_probability"]["any"]
        assert len(curve) == 5
        assert all(isinstance(v, float) and v <= 0.0 for v in curve)

    def test_duplicate_submission_dedupes_without_solver_calls(
        self, live_server
    ):
        job_id = completed_job_id(live_server)

        def healthz_counters():
            return request("GET", f"{live_server}/v1/healthz")[1][
                "telemetry"
            ]["metrics"]["counters"]

        before = healthz_counters()
        status, body = request("POST", f"{live_server}/v1/jobs", TINY_SPEC)
        assert status == 200
        assert body["deduped"] is True
        assert body["job"]["id"] == job_id
        after = healthz_counters()
        assert after["solver.calls"] == before["solver.calls"]
        assert after["mc.samples"] == before["mc.samples"]
        assert (
            after["service.jobs_deduped"]
            == before["service.jobs_deduped"] + 1
        )
        assert after["service.jobs_accepted"] == before["service.jobs_accepted"]

    def test_result_before_completion_is_409(self, live_server):
        # A fresh fingerprint that will sit queued behind nothing but
        # still be running when we ask: use a heavier seed variant and
        # ask for the result immediately after submitting.
        spec = dict(TINY_SPEC, seed=31)
        status, body = request("POST", f"{live_server}/v1/jobs", spec)
        assert status == 202
        job_id = body["job"]["id"]
        status, error = request(
            "GET", f"{live_server}/v1/jobs/{job_id}/result"
        )
        if status == 409:  # still queued/running (the usual path)
            assert error["error"]["code"] == "not-completed"
        else:  # finished before we asked; result must then be served
            assert status == 200

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"kind": "fig99"}, "unknown-kind"),
            ({"kind": "table", "smapler": "plain"}, "unknown-field"),
            ({"kind": "table", "target": 7}, "invalid-value"),
            ([1, 2, 3], "invalid-spec"),
        ],
    )
    def test_malformed_specs_are_400(self, live_server, payload, code):
        status, body = request("POST", f"{live_server}/v1/jobs", payload)
        assert status == 400
        assert body["error"]["code"] == code

    def test_undecodable_body_is_invalid_json(self, live_server):
        req = urllib.request.Request(
            f"{live_server}/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        assert (
            json.loads(excinfo.value.read().decode())["error"]["code"]
            == "invalid-json"
        )

    def test_unknown_job_and_route_are_404(self, live_server):
        status, body = request("GET", f"{live_server}/v1/jobs/deadbeef")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"
        status, body = request("GET", f"{live_server}/v2/jobs")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_wrong_method_is_405(self, live_server):
        status, body = request("GET", f"{live_server}/v1/jobs")
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"

    def test_healthz_contract(self, live_server):
        status, health = request("GET", f"{live_server}/v1/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert set(health["jobs"]) == {
            "queued", "running", "completed", "failed", "cancelled",
        }
        telemetry = health["telemetry"]
        assert telemetry["schema"] == "repro.telemetry/1"
        counters = telemetry["metrics"]["counters"]
        # Baseline contract: the service keys exist even at zero.
        for name in (
            "service.jobs_accepted",
            "service.jobs_deduped",
            "service.jobs_completed",
            "service.jobs_failed",
            "service.jobs_cancelled",
            "service.jobs_recovered",
            "service.jobs_rejected",
            "service.jobs_deadline_exceeded",
            "service.jobs_lost",
            "service.requests",
        ):
            assert name in counters, name
        assert "service.queue_depth" in telemetry["metrics"]["gauges"]
        assert "service.draining" in telemetry["metrics"]["gauges"]
        summaries = telemetry["metrics"]["histograms"]
        assert "service.request_seconds" in summaries
        # Healthz keeps the summary but drops the raw reservoir.
        assert "reservoir" not in summaries["service.request_seconds"]


# ----------------------------------------------------------------------
# SSE event streams
# ----------------------------------------------------------------------
class TestEventStreams:
    def test_job_stream_replays_full_lifecycle(self, live_server):
        spec = dict(TINY_SPEC, seed=53)
        status, body = request("POST", f"{live_server}/v1/jobs", spec)
        assert status in (200, 202)
        job_id = body["job"]["id"]

        messages = read_sse(f"{live_server}/v1/jobs/{job_id}/events")
        # The framing snapshot opens the stream, un-id'd (it is not a
        # journal event, so a reconnect must not resume past it).
        first_id, first_type, first_payload = messages[0]
        assert first_type == "job.state"
        assert first_id is None
        assert first_payload["id"] == job_id

        ids = [i for i, _, _ in messages[1:]]
        types = [t for _, t, _ in messages[1:]]
        assert types[0] == "job.accepted"
        assert "job.started" in types
        assert "job.progress" in types
        assert types[-1] == "job.completed"
        assert ids == sorted(ids)  # seqs strictly ordered
        assert len(set(ids)) == len(ids)
        assert all(p["job_id"] == job_id for _, _, p in messages[1:])
        assert messages[-1][2]["data"]["seconds"] > 0

    def test_resume_with_last_event_id_skips_replay(self, live_server):
        spec = dict(TINY_SPEC, seed=59)
        status, body = request("POST", f"{live_server}/v1/jobs", spec)
        assert status in (200, 202)
        job_id = body["job"]["id"]
        url = f"{live_server}/v1/jobs/{job_id}/events"

        full = read_sse(url)
        started_seq = next(
            i for i, t, _ in full if t == "job.started"
        )
        resumed = read_sse(url, last_event_id=started_seq)
        assert resumed[0][1] == "job.state"
        types = [t for _, t, _ in resumed[1:]]
        assert "job.accepted" not in types
        assert "job.started" not in types
        assert types[-1] == "job.completed"
        assert all(i > started_seq for i, _, _ in resumed[1:])

    def test_resume_past_the_end_closes_on_the_snapshot(self, live_server):
        job_id = completed_job_id(live_server)
        messages = read_sse(
            f"{live_server}/v1/jobs/{job_id}/events",
            last_event_id=10**9,
            timeout=30,
        )
        [(event_id, event_type, payload)] = messages
        assert event_id is None
        assert event_type == "job.state"
        assert payload["status"] == "completed"

    def test_invalid_last_event_id_is_400(self, live_server):
        job_id = completed_job_id(live_server)
        req = urllib.request.Request(
            f"{live_server}/v1/jobs/{job_id}/events",
            headers={"Last-Event-ID": "banana"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        assert (
            json.loads(excinfo.value.read().decode())["error"]["code"]
            == "invalid-last-event-id"
        )

    def test_stream_for_unknown_job_is_404(self, live_server):
        status, body = request(
            "GET", f"{live_server}/v1/jobs/deadbeef/events"
        )
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

    def test_global_stream_carries_every_job(self, live_server):
        completed_job_id(live_server)
        # The global stream never terminates; replay the journal from
        # the start and hang up once a terminal event arrives.
        messages = read_sse(
            f"{live_server}/v1/events",
            last_event_id=0,
            timeout=30,
            stop=lambda m: m[1] == "job.completed",
        )
        types = [t for _, t, _ in messages]
        assert "job.accepted" in types
        assert types[-1] == "job.completed"

    def test_events_endpoint_is_get_only(self, live_server):
        status, body = request("POST", f"{live_server}/v1/events", {})
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"

    def test_loadgen_follow_rides_the_stream(self, live_server):
        summary = run_load(
            live_server,
            spec=dict(TINY_SPEC, seed=61),
            duplicates=2,
            result_gets=2,
            follow=True,
        )
        # At minimum: accepted, started, one progress, completed (the
        # framing snapshot too, unless the job outran the connect).
        assert summary["follow_events"] >= 4


# ----------------------------------------------------------------------
# Prometheus scrape endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_page_parses_and_matches_healthz(self, live_server):
        completed_job_id(live_server)
        _, health = request("GET", f"{live_server}/v1/healthz")
        status, headers, page = fetch_raw(f"{live_server}/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )

        families = parse_exposition(page)
        counters = health["telemetry"]["metrics"]["counters"]
        # Nothing submits between the two reads, so job counters agree
        # exactly; service.requests only ever moves up (the healthz GET
        # itself is counted by the time the scrape renders).
        for name in (
            "service.jobs_accepted",
            "service.jobs_completed",
            "service.jobs_failed",
            "service.events_dropped",
        ):
            family = families[name.replace(".", "_")]
            assert family.type == "counter", name
            assert family.value() == counters[name], name
        assert (
            families["service_requests"].value()
            >= counters["service.requests"]
        )
        assert families["service_uptime_seconds"].type == "gauge"
        assert families["service_uptime_seconds"].value() >= 0
        summary = families["service_request_seconds"]
        assert summary.type == "summary"
        assert summary.value("_count") > 0
        assert summary.value("_sum") > 0
        assert summary.value("", {"quantile": "0.5"}) >= 0

    def test_scrape_is_get_only(self, live_server):
        status, body = request("POST", f"{live_server}/v1/metrics", {})
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"


# ----------------------------------------------------------------------
# Lifecycle over HTTP: cancellation, backpressure, drain
# ----------------------------------------------------------------------
# NOTE: placed after the module-scoped ``live_server`` tests on purpose.
# The ``lifecycle_server`` fixture resets the global metrics registry,
# which would otherwise erase the counters the live server registered.
def request_raw(
    method: str, url: str, payload: dict | None = None, timeout: float = 30.0
) -> tuple[int, dict, dict]:
    """Like :func:`request` but also returns the response headers."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return (
                resp.status,
                dict(resp.headers),
                json.loads(resp.read().decode()),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read().decode())


@pytest.fixture
def lifecycle_server():
    """A server over a controlled runner: jobs park until released."""
    observability.reset()
    observability.enable()
    started, release = threading.Event(), threading.Event()
    manager = JobManager(
        runner=_blocking_runner(started, release),
        job_workers=1,
        max_queue_depth=2,
    )
    background = BackgroundServer(manager)
    url = background.start()
    yield url, manager, started, release
    release.set()
    background.stop()
    observability.disable()
    observability.reset()


class TestLifecycleHttp:
    def test_delete_semantics(self, lifecycle_server):
        url, manager, started, release = lifecycle_server
        status, body = request("DELETE", f"{url}/v1/jobs/deadbeef")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

        status, body = request("POST", f"{url}/v1/jobs", TINY_SPEC)
        assert status == 202
        running_id = body["job"]["id"]
        assert started.wait(timeout=10)
        status, body = request(
            "POST", f"{url}/v1/jobs", dict(TINY_SPEC, seed=31)
        )
        queued_id = body["job"]["id"]

        # Queued: cancellation is immediate and terminal (200).
        status, body = request("DELETE", f"{url}/v1/jobs/{queued_id}")
        assert status == 200
        assert body["cancelling"] is False
        assert body["job"]["status"] == "cancelled"
        status, body = request("GET", f"{url}/v1/jobs/{queued_id}/result")
        assert status == 409
        assert body["error"]["code"] == "cancelled"
        # Terminal: a second DELETE is refused (409).
        status, body = request("DELETE", f"{url}/v1/jobs/{queued_id}")
        assert status == 409
        assert body["error"]["code"] == "job-terminal"

        # Running: cancellation is cooperative (202), lands at the
        # runner's next safe point.
        status, body = request("DELETE", f"{url}/v1/jobs/{running_id}")
        assert status == 202
        assert body["cancelling"] is True
        wait_for(
            lambda: request("GET", f"{url}/v1/jobs/{running_id}")[1][
                "job"
            ]["status"]
            == "cancelled"
        )

    def test_queue_full_is_429_with_retry_after(self, lifecycle_server):
        url, manager, started, release = lifecycle_server
        request("POST", f"{url}/v1/jobs", TINY_SPEC)
        assert started.wait(timeout=10)
        request("POST", f"{url}/v1/jobs", dict(TINY_SPEC, seed=31))
        # Depth 2/2 (one running, one queued): the next new spec sheds.
        status, headers, body = request_raw(
            "POST", f"{url}/v1/jobs", dict(TINY_SPEC, seed=32)
        )
        assert status == 429
        assert body["error"]["code"] == "queue-full"
        assert int(headers["Retry-After"]) >= 1
        # Duplicates of admitted work still dedupe at full depth.
        status, body = request("POST", f"{url}/v1/jobs", TINY_SPEC)
        assert status == 200
        assert body["deduped"] is True

    def test_readyz_flips_on_drain(self, lifecycle_server):
        url, manager, started, release = lifecycle_server
        status, body = request("GET", f"{url}/v1/readyz")
        assert status == 200
        assert body["status"] == "ready"
        assert body["draining"] is False

        manager.begin_drain()
        status, body = request("GET", f"{url}/v1/readyz")
        assert status == 503
        assert body["status"] == "draining"
        assert body["draining"] is True
        status, headers, body = request_raw(
            "POST", f"{url}/v1/jobs", TINY_SPEC
        )
        assert status == 503
        assert body["error"]["code"] == "draining"
        assert int(headers["Retry-After"]) >= 1
        # Liveness stays green while draining: the process is healthy,
        # it just will not take new work.
        status, _ = request("GET", f"{url}/v1/healthz")
        assert status == 200

    def test_jobs_path_allows_get_and_delete(self, lifecycle_server):
        url, *_ = lifecycle_server
        status, headers, body = request_raw(
            "PUT", f"{url}/v1/jobs/deadbeef"
        )
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"
        assert set(headers["Allow"].split(", ")) == {"GET", "DELETE"}


# ----------------------------------------------------------------------
# Kill-and-restart: a SIGKILLed build resumes from its checkpoint
# ----------------------------------------------------------------------
#: Slow enough (~1 s per grid cell) to be killed mid-build reliably.
RESUME_SPEC = {
    "kind": "table",
    "target": 1e-2,
    "calibration_samples": 2_000,
    "analysis_samples": 8_000,
    "sampler": "plain",
    "table_grid": 9,
    "seed": 13,
    "vbody_levels": [0.0],
}


def start_server(tmp_path: pathlib.Path) -> tuple[subprocess.Popen, str]:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--state-dir", str(tmp_path / "state"),
            "--checkpoint-every", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("listening on "), line
    return proc, line.split()[-1].strip()


@pytest.mark.slow
def test_kill_and_restart_recovers_from_ledger(tmp_path):
    proc, url = start_server(tmp_path)
    try:
        status, body = request("POST", f"{url}/v1/jobs", RESUME_SPEC)
        assert status == 202
        job_id = body["job"]["id"]

        def flushes() -> float:
            _, view = request("GET", f"{url}/v1/jobs/{job_id}")
            assert view["job"]["status"] in ("queued", "running"), (
                "build finished before it could be killed - slow the "
                "RESUME_SPEC down"
            )
            return view["job"]["progress"]["counters"]["checkpoint.flushes"]

        # Wait one flush beyond what we rely on: the counter ticks as
        # a flush starts, so SIGKILL right after the Nth observation
        # may lose that flush's cell (atomic-rename not yet done).
        wait_for(lambda: flushes() >= 3, timeout=60)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

    # The checkpoint directory holds the flushed cells and the state
    # directory the accepted/started ledger records.
    assert any((tmp_path / "ckpt").iterdir())
    assert (tmp_path / "state" / "jobs-ledger.jsonl").exists()

    proc, url = start_server(tmp_path)
    try:
        # No resubmission: the ledger replay alone re-enqueues the
        # killed job, and the build resumes from its checkpoints.
        status, view = request("GET", f"{url}/v1/jobs/{job_id}")
        assert status == 200
        assert view["job"]["recovered"] is True
        wait_for(
            lambda: request("GET", f"{url}/v1/jobs/{job_id}")[1]["job"][
                "status"
            ]
            == "completed",
            timeout=120,
        )
        _, view = request("GET", f"{url}/v1/jobs/{job_id}")
        counters = view["job"]["progress"]["counters"]
        assert counters["checkpoint.resumed_cells"] >= 1
        status, result = request("GET", f"{url}/v1/jobs/{job_id}/result")
        assert status == 200
        [surface] = result["result"]["surfaces"]
        assert len(surface["log10_probability"]["any"]) == 9
        status, health = request("GET", f"{url}/v1/healthz")
        health_counters = health["telemetry"]["metrics"]["counters"]
        assert health_counters["service.jobs_recovered"] >= 1
        assert health_counters["service.jobs_lost"] == 0
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Client resilience: retry policy, Retry-After, stream fallback
# ----------------------------------------------------------------------
def _canned_http_server(responses: list[bytes]):
    """Serve each canned raw response to one connection, in order.

    Returns ``(base_url, thread)``; the thread exits after the last
    response (or on accept timeout) and must be joined by the caller.
    """
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(30)
    port = listener.getsockname()[1]

    def serve() -> None:
        try:
            for response in responses:
                conn, _ = listener.accept()
                conn.settimeout(10)
                conn.recv(65536)
                conn.sendall(response)
                conn.close()
        except OSError:
            pass
        finally:
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{port}", thread


def _json_response(status_line: str, payload: dict, extra: str = "") -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"{status_line}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}Connection: close\r\n\r\n"
    ).encode() + body


class TestClientResilience:
    def test_retry_policy_is_deterministic_and_bounded(self):
        policy = ClientRetryPolicy()
        first = policy.delay("http://host/v1/jobs", 0)
        assert first == policy.delay("http://host/v1/jobs", 0)
        # base_delay * jitter, jitter in [0.5, 1.0).
        assert 0.1 <= first < 0.2
        # Exponential growth stays capped at max_delay.
        for attempt in range(12):
            delay = policy.delay("key", attempt)
            assert 0 < delay <= policy.max_delay
        # Different request keys decorrelate (no lockstep burst).
        assert policy.delay("a", 0) != policy.delay("b", 0)

    def test_retry_after_parsing(self):
        import email.message

        def exc(headers: dict) -> urllib.error.HTTPError:
            message = email.message.Message()
            for key, value in headers.items():
                message[key] = value
            return urllib.error.HTTPError(
                "http://x", 429, "too many", message, None
            )

        assert _retry_after_seconds(exc({"Retry-After": "3"})) == 3.0
        assert _retry_after_seconds(exc({"Retry-After": "bogus"})) == 0.0
        assert _retry_after_seconds(exc({})) == 0.0

    def test_request_retries_through_429(self, metrics_on):
        from repro.service.loadgen import _request

        url, thread = _canned_http_server([
            _json_response(
                "HTTP/1.1 429 Too Many Requests",
                {"error": {"code": "queue-full"}},
                extra="Retry-After: 0\r\n",
            ),
            _json_response("HTTP/1.1 200 OK", {"ok": True}),
        ])
        policy = ClientRetryPolicy(
            attempts=3, base_delay=0.01, max_delay=0.02
        )
        status, body = _request("GET", f"{url}/v1/x", retry=policy)
        thread.join(timeout=10)
        assert status == 200
        assert body == {"ok": True}
        counters = observability.registry.snapshot()["counters"]
        assert counters["service.client_retries"] == 1

    def test_request_without_policy_surfaces_the_429(self):
        from repro.service.loadgen import _request

        url, thread = _canned_http_server([
            _json_response(
                "HTTP/1.1 429 Too Many Requests",
                {"error": {"code": "queue-full"}},
                extra="Retry-After: 1\r\n",
            ),
        ])
        status, body = _request("GET", f"{url}/v1/x", retry=None)
        thread.join(timeout=10)
        assert status == 429
        assert body["error"]["code"] == "queue-full"

    def test_follow_falls_back_on_eof_midstream(self, metrics_on):
        # The server dies with the stream open: headers and a couple of
        # events arrive, then EOF without a terminal event.  _follow
        # must hand control back to the poll loop (None), not raise.
        url, thread = _canned_http_server([
            (
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Connection: close\r\n\r\n"
                b"event: job.progress\r\ndata: {\"seq\": 1}\r\n\r\n"
            ),
        ])
        assert _follow(url, "some-job", timeout=10) is None
        thread.join(timeout=10)
        counters = observability.registry.snapshot()["counters"]
        assert counters["service.client_stream_fallbacks"] == 1

    def test_follow_falls_back_on_connection_refused(self, metrics_on):
        import socket

        # Grab a port that is certainly closed.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert _follow(f"http://127.0.0.1:{port}", "j", timeout=5) is None


# ----------------------------------------------------------------------
# Run-scoped attribution: journal under concurrency, per-job telemetry,
# and concurrent execution (--job-workers) vs. the serial baseline
# ----------------------------------------------------------------------
class TestJournalConcurrency:
    def _interleave(self, journal, per_job=50):
        """Two threads, each emitting ``per_job`` events for its own job
        from inside that job's RunContext, started on a barrier so the
        appends genuinely interleave."""
        barrier = threading.Barrier(2)

        def emit(job_id: str) -> None:
            with observability.RunContext(job_id):
                barrier.wait(timeout=10)
                for i in range(per_job):
                    journal.append("job.progress", job_id=job_id, i=i)

        threads = [
            threading.Thread(target=emit, args=(job,))
            for job in ("job-a", "job-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

    def test_interleaved_seqs_stay_unique_and_monotone(self):
        journal = EventJournal(capacity=256)
        self._interleave(journal)
        events, truncated = journal.after(0)
        assert not truncated
        assert len(events) == 100
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 100

    def test_per_job_filter_sees_only_its_run(self):
        journal = EventJournal(capacity=256)
        self._interleave(journal)
        for job in ("job-a", "job-b"):
            events, truncated = journal.after(0, job_id=job)
            assert not truncated
            assert len(events) == 50
            # Ambient stamping: the run scope active on the emitting
            # thread supplied the run_id, no explicit argument.
            assert all(e.run_id == job for e in events)
            assert [e.data["i"] for e in events] == list(range(50))

    def test_per_job_resume_has_no_spurious_truncation_gap(self):
        # A job's events are sparse in the global sequence space (the
        # gaps belong to the other job).  Resuming from the last seen
        # seq must not read those gaps as eviction loss.
        journal = EventJournal(capacity=256)
        self._interleave(journal, per_job=20)
        events, _ = journal.after(0, job_id="job-a")
        midpoint = events[9].seq
        resumed, truncated = journal.after(midpoint, job_id="job-a")
        assert not truncated
        assert [e.data["i"] for e in resumed] == list(range(10, 20))

    def test_resume_after_eviction_flags_the_gap(self):
        journal = EventJournal(capacity=8)
        self._interleave(journal, per_job=20)  # 40 appends, 32 evicted
        assert journal.dropped == 32
        events, truncated = journal.after(0, job_id="job-a")
        assert truncated  # resume-from-zero lost events: flagged
        # Resuming from a still-buffered position is clean even though
        # earlier events (of both jobs) were evicted.
        all_events, _ = journal.after(0)
        events, truncated = journal.after(all_events[0].seq - 1)
        assert not truncated
        assert [e.seq for e in events] == [e.seq for e in all_events]
        # One seq earlier crosses the eviction boundary.
        events, truncated = journal.after(all_events[0].seq - 2)
        assert truncated


def _scope_probe_runner(barrier=None):
    """An injected runner with deterministic instrumentation: counter
    and span volume derived from the spec, so two different specs have
    provably different (and predictable) telemetry."""

    def runner(spec, **_opts):
        if barrier is not None:
            barrier.wait(timeout=60)
        from repro.observability.metrics import incr
        from repro.observability.tracing import trace

        with trace("probe.job"):
            for _ in range(spec["table_grid"]):
                with trace("probe.cell"):
                    incr("probe.cells")
            incr("mc.samples", spec["analysis_samples"])
        return {"grid": spec["table_grid"]}

    return runner


def _canon_trace(node):
    return {
        "name": node["name"],
        "calls": node["calls"],
        "children": [_canon_trace(child) for child in node["children"]],
    }


def _canon_telemetry(snapshot):
    """A telemetry snapshot with every timing stripped: identical for
    identical work, regardless of scheduling."""
    return {
        "schema": snapshot["schema"],
        "run_id": snapshot["run_id"],
        "counters": snapshot["metrics"]["counters"],
        "gauges": snapshot["metrics"]["gauges"],
        "trace": _canon_trace(snapshot["trace"]),
        "diagnostics": sorted(snapshot["diagnostics"].get("scopes", {})),
    }


class TestConcurrentJobs:
    SPEC_A = dict(TINY_SPEC, table_grid=5)
    SPEC_B = dict(TINY_SPEC, table_grid=7, seed=777)

    def _run_jobs(self, manager, specs):
        jobs = [manager.submit(dict(spec))[0] for spec in specs]
        for job in jobs:
            wait_for(lambda j=job: manager.get(j.id).status == "completed")
        return jobs

    def test_concurrent_results_and_telemetry_match_serial(self, metrics_on):
        serial = JobManager(runner=_scope_probe_runner(), job_workers=1)
        try:
            baseline = {
                job.id: (job.result, _canon_telemetry(job.telemetry_snapshot()))
                for job in self._run_jobs(serial, [self.SPEC_A, self.SPEC_B])
            }
        finally:
            serial.shutdown()

        observability.reset()
        observability.enable()
        # The barrier holds each job until BOTH occupy a worker slot:
        # the two jobs provably execute concurrently.
        barrier = threading.Barrier(2)
        concurrent = JobManager(
            runner=_scope_probe_runner(barrier), job_workers=2
        )
        try:
            jobs = self._run_jobs(concurrent, [self.SPEC_A, self.SPEC_B])
            assert {job.id for job in jobs} == set(baseline)
            for job in jobs:
                want_result, want_telemetry = baseline[job.id]
                assert job.result == want_result
                assert _canon_telemetry(job.telemetry_snapshot()) == want_telemetry
            counters = observability.snapshot()["metrics"]["counters"]
            assert counters.get("service.jobs_failed", 0.0) == 0.0
            assert counters["service.jobs_completed"] == 2.0
            assert counters.get("service.events_dropped", 0.0) == 0.0
        finally:
            concurrent.shutdown()

    def test_attribution_is_disjoint_and_exact(self, metrics_on):
        barrier = threading.Barrier(2)
        manager = JobManager(
            runner=_scope_probe_runner(barrier), job_workers=2
        )
        try:
            job_a, job_b = self._run_jobs(manager, [self.SPEC_A, self.SPEC_B])
            telem_a = manager.get(job_a.id).telemetry_snapshot()
            telem_b = manager.get(job_b.id).telemetry_snapshot()
        finally:
            manager.shutdown()
        # Each scope holds exactly its own job's work — not a share of
        # the global totals, not a delta polluted by the neighbour.
        assert telem_a["run_id"] == job_a.id
        assert telem_b["run_id"] == job_b.id
        assert telem_a["metrics"]["counters"]["probe.cells"] == 5.0
        assert telem_b["metrics"]["counters"]["probe.cells"] == 7.0
        assert telem_a["metrics"]["counters"]["mc.samples"] == 600.0
        assert telem_b["metrics"]["counters"]["mc.samples"] == 600.0
        for telem, cells in ((telem_a, 5), (telem_b, 7)):
            (root,) = [
                c for c in telem["trace"]["children"]
                if c["name"] == "probe.job"
            ]
            (cell,) = root["children"]
            assert cell["calls"] == cells
        # The process totals still have the whole-process counts.
        counters = observability.snapshot()["metrics"]["counters"]
        assert counters["probe.cells"] == 12.0
        # Progress reads the scope: exact per-job counters.
        assert manager.get(job_a.id).progress()["counters"]["mc.samples"] == 600.0

    def test_queued_job_has_no_telemetry_yet(self, metrics_on):
        started, release = threading.Event(), threading.Event()

        def runner(spec, **_opts):
            started.set()
            assert release.wait(timeout=30)
            return {"ok": True}

        manager = JobManager(runner=runner, job_workers=1)
        try:
            first, _ = manager.submit(dict(self.SPEC_A))
            assert started.wait(timeout=10)
            queued, _ = manager.submit(dict(self.SPEC_B))
            assert manager.get(queued.id).status == "queued"
            assert manager.get(queued.id).telemetry_snapshot() is None
            # The running job already serves a live snapshot.
            live = manager.get(first.id).telemetry_snapshot()
            assert live["run_id"] == first.id
            release.set()
            wait_for(lambda: manager.get(queued.id).status == "completed")
            assert manager.get(queued.id).telemetry_snapshot()["run_id"] == queued.id
        finally:
            release.set()
            manager.shutdown()

    def test_job_workers_validated(self):
        with pytest.raises(ValueError):
            JobManager(runner=lambda spec, **_o: {}, job_workers=0)

    def test_completed_job_persists_telemetry_beside_flights(
        self, metrics_on, tmp_path
    ):
        manager = JobManager(
            runner=_scope_probe_runner(), flight_dir=str(tmp_path)
        )
        try:
            [job] = self._run_jobs(manager, [self.SPEC_A])
        finally:
            manager.shutdown()
        [path] = list(tmp_path.glob("telemetry-*.json"))
        doc = json.loads(path.read_text())
        assert doc["run_id"] == job.id
        assert doc["schema"] == observability.SCHEMA
        assert doc["metrics"]["counters"]["probe.cells"] == 5.0
        assert not list(tmp_path.glob("flight-*.json"))  # no failure

    def test_corrupt_checkpoint_quarantined_without_perturbing_sibling(
        self, metrics_on, tmp_path
    ):
        """Satellite of the crash-safety story: a corrupt checkpoint hit
        by one of two concurrent real builds is quarantined (counted in
        that job's own scope) while the sibling's result stays
        bit-identical to its serial baseline."""
        from repro.experiments.context import ExperimentContext
        from repro.parallel.cache import fingerprint as cache_fingerprint

        serial = JobManager(job_workers=1, cache_dir=str(tmp_path / "serial"))
        try:
            baseline = {
                job.id: job.result
                for job in self._run_jobs(serial, [self.SPEC_A, self.SPEC_B])
            }
        finally:
            serial.shutdown()

        # Plant garbage at exactly the checkpoint path SPEC_A's table
        # build will try to resume from.
        conc_dir = tmp_path / "conc"
        spec_a = normalize_spec(self.SPEC_A)
        ctx = ExperimentContext.from_spec(
            spec_a, checkpoint_dir=str(conc_dir)
        )
        table = ctx.table(spec_a["vbody_levels"][0])
        corrupt_path = ctx.checkpoint_store.path(
            "failure-table",
            cache_fingerprint(
                table.analyzer.surface_key(
                    conditions=dataclasses.asdict(table.conditions),
                    grid=[float(x) for x in table.grid],
                )
            ),
        )
        corrupt_path.write_text("{ torn checkpoint")

        observability.reset()
        observability.enable()
        concurrent = JobManager(
            job_workers=2,
            cache_dir=str(conc_dir),
            checkpoint_dir=str(conc_dir),
        )
        try:
            job_a, job_b = self._run_jobs(
                concurrent, [self.SPEC_A, self.SPEC_B]
            )
            assert job_a.result == baseline[job_a.id]
            assert job_b.result == baseline[job_b.id]
            telem_a = concurrent.get(job_a.id).telemetry_snapshot()
            telem_b = concurrent.get(job_b.id).telemetry_snapshot()
        finally:
            concurrent.shutdown()
        # The quarantine is attributed to the job that hit it — the
        # sibling's scope is clean.
        counters_a = telem_a["metrics"]["counters"]
        counters_b = telem_b["metrics"]["counters"]
        assert counters_a["checkpoint.quarantined"] >= 1
        assert counters_b.get("checkpoint.quarantined", 0) == 0
        assert list(conc_dir.glob("*.ckpt.json.corrupt-*")) or list(
            conc_dir.glob("*.corrupt-1")
        )
        counters = observability.snapshot()["metrics"]["counters"]
        assert counters.get("service.jobs_failed", 0) == 0


class TestTelemetryEndpoint:
    def test_serves_the_jobs_own_snapshot(self, live_server):
        job_id = completed_job_id(live_server)
        status, body = request(
            "GET", f"{live_server}/v1/jobs/{job_id}/telemetry"
        )
        assert status == 200
        assert body["job_id"] == job_id
        assert body["run_id"] == job_id
        assert body["status"] == "completed"
        telemetry = body["telemetry"]
        assert telemetry["schema"] == observability.SCHEMA
        assert telemetry["run_id"] == job_id
        counters = telemetry["metrics"]["counters"]
        assert counters["mc.samples"] > 0
        # The progress block and the telemetry endpoint agree exactly:
        # both read the same frozen scope.
        _, view = request("GET", f"{live_server}/v1/jobs/{job_id}")
        for name, value in view["job"]["progress"]["counters"].items():
            assert counters.get(name, 0.0) == value

    def test_unknown_job_is_404(self, live_server):
        status, body = request(
            "GET", f"{live_server}/v1/jobs/deadbeef/telemetry"
        )
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

    def test_queued_job_is_409(self, metrics_on):
        started, release = threading.Event(), threading.Event()

        def runner(spec, **_opts):
            started.set()
            assert release.wait(timeout=30)
            return {"ok": True}

        manager = JobManager(runner=runner, job_workers=1)
        background = BackgroundServer(manager)
        url = background.start()
        try:
            first, _ = manager.submit(dict(TINY_SPEC))
            assert started.wait(timeout=10)
            queued, _ = manager.submit(
                dict(TINY_SPEC, seed=4242)
            )
            status, body = request(
                "GET", f"{url}/v1/jobs/{queued.id}/telemetry"
            )
            assert status == 409
            assert body["error"]["code"] == "not-started"
            # The running neighbour serves live telemetry meanwhile.
            status, body = request(
                "GET", f"{url}/v1/jobs/{first.id}/telemetry"
            )
            assert status == 200
            assert body["status"] == "running"
            assert body["telemetry"]["run_id"] == first.id
        finally:
            release.set()
            background.stop()


class TestServiceEventRunIds:
    def test_lifecycle_events_carry_the_job_run_id(self, metrics_on):
        manager = JobManager(runner=_scope_probe_runner())
        try:
            job, _ = manager.submit(dict(TINY_SPEC))
            wait_for(lambda: manager.get(job.id).status == "completed")
            events, _ = manager.journal.after(0, job_id=job.id)
        finally:
            manager.shutdown()
        assert [e.type for e in events][0] == "job.accepted"
        assert events[-1].type == "job.completed"
        assert all(e.run_id == job.id for e in events)
        assert all(e.wire()["run_id"] == job.id for e in events)


#: The fig2c-style adaptive-IS sweep the warm burst serves.
SWEEP_SPEC = {
    "kind": "table",
    "target": 1e-4,
    "calibration_samples": 2_500,
    "analysis_samples": 384,
    "sampler": "adaptive-is",
    "table_grid": 5,
    "seed": 11,
    "vbody_levels": [0.0, 0.3],
}


def test_warm_burst_is_served_from_memory(metrics_on, tmp_path):
    """After the cold build, duplicate submits dedupe, result reads
    come back at memcache-like latency, and nothing is recomputed."""
    manager = JobManager(cache_dir=tmp_path, checkpoint_dir=tmp_path)
    background = BackgroundServer(manager)
    url = background.start()
    try:
        run_load(url, SWEEP_SPEC, duplicates=0, result_gets=1, timeout=600)
        observability.reset()
        run_load(
            url, SWEEP_SPEC, duplicates=10, result_gets=30, timeout=60,
            follow=True,
        )
        metrics = observability.snapshot()["metrics"]
    finally:
        background.stop()
    counters = metrics["counters"]
    # The burst runs with no queue bound and no crash: nothing may
    # fail, be shed at admission, or be declared unrecoverable.
    for name in (
        "service.jobs_failed",
        "service.jobs_lost",
        "service.jobs_rejected",
        "service.events_dropped",
        "mc.samples",
    ):
        assert counters.get(name, 0) == 0, name
    for name in (
        "service.jobs_deduped",
        "service.requests",
        "service.events",
    ):
        assert counters.get(name, 0) > 0, name
    # The cold build takes seconds, so an accidental recompute would
    # blow this bound by orders of magnitude.
    assert metrics["histograms"]["service.client_result_seconds"]["p95"] <= 0.25
