"""Job lifecycle for the yield-analysis service.

A job is one normalized spec (see :mod:`repro.service.spec`) moving
through ``queued -> running -> completed | failed | cancelled``.  The
:class:`JobManager` owns the registry of jobs, dedupes submissions by
the spec fingerprint (which *is* the job id), and executes each job
inside its own :class:`~repro.observability.context.RunContext` with
``run_id == job_id``: every counter bump, span, and diagnostic the
job produces lands in the job's own scope (exactly — not
reconstructed from global-counter deltas), which folds into the
process-wide totals when the job's context exits.  Because attribution is scoped, jobs may execute concurrently
(``job_workers > 1``) with per-job progress, results, and telemetry
identical to a serial run; concurrency *inside* a job still comes from
the :class:`~repro.parallel.executor.ParallelExecutor` fan-out over
grid cells.  A job's final scope snapshot is frozen at the terminal
transition, persisted beside the flight-recorder dumps, and served at
``GET /v1/jobs/{id}/telemetry``.

Crash-safe lifecycle (see ``docs/robustness.md``):

* every transition goes through :meth:`JobManager._emit` into the
  event journal; with a ``state_dir`` the journal's durable sink, a
  :class:`~repro.service.ledger.JobLedger`, records each accepted,
  started and terminal event before it is visible.  On boot the
  ledger is replayed and every job the previous process still owed is
  re-enqueued (``service.jobs_recovered``) to resume through its
  checkpoints;
* :meth:`JobManager.begin_drain` / :meth:`JobManager.drain` implement
  graceful shutdown — new work is rejected (503 upstream), running
  jobs checkpoint-and-finish within a timeout;
* ``max_queue_depth`` bounds admission (429 upstream), a spec-borne
  ``deadline_s`` bounds job runtime, and :meth:`JobManager.cancel`
  stops a job cooperatively at its next checkpoint boundary.

Admissions, dedupes, recoveries and terminal transitions are counted
as ``service.jobs_<transition>`` under the ``repro.telemetry/1``
schema; ``docs/service.md`` lists every service counter, gauge and
histogram.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import cancellation, durable, faults
from repro.checkpoint import FLUSH_EVERY
from repro.experiments.asb import HoldProbabilityTable
from repro.experiments.context import ExperimentContext
from repro.failures.analysis import MECHANISMS
from repro.observability.context import RunContext, RunScope
from repro.observability.log import get_logger
from repro.observability.metrics import incr, observe, registry, set_gauge
from repro.service.journal import EventJournal
from repro.service.ledger import TERMINAL_TYPES, JobLedger
from repro.service.spec import (
    SpecError,
    job_cells,
    normalize_spec,
    spec_fingerprint,
)

_log = get_logger("service.jobs")

#: Counters the per-job progress report carries, read from the job's
#: own run scope — exact attribution regardless of how many jobs are
#: executing concurrently.
PROGRESS_COUNTERS = (
    "mc.samples",
    "mc.estimates",
    "solver.calls",
    "cache.hits",
    "cache.misses",
    "checkpoint.flushes",
    "checkpoint.resumed_cells",
    "checkpoint.completed_cells",
)

#: Job lifecycle states.  The terminal ones are the ledger's
#: ``TERMINAL_TYPES``: a job never leaves them on its own (a
#: resubmission of a failed or cancelled job retries it in place; a
#: completed job serves warm).
JOB_STATUSES = ("queued", "running", "completed", "failed", "cancelled")

#: Terminal states a resubmission restarts instead of attaching to.
RETRYABLE_STATUSES = ("failed", "cancelled")

#: Transitions counted as ``service.jobs_<name>``.
_COUNTED = (
    "accepted", "deduped", "recovered", "completed", "failed", "cancelled",
)


class AdmissionError(RuntimeError):
    """A submission was refused before any work was queued.

    Attributes:
        code: stable wire-error code (``queue-full`` / ``draining``).
        retry_after: seconds the client should wait before retrying —
            surfaced as the HTTP ``Retry-After`` header.
    """

    code = "rejected"

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class QueueFullError(AdmissionError):
    """The bounded queue is at ``max_queue_depth`` (HTTP 429)."""

    code = "queue-full"


class DrainingError(AdmissionError):
    """The service is draining and accepts no new work (HTTP 503)."""

    code = "draining"


def run_spec(
    spec: dict,
    workers: int = 1,
    cache_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = FLUSH_EVERY,
) -> dict:
    """Execute one normalized spec; return the JSON-ready result.

    This is the default job runner: it builds an
    :meth:`ExperimentContext.from_spec` context (so the build shards
    over the executor, persists to the result cache, and checkpoints
    mid-build) and evaluates the requested surface at its own grid
    nodes.

    Cancellation safe points: the ambient
    :mod:`repro.cancellation` token is polled between surfaces here
    and between checkpoint slices inside each build, so a cancelled or
    deadline-expired job stops with its last flush already durable.
    """
    cancellation.check_active()
    ctx = ExperimentContext.from_spec(
        spec,
        workers=workers,
        cache_dir=cache_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    if spec["kind"] == "table":
        surfaces = []
        corner_grid: list[float] = []
        for vbody in spec["vbody_levels"]:
            cancellation.check_active()
            table = ctx.table(vbody)
            corner_grid = [float(x) for x in table.grid]
            surfaces.append(
                {
                    "vbody": vbody,
                    "log10_probability": {
                        name: [
                            float(v)
                            for v in np.log10(
                                np.clip(
                                    table.series(table.grid, name),
                                    1e-300,
                                    1.0,
                                )
                            )
                        ]
                        for name in MECHANISMS + ("any",)
                    },
                    "diagnostics": dataclasses.asdict(table.diagnostics),
                }
            )
        return {
            "kind": "table",
            "corner_grid": corner_grid,
            "surfaces": surfaces,
        }

    corner_grid = [
        float(x) for x in np.linspace(-0.12, 0.12, spec["corner_points"])
    ]
    table = HoldProbabilityTable(
        ctx,
        corner_grid=np.array(corner_grid),
        vsb_grid=np.array(spec["vsb_levels"]),
    )
    return {
        "kind": "hold-surface",
        "corner_grid": corner_grid,
        "vsb_levels": spec["vsb_levels"],
        "log10_probability": [
            [
                float(np.log10(max(table.probability(c, v), 1e-300)))
                for v in spec["vsb_levels"]
            ]
            for c in corner_grid
        ],
        "diagnostics": dataclasses.asdict(table.diagnostics),
    }


@dataclass
class Job:
    """One spec's journey through the service."""

    id: str
    spec: dict
    status: str = "queued"
    submissions: int = 1
    created_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: Wire error code for a terminal non-success (``cancelled`` /
    #: ``deadline-exceeded``; ``None`` for an ordinary failure).
    error_code: str | None = None
    #: True when this job was re-enqueued from the durable ledger on
    #: boot rather than submitted over HTTP in this process's lifetime.
    recovered: bool = False
    result: dict | None = None
    #: Cooperative stop signal, polled by the build at checkpoint
    #: boundaries; replaced on retry so an old cancellation cannot
    #: leak into the new attempt.
    cancel_token: cancellation.CancelToken = field(
        default_factory=cancellation.CancelToken, repr=False
    )
    #: The job's run scope (``run_id == id``), created when execution
    #: starts; everything the job does is collected here, exactly.
    scope: RunScope | None = field(default=None, repr=False)
    #: Final per-job counter values, frozen at the terminal transition.
    final_counters: dict[str, float] | None = None
    #: Final scope snapshot (``repro.telemetry/1`` + ``run_id``),
    #: frozen at the terminal transition and served at
    #: ``GET /v1/jobs/{id}/telemetry``.
    telemetry: dict | None = field(default=None, repr=False)

    def progress(self) -> dict:
        """The wire-format progress block (see docs/service.md).

        Counters are read live from the job's own run scope — exact
        per-job attribution at any ``job_workers`` width.
        ``cells_done`` is exact when the server runs with a checkpoint
        directory (the checkpoint store counts completed/resumed cells
        at the same granularity the build shards in); without one it is
        ``None`` and the raw counters still tell the story.
        """
        cells_total = job_cells(self.spec)
        if self.final_counters is not None:
            counters = dict(self.final_counters)
        elif self.scope is not None:
            counters = {
                name: self.scope.counter_value(name)
                for name in PROGRESS_COUNTERS
            }
        else:  # queued: nothing attributable yet
            counters = {name: 0.0 for name in PROGRESS_COUNTERS}
        checkpointed = (
            counters["checkpoint.completed_cells"]
            + counters["checkpoint.resumed_cells"]
        )
        cells_done: float | None
        if self.status == "completed":
            cells_done = float(cells_total)
        elif checkpointed > 0:
            cells_done = min(float(cells_total), checkpointed)
        else:
            cells_done = None
        return {
            "cells_total": cells_total,
            "cells_done": cells_done,
            "counters": counters,
        }

    def view(self) -> dict:
        """The wire-format job object (``GET /v1/jobs/{id}``)."""
        elapsed = None
        if self.started_at is not None:
            end = self.finished_at if self.finished_at is not None else time.time()
            elapsed = round(end - self.started_at, 6)
        return {
            "id": self.id,
            "run_id": self.id,
            "kind": self.spec["kind"],
            "status": self.status,
            "spec": self.spec,
            "submissions": self.submissions,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_seconds": elapsed,
            "error": self.error,
            "error_code": self.error_code,
            "recovered": self.recovered,
            "progress": self.progress(),
        }

    def telemetry_snapshot(self) -> dict | None:
        """The job's telemetry: frozen if terminal, live if running.

        ``None`` while the job is still queued (no scope exists yet).
        A live snapshot races the job thread's writes, so dict
        iteration may transiently fail; retried a few times — the
        scope is only ever appended to, never torn down mid-run.
        """
        if self.telemetry is not None:
            return self.telemetry
        if self.scope is None:
            return None
        for _ in range(5):
            try:
                return self.scope.snapshot()
            except RuntimeError:  # pragma: no cover - write race
                continue
        return self.scope.snapshot()  # pragma: no cover - write race


class JobManager:
    """Owns job state, dedupe, and the job execution pool.

    Args:
        workers: ``ParallelExecutor`` fan-out width inside each job.
        job_workers: how many jobs may execute concurrently (default
            1 — serial, the pre-existing behaviour).  Safe to raise
            because attribution is run-scoped: each job's progress and
            telemetry come from its own scope, so results and per-job
            snapshots are identical at any width.
        cache_dir: result-cache directory; warm resubmissions of a
            completed-and-evicted job reload from here instead of
            recomputing (and two jobs sharing sub-artifacts share them).
        checkpoint_dir: checkpoint directory; a job killed mid-build
            (server crash, restart) resumes from the last flush when
            the same spec is resubmitted.
        checkpoint_every: completed cells per checkpoint flush.
        runner: job execution callable ``(spec, **exec_opts) -> result``
            — :func:`run_spec` by default, injectable for tests.
        journal_capacity: ring-buffer size of the event journal.
        progress_interval: seconds between ``job.progress`` events for
            a running job.
        flight_dir: where failed jobs dump their flight-recorder JSON
            and completed/failed jobs persist their telemetry snapshot
            (defaults to ``checkpoint_dir``, then ``cache_dir``; with
            neither configured both stay in-memory only).
        state_dir: durable-ledger directory; every lifecycle transition
            is WAL'd here and replayed on construction, so jobs the
            previous process accepted but never finished are
            re-enqueued automatically.  ``None`` (default) disables
            the ledger — the pre-existing in-memory behaviour.
        max_queue_depth: bound on jobs queued-or-running; a new-job
            submission beyond it raises :class:`QueueFullError`
            (mapped to HTTP 429).  ``None`` (default) is unbounded.
        retry_after_s: the ``Retry-After`` hint attached to admission
            rejections.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = FLUSH_EVERY,
        runner=run_spec,
        journal_capacity: int = 1024,
        progress_interval: float = 0.5,
        flight_dir: str | None = None,
        job_workers: int = 1,
        state_dir: str | None = None,
        max_queue_depth: int | None = None,
        retry_after_s: float = 1.0,
    ) -> None:
        if job_workers < 1:
            raise ValueError(f"job_workers must be >= 1, got {job_workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.workers = workers
        self.job_workers = job_workers
        self.cache_dir = cache_dir
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self._runner = runner
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._draining = False
        self.max_queue_depth = max_queue_depth
        self.retry_after_s = float(retry_after_s)
        self._pool = ThreadPoolExecutor(
            max_workers=job_workers, thread_name_prefix="repro-service-job"
        )
        self.journal = EventJournal(journal_capacity)
        if state_dir:
            self.journal.ledger = JobLedger(state_dir)
        self.progress_interval = progress_interval
        self.flight_dir = flight_dir or checkpoint_dir or cache_dir
        self.started_at = time.time()
        # Uptime is derived from the monotonic clock: a wall-clock step
        # (NTP slew, DST, operator settimeofday) must not make healthz
        # uptime jump or go negative.  ``started_at`` stays wall-clock
        # for display.
        self.started_monotonic = time.monotonic()
        # Baseline-counter contract (cf. observability._BASELINE_COUNTERS):
        # every healthz/telemetry consumer may rely on the service keys
        # existing, even before the first job — so a burst with zero
        # failures reports `service.jobs_failed = 0`, not a missing key.
        for name in (
            *(f"service.jobs_{name}" for name in _COUNTED),
            "service.jobs_rejected",
            "service.jobs_deadline_exceeded",
            "service.jobs_lost",
            "service.requests",
            "service.events",
            "service.events_dropped",
        ):
            registry.counter(name)
        registry.gauge("service.queue_depth")
        set_gauge("service.draining", 0)
        self._recover()

    def uptime_seconds(self) -> float:
        """Monotonic seconds since this manager was constructed."""
        return time.monotonic() - self.started_monotonic

    # ------------------------------------------------------------------
    # Submission / lookup (called from the HTTP handlers)
    # ------------------------------------------------------------------
    def submit(self, raw_spec: object) -> tuple[Job, bool]:
        """Queue a spec (or attach to its existing job).

        Returns ``(job, created)`` — ``created`` is False when the
        submission deduped onto a live or completed job.  A job that
        previously *failed* (or was cancelled) is retried: same id,
        state reset to queued.  Raises
        :class:`~repro.service.spec.SpecError` on an invalid spec and
        :class:`AdmissionError` when new work is refused (bounded
        queue, drain in progress, or an injected ``reject_burst``).
        Dedupes are never refused — attaching to existing work costs
        nothing and is exactly what a retrying client needs.
        """
        spec = normalize_spec(raw_spec)
        job_id = spec_fingerprint(spec)
        plan = faults.active_plan()
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.status not in RETRYABLE_STATUSES:
                job.submissions += 1
                self._emit(
                    "job.deduped", job, status=job.status,
                    submissions=job.submissions,
                )
                return job, False
            self._admit_locked(job_id, plan)
            if job is None:
                job = Job(id=job_id, spec=spec, created_at=time.time())
            else:
                # Retry of a failed/cancelled job: same id, submission
                # count and creation time; fresh state otherwise.
                job = Job(
                    id=job_id, spec=job.spec,
                    submissions=job.submissions + 1,
                    created_at=job.created_at,
                )
            self._jobs[job_id] = job
            self._update_queue_depth_locked()
        # The accepted record is durable before the client hears "201":
        # a crash after this point owes the job; a crash before it
        # never acknowledged the submission.
        self._emit(
            "job.accepted", job,
            record={
                "spec": job.spec,
                "submissions": job.submissions,
                "created_at": job.created_at,
            },
            kind=spec["kind"], submissions=job.submissions,
        )
        self._pool.submit(self._execute, job_id)
        return job, True

    def _admit_locked(self, job_id: str, plan) -> None:
        """Admission control for genuinely new work (lock held)."""
        if self._draining:
            incr("service.jobs_rejected")
            _log.warning("job.rejected", job_id=job_id, reason="draining")
            raise DrainingError(
                "service is draining; no new work accepted",
                retry_after=self.retry_after_s,
            )
        if (
            plan is not None
            and plan.service_action("reject_burst", "admission") is not None
        ):
            incr("service.jobs_rejected")
            _log.warning(
                "job.rejected", job_id=job_id, reason="reject_burst"
            )
            raise QueueFullError(
                "queue full (injected reject burst)",
                retry_after=self.retry_after_s,
            )
        if self.max_queue_depth is not None:
            depth = self._depth_locked()
            if depth >= self.max_queue_depth:
                incr("service.jobs_rejected")
                _log.warning(
                    "job.rejected", job_id=job_id,
                    reason="queue-full", depth=depth,
                )
                raise QueueFullError(
                    f"queue full ({depth}/{self.max_queue_depth} jobs "
                    "queued or running)",
                    retry_after=self.retry_after_s,
                )

    def cancel(self, job_id: str) -> tuple[Job | None, str]:
        """Request cancellation of one job (``DELETE /v1/jobs/{id}``).

        Returns ``(job, outcome)``:

        * ``("missing")`` — no such job (404 upstream);
        * ``("terminal")`` — already completed/failed/cancelled; the
          transition is refused (409 upstream) because terminal state,
          including a completed result, is immutable;
        * ``("cancelled")`` — the job was still queued and is now
          terminally cancelled (200 upstream);
        * ``("cancelling")`` — the job is running; its token is
          cancelled and the build will stop at the next checkpoint
          boundary (202 upstream).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None, "missing"
            if job.status in TERMINAL_TYPES:
                return job, "terminal"
            if job.status == "queued":
                job.status = "cancelled"
                job.error = "cancelled before start"
                job.error_code = "cancelled"
                job.finished_at = time.time()
                job.cancel_token.cancel()
                self._update_queue_depth_locked()
                outcome = "cancelled"
            else:
                job.cancel_token.cancel()
                outcome = "cancelling"
        if outcome == "cancelled":
            self._emit(
                "job.cancelled", job, record={"error": job.error},
                phase="queued",
            )
        else:
            self._emit("job.cancel_requested", job)
        return job, outcome

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state (the healthz ``jobs`` block)."""
        with self._lock:
            out = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                out[job.status] += 1
            return out

    def queue_depth(self) -> int:
        with self._lock:
            return self._depth_locked()

    def shutdown(self) -> None:
        """Stop accepting work; running jobs are abandoned (their
        checkpoints make a later resubmission resume, not restart)."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` has been called."""
        return self._draining

    def begin_drain(self) -> None:
        """Flip the manager into drain mode (idempotent).

        New-job submissions raise :class:`DrainingError` from here on
        (dedupes onto existing jobs still work — a retrying client must
        be able to find its job), ``/v1/readyz`` goes 503 upstream, and
        the ``service.draining`` gauge goes to 1.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        set_gauge("service.draining", 1)
        _log.warning("service.draining")

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: let running jobs finish, strand nothing.

        Queued-but-unstarted jobs have their pool futures cancelled —
        with a ledger they stay ``accepted`` on disk and are recovered
        on the next boot; running jobs get up to ``timeout`` seconds to
        checkpoint-and-finish.  Returns True when nothing is left
        running (a False return still exits cleanly upstream: the
        stragglers' checkpoints plus ledger records make the next boot
        resume them).
        """
        self.begin_drain()
        self._pool.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                running = sum(
                    1
                    for job in self._jobs.values()
                    if job.status == "running"
                )
            if running == 0:
                _log.info("service.drained")
                return True
            if time.monotonic() >= deadline:
                _log.warning("service.drain_timeout", running=running)
                return False
            time.sleep(0.05)

    # ------------------------------------------------------------------
    # Transitions and crash recovery
    # ------------------------------------------------------------------
    def _emit(
        self, type_: str, job: Job, record: dict | None = None, **data
    ) -> None:
        """One job transition: counted, logged, and journaled.

        ``data`` is the event payload; ``record`` holds the ledger
        fields of a durable transition, which the journal writes to its
        ledger before the event becomes visible.
        """
        name = type_.removeprefix("job.")
        if name in _COUNTED:
            incr(f"service.jobs_{name}")
        log = _log.warning if name == "failed" else _log.info
        log(type_, job_id=job.id, run_id=job.id, **data)
        self.journal.append(
            type_, job_id=job.id, run_id=job.id, record=record, **data
        )

    def _recover(self) -> None:
        """Replay the ledger; re-enqueue every job the last boot owed.

        Jobs whose latest record is terminal are dropped (their results
        live in the result cache).  A non-terminal job without an
        intact ``accepted`` record (torn write on the only line that
        carries the spec) cannot be re-run and is counted as
        ``service.jobs_lost`` — loudly, in logs and healthz, rather
        than silently forgotten.  The ledger is then compacted to the
        live set.
        """
        ledger = self.journal.ledger
        if ledger is None:
            return
        states, skipped = ledger.replay()
        live: dict[str, dict] = {}
        lost = 0
        for job_id, state in sorted(states.items()):
            if state["status"] in TERMINAL_TYPES:
                continue
            raw_spec = state.get("spec")
            try:
                if not isinstance(raw_spec, dict):
                    raise SpecError(
                        "invalid-spec", "no intact accepted record"
                    )
                spec = normalize_spec(raw_spec)
                if spec_fingerprint(spec) != job_id:
                    raise SpecError(
                        "invalid-spec", "spec does not match job id"
                    )
            except SpecError as exc:
                lost += 1
                _log.warning(
                    "ledger.job_lost", job_id=job_id, reason=str(exc)
                )
                continue
            state["spec"] = spec
            live[job_id] = state
        if lost:
            incr("service.jobs_lost", lost)
        ledger.compact(live)
        if not live:
            return
        order = sorted(
            live.items(), key=lambda kv: (kv[1]["created_at"] or 0.0, kv[0])
        )
        for job_id, state in order:
            job = Job(
                id=job_id,
                spec=state["spec"],
                submissions=int(state["submissions"]),
                created_at=float(state["created_at"] or time.time()),
                recovered=True,
            )
            with self._lock:
                self._jobs[job_id] = job
                self._update_queue_depth_locked()
            self._emit(
                "job.recovered", job, kind=job.spec["kind"],
                submissions=job.submissions,
            )
            self._pool.submit(self._execute, job_id)

    # ------------------------------------------------------------------
    # Execution (worker thread)
    # ------------------------------------------------------------------
    def _depth_locked(self) -> int:
        """Jobs queued or running (lock held)."""
        return sum(
            job.status in ("queued", "running") for job in self._jobs.values()
        )

    def _update_queue_depth_locked(self) -> None:
        set_gauge("service.queue_depth", self._depth_locked())

    def _progress_event(self, job: Job) -> None:
        self.journal.append(
            "job.progress", job_id=job.id, run_id=job.id, **job.progress()
        )

    def _freeze_scope_locked(self, job: Job) -> None:
        """Freeze the job's final counters and telemetry off its scope.

        Called before the terminal service accounting (``incr`` of
        ``service.jobs_completed`` etc. happens inside the job's
        RunContext), so the frozen snapshot contains exactly the job's
        own work and nothing of the manager's bookkeeping.
        """
        job.final_counters = {
            name: job.scope.counter_value(name) for name in PROGRESS_COUNTERS
        }
        job.telemetry = job.scope.snapshot()

    def _execute(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            if job.status != "queued":  # cancelled-while-queued, retry race
                return
            job.status = "running"
            job.started_at = time.time()
            job.scope = RunScope(job_id)
            token = job.cancel_token
            deadline_s = job.spec.get("deadline_s")
        plan = faults.active_plan()
        if plan is not None:
            hit = plan.service_action("job_deadline", "job.start")
            if hit is not None:
                deadline_s = hit.seconds
                _log.warning(
                    "job.deadline_injected", job_id=job_id,
                    seconds=deadline_s,
                )
        if deadline_s is not None:
            # The budget runs from *submission*, so queue time counts —
            # a job recovered after a long outage can be already due.
            remaining = job.created_at + float(deadline_s) - time.time()
            token.set_deadline(max(0.0, remaining))
        # The whole execution — including terminal logging — runs
        # inside the job's RunContext: instrumentation writes into the
        # job's scope and every log event is stamped run_id=job_id.
        with RunContext(scope=job.scope):
            # The started record is durable before any work happens: a
            # crash mid-build replays as "owed" and resumes on next boot.
            self._emit("job.started", job, kind=job.spec["kind"])
            # Every job emits at least one progress event (even one
            # that finishes inside the first ticker interval), so
            # stream clients always see accepted -> started ->
            # progress -> terminal.
            self._progress_event(job)
            ticker_stop = threading.Event()

            def _tick() -> None:
                while not ticker_stop.wait(self.progress_interval):
                    self._progress_event(job)

            ticker = threading.Thread(
                target=_tick, name="repro-service-progress", daemon=True
            )
            ticker.start()
            result = error = code = None
            try:
                with cancellation.active(token):
                    token.check()
                    result = self._runner(
                        job.spec,
                        workers=self.workers,
                        cache_dir=self.cache_dir,
                        checkpoint_dir=self.checkpoint_dir,
                        checkpoint_every=self.checkpoint_every,
                    )
                status = "completed"
            except cancellation.CancelledError as exc:
                # A deadline expiry counts as a *failure* (the service
                # broke its budget promise) with wire code
                # ``deadline-exceeded``; an operator cancellation gets
                # its own terminal status.  Either way the last
                # checkpoint flush is already on disk, so a
                # resubmission resumes rather than restarts.
                deadline = isinstance(exc, cancellation.DeadlineExceeded)
                status = "failed" if deadline else "cancelled"
                error, code = str(exc), exc.code
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                status = "failed"
                error = f"{type(exc).__name__}: {exc}"
            finally:
                ticker_stop.set()
                ticker.join()
            self._finish(job, status, result, error, code)

    def _finish(
        self,
        job: Job,
        status: str,
        result: dict | None,
        error: str | None,
        error_code: str | None,
    ) -> None:
        """The terminal transition of a job that ran."""
        with self._lock:
            job.status = status
            job.result = result
            job.error = error
            job.error_code = error_code
            job.finished_at = time.time()
            self._freeze_scope_locked(job)
            self._update_queue_depth_locked()
        seconds = job.finished_at - job.started_at
        observe("service.job_seconds", seconds)
        if status == "completed":
            self._emit("job.completed", job, seconds=round(seconds, 6))
        elif status == "cancelled":
            self._emit(
                "job.cancelled", job, record={"error": error},
                phase="running",
            )
        else:
            fields = {"error": error}
            if error_code is not None:
                incr("service.jobs_deadline_exceeded")
                fields["error_code"] = error_code
            self._emit("job.failed", job, record=fields, **fields)
            # The terminal job.failed event is already journaled, so
            # the current sequence number is unique per failure — a
            # retried-and-refailed job gets a fresh dump, never a
            # clobbered one.
            self._dump(
                job,
                f"flight-{job.id[:16]}-{self.journal.last_seq}.json",
                {
                    "schema": "repro.flight/1",
                    "job": job.view(),
                    "dropped_events": self.journal.dropped,
                    "events": self.journal.snapshot(),
                },
            )
        self._dump(job, f"telemetry-{job.id[:16]}.json", job.telemetry)

    def _dump(self, job: Job, name: str, payload: dict) -> None:
        """Write one post-mortem JSON file (flight recorder, telemetry).

        Atomic, so a crash mid-dump leaves no torn file under the final
        name; best-effort, so a disk error is logged and never masks
        the job's own outcome.
        """
        if not self.flight_dir:
            return
        path = os.path.join(self.flight_dir, name)
        try:
            durable.ensure_dir(self.flight_dir)
            durable.atomic_write_text(path, json.dumps(payload, indent=2))
        except OSError as exc:
            _log.warning("dump.write_failed", job_id=job.id, path=path,
                         error=str(exc))
            return
        _log.info("dump.written", job_id=job.id, path=path)
