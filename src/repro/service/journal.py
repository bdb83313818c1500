"""Bounded event journal for the job server.

Every job lifecycle transition (and periodic progress while running)
becomes one :class:`Event` in a fixed-capacity ring buffer owned by the
:class:`~repro.service.jobs.JobManager`.  The journal powers three
things:

* the **SSE streams** (``GET /v1/events``, ``GET /v1/jobs/{id}/events``)
  — clients replay from any sequence number via ``Last-Event-ID`` and
  then follow live appends;
* the loadgen ``--follow`` mode — event-driven completion instead of
  polling ``GET /v1/jobs/{id}``;
* the **flight recorder** — when a job fails, the ring as it stood is
  dumped to disk next to the failure, preserving the lead-up that a
  post-hoc status query cannot reconstruct.

With a :class:`~repro.service.ledger.JobLedger` attached, the journal
is also the one append path of the durable log: an ``accepted``,
``started`` or terminal event is written to the ledger (sealed,
``fsync``'d) *before* it enters the ring, so nothing a client can see
is lost to a crash.

Capacity is a hard bound: the oldest event is evicted on overflow and
``service.events_dropped`` counts the loss (the warm-burst test in
``tests/test_service.py`` holds it at zero under the standard burst).  Sequence
numbers are global, monotonically increasing from 1, and never reused,
so a resuming client can always tell replay from gap.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.observability import _state
from repro.observability.log import get_logger
from repro.observability.metrics import incr
from repro.service.ledger import RECORD_TYPES, TERMINAL_TYPES, JobLedger

_log = get_logger("service.journal")

#: Event types the attached ledger records, as ``job.<record type>``.
DURABLE_EVENTS = frozenset(f"job.{type_}" for type_ in RECORD_TYPES)


@dataclass(frozen=True)
class Event:
    """One journal entry (immutable once appended)."""

    seq: int
    ts: float
    type: str
    job_id: str | None
    #: The run this event belongs to (the job id for job lifecycle
    #: events — the manager runs every job as run_id == job_id).
    run_id: str | None = None
    data: dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        """True for the last event of its job (completed/failed/cancelled)."""
        return self.type.removeprefix("job.") in TERMINAL_TYPES

    def wire(self) -> dict:
        """The JSON payload carried in an SSE ``data:`` line."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "type": self.type,
            "job_id": self.job_id,
            "run_id": self.run_id,
            "data": self.data,
        }


class EventJournal:
    """Fixed-capacity, thread-safe ring of :class:`Event` entries."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Durable sink for :data:`DURABLE_EVENTS`, set by the owning
        #: manager when it has a state directory (None: memory only).
        self.ledger: JobLedger | None = None
        self._events: deque[Event] = deque()
        self._lock = threading.Lock()
        self._seq = 0
        #: Events evicted by overflow (also counted in the registry as
        #: ``service.events_dropped``).
        self.dropped = 0

    def append(
        self,
        type_: str,
        job_id: str | None = None,
        run_id: str | None = None,
        record: dict | None = None,
        **data,
    ) -> Event:
        """Append one event; evicts the oldest when the ring is full.

        ``run_id`` defaults to the run scope active on the appending
        thread (None outside any), so events emitted from inside a
        :class:`~repro.observability.context.RunContext` correlate
        without every call site threading the id through.

        A durable event is first written to the attached ledger, with
        ``record`` as its record fields, outside the ring lock: it is
        on disk before any reader can see it.  Disk trouble is logged
        and degrades to in-memory operation — a full disk must not turn
        a completing job into a failed one.
        """
        if self.ledger is not None and type_ in DURABLE_EVENTS:
            try:
                self.ledger.record(
                    type_.removeprefix("job."), job_id, **(record or {})
                )
            except OSError as exc:  # pragma: no cover - disk trouble
                _log.warning(
                    "ledger.write_failed", type=type_, job_id=job_id,
                    error=str(exc),
                )
        if run_id is None:
            run_id = _state.current_run_id()
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                ts=time.time(),
                type=type_,
                job_id=job_id,
                run_id=run_id,
                data=data,
            )
            if len(self._events) >= self.capacity:
                self._events.popleft()
                self.dropped += 1
                incr("service.events_dropped")
            self._events.append(event)
        incr("service.events")
        return event

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest event (0 before any)."""
        with self._lock:
            return self._seq

    def after(
        self, last_seq: int = 0, job_id: str | None = None
    ) -> tuple[list[Event], bool]:
        """Buffered events with ``seq > last_seq``, oldest first.

        Args:
            last_seq: the last sequence number the caller has seen
                (``0`` = from the beginning).
            job_id: restrict to one job's events.

        Returns:
            ``(events, truncated)`` — ``truncated`` is True when events
            the caller has not seen were already evicted from the ring
            (the resume has a gap; for per-job streams this is the
            conservative global answer, since eviction does not track
            which job the lost events belonged to).
        """
        with self._lock:
            oldest = self._events[0].seq if self._events else self._seq + 1
            truncated = last_seq + 1 < oldest
            events = [
                event
                for event in self._events
                if event.seq > last_seq
                and (job_id is None or event.job_id == job_id)
            ]
        return events, truncated

    def snapshot(self) -> list[dict]:
        """Every buffered event as wire dicts (the flight-recorder dump)."""
        with self._lock:
            return [event.wire() for event in self._events]
