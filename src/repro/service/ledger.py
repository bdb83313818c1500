"""Durable job ledger: a crash-safe WAL of job lifecycle transitions.

The ledger is the durable sink of the service's event journal
(:mod:`repro.service.journal`): every ``accepted``, ``started`` and
terminal event is appended here — before any reader can see it — to a
single append-only JSONL file under ``--state-dir``, each line a
sealed :mod:`repro.durable` envelope flushed and ``fsync``'d before the
append returns.  A SIGKILL at *any* instant therefore leaves a ledger
that names every job the server had promised to run.

On boot :meth:`JobLedger.replay` folds the file into the latest state
per job:

* jobs whose last record is terminal (``completed`` / ``failed`` /
  ``cancelled``) are done — their results live in the result cache, so
  a resubmission is served warm; the ledger does not need them;
* jobs last seen ``accepted`` or ``started`` are *owed*: the manager
  re-enqueues them (counter ``service.jobs_recovered``) and they resume
  through their build checkpoints, bit-identical to an uninterrupted
  run;
* corrupt lines (torn final append) are skipped, never fatal; a job
  whose every record is unusable — e.g. its ``accepted`` line (the only
  one carrying the spec) was torn — is counted as ``service.jobs_lost``
  and surfaced in logs and healthz rather than silently dropped.

After replay the manager *compacts*: the ledger is atomically rewritten
with one fresh ``accepted`` record per live job, so the file's size is
bounded by the live queue, not by service uptime.

Chaos hook: a ``service_crash`` fault spec (site ``ledger.<type>``)
hard-kills the process **after** the matching append is durable —
the exact window the replay protocol exists for.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

from repro import durable, faults
from repro.observability.log import get_logger
from repro.observability.metrics import incr

_log = get_logger("service.ledger")

#: Lifecycle record types, in the order a job emits them.
RECORD_TYPES = ("accepted", "started", "completed", "failed", "cancelled")

#: Record types after which a job owes nothing — also the terminal job
#: statuses and, as ``job.<type>``, the terminal journal events.
TERMINAL_TYPES = frozenset({"completed", "failed", "cancelled"})

#: Ledger file name under the state directory.
FILENAME = "jobs-ledger.jsonl"

#: Schema tag written into every ledger record.
_FORMAT = 1


class JobLedger:
    """Append-only, sealed, fsync'd job-transition log in one directory.

    Args:
        state_dir: directory holding the ledger (created if missing).
            Safe to share with the checkpoint directory; the ledger is
            a single well-known file inside it.
    """

    def __init__(self, state_dir: str | pathlib.Path) -> None:
        self.directory = durable.ensure_dir(state_dir)
        self.path = self.directory / FILENAME
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------
    def record(self, type_: str, job_id: str, **fields: object) -> None:
        """Append one sealed transition record; durable before return.

        The line is flushed and ``fsync``'d so a crash immediately
        after :meth:`record` returns cannot lose it.  ``fields`` carry
        type-specific payload (``accepted`` stores the normalized spec
        and submission count; terminal types store the error, if any).
        """
        if type_ not in RECORD_TYPES:
            raise ValueError(f"unknown ledger record type {type_!r}")
        line = _line(type_, job_id, **fields)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        incr("service.ledger_records")
        _log.debug("ledger.append", type=type_, job_id=job_id)
        plan = faults.active_plan()
        if plan is not None:
            hit = plan.service_action("service_crash", f"ledger.{type_}")
            if hit is not None:  # pragma: no cover - exits the process
                _log.warning(
                    "ledger.injected_crash",
                    site=f"ledger.{type_}",
                    exit_code=hit.exit_code,
                )
                os._exit(hit.exit_code)

    # -- replay ------------------------------------------------------------
    def replay(self) -> tuple[dict[str, dict], int]:
        """Fold the ledger into latest-state-per-job.

        Returns ``(states, skipped)`` where ``states`` maps each job id
        to ``{"status", "spec", "submissions", "created_at"}`` (spec
        fields are present only if an intact ``accepted`` record was
        seen) and ``skipped`` counts unusable lines — corrupt seals,
        undecodable JSON, unknown record types.  Skipped lines degrade
        the affected job to whatever its intact records say; they never
        raise.
        """
        states: dict[str, dict] = {}
        skipped = 0
        if not self.path.exists():
            return states, skipped
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    durable.verify(entry)
                    if entry.get("type") not in RECORD_TYPES or not isinstance(
                        entry.get("job_id"), str
                    ):
                        raise durable.CorruptStateError("malformed record")
                except ValueError as exc:  # undecodable JSON or bad seal
                    _log.warning(
                        "ledger.corrupt_line", path=str(self.path),
                        line=lineno, reason=str(exc),
                    )
                    skipped += 1
                    continue
                state = states.setdefault(
                    entry["job_id"],
                    {
                        "status": None,
                        "spec": None,
                        "submissions": 1,
                        "created_at": None,
                    },
                )
                state["status"] = entry["type"]
                if entry["type"] == "accepted":
                    state["spec"] = entry.get("spec")
                    state["submissions"] = int(entry.get("submissions", 1))
                    state["created_at"] = entry.get("created_at", entry["ts"])
        if skipped:
            _log.warning(
                "ledger.replay_skipped", path=str(self.path), lines=skipped
            )
        return states, skipped

    # -- compaction --------------------------------------------------------
    def compact(self, live: dict[str, dict]) -> None:
        """Atomically rewrite the ledger to one record per live job.

        ``live`` maps job id to the replayed state of every job the
        manager is about to re-enqueue; each becomes a fresh
        ``accepted`` record (terminal and unrecoverable jobs drop out),
        so ledger size tracks the live queue, not uptime.  The rewrite
        goes through :func:`repro.durable.atomic_write_text` — a crash
        mid-compaction leaves the previous ledger intact.
        """
        text = "".join(
            _line(
                "accepted", job_id, spec=state["spec"],
                submissions=state["submissions"],
                created_at=state["created_at"],
            )
            for job_id, state in sorted(live.items())
        )
        with self._lock:
            durable.atomic_write_text(self.path, text)
        _log.info(
            "ledger.compacted", path=str(self.path), live_jobs=len(live)
        )


def _line(type_: str, job_id: str, **fields: object) -> str:
    """One sealed ledger record as a JSONL line."""
    entry = {
        "format": _FORMAT, "type": type_, "job_id": job_id,
        "ts": time.time(), **fields,
    }
    line = json.dumps(durable.seal(entry), sort_keys=True, default=float)
    return line + "\n"
