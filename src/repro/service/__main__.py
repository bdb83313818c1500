"""Run the yield-analysis service from the shell::

    python -m repro.service --port 8642 \
        --cache-dir ~/.cache/repro --checkpoint-dir /var/tmp/repro-ckpt

``--port 0`` binds an ephemeral port; the chosen one is printed on the
``listening on`` line (machine-readable, used by the test harness and
CI).  ``--workers`` sets the in-job ``ParallelExecutor`` fan-out —
results are bit-identical at any count.  ``--job-workers`` sets how
many *jobs* execute concurrently — per-job attribution is run-scoped
(run_id == job_id), so results and telemetry are likewise identical
at any width.  ``--cache-dir`` makes
completed surfaces survive restarts (a resubmitted spec is served warm)
and ``--checkpoint-dir`` makes in-flight builds resumable (a spec
resubmitted after a crash continues from the last flush instead of
restarting).  See ``docs/service.md`` for the API this serves.

Crash safety: ``--state-dir`` arms the durable job ledger — every
accepted job survives SIGKILL and is re-enqueued on the next boot,
resuming through its checkpoints.  SIGTERM/SIGINT trigger a graceful
drain: ``/v1/readyz`` flips to 503, new submissions are rejected,
running jobs get ``--drain-timeout`` seconds to checkpoint-and-finish,
then the process exits 0 (stragglers resume on the next boot).
``--max-queue-depth`` bounds admission (429 + ``Retry-After``).
``REPRO_FAULT_PLAN`` arms a chaos plan (``service_crash``,
``job_deadline``, ``reject_burst``, and the task/write kinds) exactly
as the experiments CLI does.

Telemetry collection is always on in the server process — the
``service.*`` counters are part of the healthz contract, not an
optional extra; ``-v``/``--log-json`` additionally stream structured
request/job logs to stderr.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro import faults, observability
from repro.checkpoint import FLUSH_EVERY
from repro.service.jobs import JobManager
from repro.service.server import ServiceServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve SRAM yield analysis as an HTTP/JSON job API.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (default 8642; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="ParallelExecutor fan-out inside each job (default 1; "
        "results are identical at any worker count)",
    )
    parser.add_argument(
        "--job-workers",
        type=int,
        default=1,
        metavar="N",
        help="jobs executing concurrently (default 1). Attribution is "
        "run-scoped, so per-job progress, results, and telemetry are "
        "identical at any width",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist computed surfaces to DIR; resubmitted specs are "
        "served warm across restarts",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="flush completed grid cells to DIR during builds; a spec "
        "resubmitted after a crash resumes from the last flush",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=FLUSH_EVERY,
        metavar="N",
        help="completed cells per checkpoint flush (default %(default)s)",
    )
    parser.add_argument(
        "--journal-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="event-journal ring size powering the /v1/events SSE "
        "streams (default 1024; overflow evicts the oldest event and "
        "counts service.events_dropped)",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="where failed jobs dump their flight-recorder event JSON "
        "(default: the checkpoint dir, then the cache dir; disabled "
        "with neither)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable job-ledger directory; accepted jobs survive "
        "SIGKILL and are re-enqueued on the next boot with the same "
        "DIR (disabled when unset)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, how long running jobs may "
        "checkpoint-and-finish before the process exits anyway "
        "(default 30; stragglers resume on the next boot)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="bound on jobs queued or running; new submissions beyond "
        "it get 429 with Retry-After (default: unbounded)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="structured request/job logs on stderr (-vv for debug)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="render logs as JSON lines instead of text",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.job_workers < 1:
        parser.error(f"--job-workers must be >= 1, got {args.job_workers}")
    if args.checkpoint_every < 1:
        parser.error(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    if args.journal_capacity < 1:
        parser.error(
            f"--journal-capacity must be >= 1, got {args.journal_capacity}"
        )
    if args.drain_timeout < 0:
        parser.error(
            f"--drain-timeout must be >= 0, got {args.drain_timeout}"
        )
    if args.max_queue_depth is not None and args.max_queue_depth < 1:
        parser.error(
            f"--max-queue-depth must be >= 1, got {args.max_queue_depth}"
        )

    observability.configure(
        verbosity=args.verbose, json_lines=args.log_json, metrics=True
    )
    try:
        faults.install(faults.plan_from_env())
    except ValueError as exc:
        parser.error(str(exc))
    manager = JobManager(
        workers=args.workers,
        job_workers=args.job_workers,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        journal_capacity=args.journal_capacity,
        flight_dir=args.flight_dir,
        state_dir=args.state_dir,
        max_queue_depth=args.max_queue_depth,
    )
    server = ServiceServer(manager, host=args.host, port=args.port)

    async def run() -> bool:
        """Serve until a signal arrives, then drain; True = clean drain."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                signal.signal(sig, lambda *_: stop.set())
        await server.start()
        # Machine-readable: the harness parses the URL off this line.
        print(f"listening on {server.base_url}", flush=True)
        await stop.wait()
        # Graceful drain: readiness flips to 503 and new submissions
        # reject immediately; running jobs then get the drain window.
        print("draining", file=sys.stderr, flush=True)
        manager.begin_drain()
        drained = await asyncio.to_thread(manager.drain, args.drain_timeout)
        await server.stop()
        return drained

    try:
        drained = asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - second ^C mid-drain
        print("shutting down", file=sys.stderr)
        manager.shutdown()
        return 0
    if not drained:
        # Jobs are still running past the drain window.  Their ledger
        # records and checkpoint flushes are durable, so the next boot
        # resumes them; exiting through os._exit skips joining the
        # non-daemon pool threads that would otherwise hang exit.
        print("drain timeout; exiting (jobs resume on next boot)",
              file=sys.stderr, flush=True)
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
