"""Load generator for the yield-analysis service.

Drives a running server the way a fleet of clients would: submit a
spec, wait for it to complete — polling ``GET /v1/jobs/{id}``, or with
``--follow`` holding the job's SSE event stream open and reacting to
``job.completed``/``job.failed`` events instead — then hammer the warm
path: duplicate submissions (which must dedupe, not recompute) and
repeated result ``GET``\\ s (which must come back at in-memory
latency).  Client-side
latencies land in the ``service.client_submit_seconds`` /
``service.client_result_seconds`` histograms so a caller can check the
warm p95.

Library use (the warm-burst test in ``tests/test_service.py``)::

    from repro.service.loadgen import run_load
    stats = run_load(base_url, spec, duplicates=20, result_gets=50)

Shell use (the CI ``service-smoke`` job)::

    python -m repro.service.loadgen --base-url http://127.0.0.1:8642 \
        --duplicates 20 --gets 50 --telemetry-out service-telemetry.json

The CLI exits 0 only when the burst completed the job, every duplicate
deduped onto it, and the server reports ``service.jobs_failed == 0``.

Resilience: requests retry with exponential backoff and
*deterministic* jitter (hash-derived from the request key and attempt
number, so two identical runs back off identically — no flaky CI).
Admission rejections (429/503) honour the server's ``Retry-After``
header; connection errors cover a server mid-restart.  A ``--follow``
stream whose server dies with the connection open falls back to the
poll loop instead of giving up (counter
``service.client_stream_fallbacks``); each retry counts
``service.client_retries``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from repro import observability
from repro.observability.log import get_logger
from repro.observability.metrics import incr, observe, registry
from repro.observability.output import resolve_out_path

_log = get_logger("service.loadgen")

#: A deliberately tiny spec: coarse target and small sample budgets so
#: a smoke burst finishes in seconds while still exercising the full
#: submit -> shard -> cache -> serve path.
QUICK_SPEC = {
    "kind": "table",
    "target": 1e-2,
    "calibration_samples": 2_000,
    "analysis_samples": 600,
    "sampler": "adaptive-is",
    "table_grid": 5,
    "seed": 2006,
    "vbody_levels": [0.0],
}


class LoadError(RuntimeError):
    """The burst hit a response the contract forbids."""


@dataclass(frozen=True)
class ClientRetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``attempts`` bounds total tries per request.  Delay for retry ``k``
    is ``base_delay * 2**k``, capped at ``max_delay``, scaled by a
    jitter factor in ``[0.5, 1.0)`` derived from a SHA-256 of the
    request key and attempt number — deterministic (two identical runs
    back off identically; CI never flakes on timing randomness) yet
    decorrelated across different requests, so a rejected burst does
    not retry in lockstep.  A server ``Retry-After`` always wins when
    it asks for longer.
    """

    attempts: int = 5
    base_delay: float = 0.2
    max_delay: float = 5.0

    def delay(self, key: str, attempt: int) -> float:
        raw = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()[:8]
        jitter = 0.5 + 0.5 * (int(raw, 16) / 0xFFFFFFFF)
        return min(self.max_delay, self.base_delay * (2.0 ** attempt)) * jitter


#: Policy used when the caller does not supply one.
DEFAULT_RETRY_POLICY = ClientRetryPolicy()


def _retry_after_seconds(exc: urllib.error.HTTPError) -> float:
    """The server's Retry-After hint, in seconds (0 when absent)."""
    raw = exc.headers.get("Retry-After") if exc.headers else None
    try:
        return max(0.0, float(raw)) if raw is not None else 0.0
    except ValueError:
        return 0.0


def _follow(base_url: str, job_id: str, timeout: float) -> int | None:
    """Follow a job's SSE stream to its terminal event; no polling.

    A minimal Server-Sent-Events client over urllib: reads the
    ``GET /v1/jobs/{id}/events`` stream line by line, parses
    ``event:`` / ``data:`` fields (ignoring ``id:`` and comment
    keepalives), and returns the number of events seen once the job
    completes.  Raises :class:`LoadError` when the job fails or is
    cancelled.

    Returns ``None`` — *fall back to polling* — when the stream dies
    under the client: a socket error or EOF mid-stream (server killed
    with the connection open), or silence past the read timeout (the
    server keepalives every ~15s, so a silent open stream means a dead
    server, not a slow job).  The caller's poll loop then sorts out
    whether the server is gone or merely restarting.
    """
    # Per-read timeout, not the whole-job budget: keepalives mean a
    # healthy stream is never silent for long, so a short read timeout
    # detects a dead-but-open connection quickly while a slow job can
    # still be followed for the caller's full budget.
    read_timeout = min(timeout, 30.0)
    req = urllib.request.Request(
        f"{base_url}/v1/jobs/{job_id}/events",
        headers={"Accept": "text/event-stream"},
    )
    events_seen = 0
    event_type: str | None = None
    data_lines: list[str] = []
    try:
        with urllib.request.urlopen(req, timeout=read_timeout) as resp:
            content_type = resp.headers.get("Content-Type", "")
            if "text/event-stream" not in content_type:
                raise LoadError(
                    f"event stream has Content-Type {content_type!r}"
                )
            for raw in resp:
                line = raw.decode().rstrip("\r\n")
                if not line:
                    # Blank line: dispatch the accumulated message.
                    if event_type is not None:
                        payload = (
                            json.loads("\n".join(data_lines))
                            if data_lines
                            else {}
                        )
                        events_seen += 1
                        _log.debug(
                            "loadgen.event", type=event_type,
                            seq=payload.get("seq"),
                        )
                        if event_type == "job.failed":
                            raise LoadError(
                                "job failed: "
                                f"{payload.get('data', {}).get('error')}"
                            )
                        if event_type == "job.cancelled":
                            raise LoadError(f"job {job_id} was cancelled")
                        if event_type == "job.completed":
                            return events_seen
                        if event_type == "job.state":
                            # The stream's framing snapshot; terminal
                            # here means the journaled terminal event
                            # is no longer replayable.
                            if payload.get("status") == "failed":
                                raise LoadError(
                                    f"job failed: {payload.get('error')}"
                                )
                            if payload.get("status") == "cancelled":
                                raise LoadError(
                                    f"job {job_id} was cancelled"
                                )
                            if payload.get("status") == "completed":
                                return events_seen
                    event_type, data_lines = None, []
                    continue
                if line.startswith(":"):
                    continue  # comment / keepalive
                field, _, value = line.partition(":")
                value = value[1:] if value.startswith(" ") else value
                if field == "event":
                    event_type = value
                elif field == "data":
                    data_lines.append(value)
    except LoadError:
        raise
    except urllib.error.HTTPError as exc:
        raise LoadError(
            f"event stream rejected: HTTP {exc.code}"
        ) from None
    except (
        TimeoutError,
        ConnectionError,
        http.client.HTTPException,
        OSError,
    ) as exc:
        # The server died (or went silent) with the stream open —
        # exactly the case a held connection cannot distinguish from a
        # slow job without the keepalive contract.  Hand control back
        # to the poll loop rather than failing the whole burst.
        _log.warning(
            "loadgen.stream_broken", job_id=job_id,
            error=f"{type(exc).__name__}: {exc}",
        )
        incr("service.client_stream_fallbacks")
        return None
    # EOF without a terminal event: the server closed the connection
    # mid-stream (shutdown, kill).  Same recovery: fall back to polling.
    _log.warning("loadgen.stream_ended_early", job_id=job_id)
    incr("service.client_stream_fallbacks")
    return None


def _request(
    method: str,
    url: str,
    payload: dict | None = None,
    timeout: float = 30.0,
    retry: ClientRetryPolicy | None = None,
) -> tuple[int, dict]:
    """One HTTP exchange; returns (status, decoded JSON body).

    With a ``retry`` policy, 429/503 responses are retried after
    ``max(Retry-After, backoff)`` seconds and connection-level errors
    (refused, reset, timed out — a server mid-restart) after the
    backoff alone; each retry counts ``service.client_retries``.  The
    final attempt's rejection (or connection error) surfaces to the
    caller unchanged.
    """
    data = json.dumps(payload).encode() if payload is not None else None
    attempts = retry.attempts if retry is not None else 1
    for attempt in range(attempts):
        req = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode())
            except (json.JSONDecodeError, UnicodeDecodeError):
                body = {}
            if (
                retry is not None
                and exc.code in (429, 503)
                and attempt + 1 < attempts
            ):
                delay = max(
                    _retry_after_seconds(exc), retry.delay(url, attempt)
                )
                incr("service.client_retries")
                _log.info(
                    "loadgen.retry", url=url, status=exc.code,
                    attempt=attempt + 1, delay=round(delay, 3),
                )
                time.sleep(delay)
                continue
            return exc.code, body
        except (urllib.error.URLError, TimeoutError, ConnectionError) as exc:
            if retry is not None and attempt + 1 < attempts:
                delay = retry.delay(url, attempt)
                incr("service.client_retries")
                _log.info(
                    "loadgen.retry", url=url,
                    error=f"{type(exc).__name__}: {exc}",
                    attempt=attempt + 1, delay=round(delay, 3),
                )
                time.sleep(delay)
                continue
            raise
    raise AssertionError("unreachable")  # pragma: no cover


def run_load(
    base_url: str,
    spec: dict | None = None,
    duplicates: int = 20,
    result_gets: int = 50,
    poll_interval: float = 0.1,
    timeout: float = 300.0,
    follow: bool = False,
    retry: ClientRetryPolicy | None = DEFAULT_RETRY_POLICY,
) -> dict:
    """Submit ``spec``, wait for completion, then burst the warm path.

    ``follow=True`` waits on the job's SSE event stream (one held
    connection, event-driven) instead of polling ``GET /v1/jobs/{id}``
    every ``poll_interval`` seconds; a stream that dies under the
    client falls back to the poll loop.  ``retry`` governs
    backoff-and-retry of rejected (429/503) or connection-failed
    requests; ``None`` disables retries.

    Returns a summary dict (job id, phase latencies, the final healthz
    payload).  Raises :class:`LoadError` on any contract violation:
    a submission rejected past the retry budget, a duplicate that did
    not dedupe, a warm result that is not served, or the job failing.
    """
    base_url = base_url.rstrip("/")
    spec = spec if spec is not None else QUICK_SPEC
    registry.counter("service.client_retries")
    registry.counter("service.client_stream_fallbacks")

    start = time.perf_counter()
    status, body = _request("POST", f"{base_url}/v1/jobs", spec, retry=retry)
    observe("service.client_submit_seconds", time.perf_counter() - start)
    if status not in (200, 202):
        raise LoadError(f"submit rejected: HTTP {status} {body}")
    job_id = body["job"]["id"]
    _log.info("loadgen.submitted", job_id=job_id, status=status)

    wait_deadline = time.monotonic() + timeout
    follow_events = None
    followed = False
    if follow:
        follow_events = _follow(base_url, job_id, timeout)
        followed = follow_events is not None
        if not followed:
            _log.warning("loadgen.follow_fallback", job_id=job_id)
    if not followed:
        while True:
            status, body = _request(
                "GET", f"{base_url}/v1/jobs/{job_id}", retry=retry
            )
            if status != 200:
                raise LoadError(f"status poll failed: HTTP {status} {body}")
            job_status = body["job"]["status"]
            if job_status == "completed":
                break
            if job_status == "failed":
                raise LoadError(f"job failed: {body['job']['error']}")
            if job_status == "cancelled":
                raise LoadError(f"job {job_id} was cancelled")
            if time.monotonic() > wait_deadline:
                raise LoadError(f"job {job_id} not done within {timeout}s")
            time.sleep(poll_interval)
    cold_seconds = time.perf_counter() - start
    _log.info("loadgen.completed", job_id=job_id,
              seconds=round(cold_seconds, 3))

    # Warm phase 1: duplicate submissions must attach, never recompute.
    for _ in range(duplicates):
        t0 = time.perf_counter()
        status, body = _request(
            "POST", f"{base_url}/v1/jobs", spec, retry=retry
        )
        observe("service.client_submit_seconds", time.perf_counter() - t0)
        if status != 200 or not body["deduped"]:
            raise LoadError(
                f"duplicate did not dedupe: HTTP {status} "
                f"deduped={body.get('deduped')}"
            )
        if body["job"]["id"] != job_id:
            raise LoadError(
                f"duplicate got a different job id: {body['job']['id']}"
            )

    # Warm phase 2: repeated result reads must be served immediately.
    result_url = f"{base_url}/v1/jobs/{job_id}/result"
    for _ in range(result_gets):
        t0 = time.perf_counter()
        status, body = _request("GET", result_url, retry=retry)
        observe("service.client_result_seconds", time.perf_counter() - t0)
        if status != 200 or body["status"] != "completed":
            raise LoadError(f"warm result read failed: HTTP {status}")

    # Per-job attribution: the completed job must serve its own
    # telemetry snapshot, keyed by run_id == job_id.
    status, telemetry = _request(
        "GET", f"{base_url}/v1/jobs/{job_id}/telemetry", retry=retry
    )
    if status != 200:
        raise LoadError(f"job telemetry failed: HTTP {status} {telemetry}")
    if telemetry.get("run_id") != job_id:
        raise LoadError(
            f"job telemetry run_id mismatch: {telemetry.get('run_id')!r}"
        )

    status, health = _request("GET", f"{base_url}/v1/healthz", retry=retry)
    if status != 200:
        raise LoadError(f"healthz failed: HTTP {status}")
    counters = health["telemetry"]["metrics"]["counters"]
    if counters.get("service.jobs_failed", 0) != 0:
        raise LoadError(
            f"server reports failed jobs: {counters['service.jobs_failed']}"
        )
    return {
        "job_id": job_id,
        "cold_seconds": round(cold_seconds, 6),
        "duplicates": duplicates,
        "result_gets": result_gets,
        "follow_events": follow_events,
        "healthz": health,
        "job_telemetry": telemetry,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Burst a running repro.service with a smoke load.",
    )
    parser.add_argument(
        "--base-url",
        required=True,
        metavar="URL",
        help="server address, e.g. http://127.0.0.1:8642",
    )
    parser.add_argument(
        "--spec",
        default=None,
        metavar="JSON",
        help="job spec as inline JSON (default: the built-in tiny "
        "table spec)",
    )
    parser.add_argument(
        "--duplicates",
        type=int,
        default=20,
        metavar="N",
        help="duplicate submissions in the warm burst (default 20)",
    )
    parser.add_argument(
        "--gets",
        type=int,
        default=50,
        metavar="N",
        help="warm result GETs in the burst (default 50)",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="wait on the job's SSE event stream instead of polling "
        "its status endpoint",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="seconds to wait for the job to complete (default 300)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRY_POLICY.attempts,
        metavar="N",
        help="attempts per request when the server answers 429/503 or "
        "the connection fails; backoff is exponential with "
        "deterministic jitter and honours Retry-After (default "
        f"{DEFAULT_RETRY_POLICY.attempts}; 1 disables retries)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE",
        help="write the server's final healthz telemetry plus the "
        "client-side latency histograms to FILE; an existing FILE "
        "diverts to a numbered sibling unless --telemetry-overwrite "
        "is passed",
    )
    parser.add_argument(
        "--telemetry-overwrite",
        action="store_true",
        help="allow --telemetry-out to replace an existing file",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="progress logs on stderr",
    )
    args = parser.parse_args(argv)
    if args.retries < 1:
        parser.error(f"--retries must be >= 1, got {args.retries}")

    spec = None
    if args.spec is not None:
        try:
            spec = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            parser.error(f"--spec is not valid JSON: {exc}")

    observability.configure(verbosity=args.verbose, metrics=True)
    try:
        summary = run_load(
            args.base_url,
            spec,
            duplicates=args.duplicates,
            result_gets=args.gets,
            timeout=args.timeout,
            follow=args.follow,
            retry=ClientRetryPolicy(attempts=args.retries),
        )
    except (LoadError, urllib.error.URLError, OSError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    counters = summary["healthz"]["telemetry"]["metrics"]["counters"]
    # CLI-only assertion: against a freshly-booted server (the CI
    # smoke), the burst must leave at least one completed job behind.
    # The library path skips this — a caller may reset counters
    # between the cold build and the warm burst.
    if counters.get("service.jobs_completed", 0) < 1:
        print("FAIL: server reports zero completed jobs", file=sys.stderr)
        return 1
    print(
        "load burst ok: job", summary["job_id"],
        f"cold {summary['cold_seconds']:.2f}s,",
        int(counters.get("service.jobs_deduped", 0)), "deduped submission(s),",
        int(counters.get("service.jobs_completed", 0)), "completed job(s)",
    )
    if args.telemetry_out is not None:
        client = observability.registry.snapshot()
        report = {
            "schema": observability.SCHEMA,
            "summary": {
                k: v
                for k, v in summary.items()
                if k not in ("healthz", "job_telemetry")
            },
            "server": summary["healthz"],
            "job_telemetry": summary["job_telemetry"],
            "client_metrics": client,
        }
        logger = observability.get_logger("service.loadgen")
        out_path = resolve_out_path(
            args.telemetry_out, args.telemetry_overwrite, logger,
            "telemetry", "--telemetry-overwrite",
        )
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print("telemetry written to", out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
