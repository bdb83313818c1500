"""The asyncio HTTP/JSON front end of the yield-analysis service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server`
(stdlib only — no new runtime dependencies), exposing:

* ``POST /v1/jobs`` — submit a spec; 202 on a new job, 200 when the
  submission deduped onto an existing one;
* ``GET /v1/jobs/{id}`` — status + progress read from the job's own
  run scope (exact per-job attribution at any ``--job-workers`` width);
* ``GET /v1/jobs/{id}/result`` — the computed surface (409 until the
  job completes);
* ``GET /v1/jobs/{id}/telemetry`` — the job's isolated telemetry
  snapshot (``repro.telemetry/1`` + ``run_id``): live while running,
  frozen once terminal, 409 while still queued;
* ``GET /v1/jobs/{id}/events`` — Server-Sent-Events stream of one
  job's lifecycle (closes after the terminal event);
* ``GET /v1/events`` — the firehose: every journal event as SSE, until
  the client disconnects.  Both streams honour ``Last-Event-ID``;
* ``DELETE /v1/jobs/{id}`` — cancel: 200 for a queued job (now
  terminal), 202 for a running one (stops at its next checkpoint
  boundary), 409 for a terminal one;
* ``GET /v1/healthz`` — liveness, job counts, and the full metrics
  snapshot under the ``repro.telemetry/1`` schema;
* ``GET /v1/readyz`` — readiness: 200 while accepting work, 503 once
  a drain has begun (load balancers stop routing, clients back off);
* ``GET /v1/metrics`` — the same totals in Prometheus text
  exposition format, for standard scrapers.

Admission rejections (queue full → 429 ``queue-full``, draining → 503
``draining``) carry a ``Retry-After`` header the loadgen honours.

The wire format (schemas, error codes, dedupe semantics) is specified
in ``docs/service.md``; this module is an implementation of that
document, not the other way around.

Request handling never blocks on job execution: submissions enqueue
onto the :class:`~repro.service.jobs.JobManager` worker thread and
return immediately, so status polls and warm result reads stay at
in-memory-lookup latency while a build runs.  Event streams poll the
journal (tens of milliseconds), never touch the worker thread, and
exit promptly when the server shuts down.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time

from repro import observability
from repro.observability import SCHEMA
from repro.observability.export import render_prometheus
from repro.observability.log import get_logger
from repro.observability.metrics import incr, observe, set_gauge
from repro.service.jobs import AdmissionError, JobManager
from repro.service.ledger import TERMINAL_TYPES
from repro.service.spec import SpecError

_log = get_logger("service.http")

#: Largest accepted request body; specs are tiny, anything bigger is
#: a client error (413), not a reason to buffer unboundedly.
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Terminate request handling with a structured error response."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        allow: str | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.allow = allow
        self.retry_after = retry_after

    def headers(self) -> dict[str, str] | None:
        extra: dict[str, str] = {}
        if self.allow is not None:
            extra["Allow"] = self.allow
        if self.retry_after is not None:
            # Retry-After is delta-seconds; round up so "0.4s" does not
            # invite an instant retry.
            extra["Retry-After"] = str(max(1, math.ceil(self.retry_after)))
        return extra or None


def _metrics_snapshot() -> dict:
    """The healthz telemetry block: the process metric totals (the
    root plus every running job's scope), no trace tree.

    Histogram summaries keep their ``p50``/``p95`` estimates but drop
    the raw reservoir — healthz is polled, so its payload stays small.
    """
    metrics = observability.snapshot()["metrics"]
    for summary in metrics["histograms"].values():
        summary.pop("reservoir", None)
    return {"schema": SCHEMA, "metrics": metrics}


#: Content type the Prometheus text exposition format mandates.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Journal poll cadence of an open SSE stream, seconds.
STREAM_POLL_SECONDS = 0.05

#: Idle seconds between ``: keepalive`` comments on an open stream.
STREAM_KEEPALIVE_SECONDS = 15.0


class _RawResponse:
    """A routed response that is not JSON (e.g. exposition text)."""

    __slots__ = ("status", "body", "content_type")

    def __init__(
        self, body: bytes, content_type: str, status: int = 200
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type


class _EventStream:
    """A routed response that streams the journal as SSE."""

    __slots__ = ("job_id", "last_seq")

    def __init__(self, job_id: str | None, last_seq: int) -> None:
        self.job_id = job_id
        self.last_seq = last_seq


def _sse_block(seq: int | None, event_type: str, data: dict) -> bytes:
    """One Server-Sent-Events message (``id``/``event``/``data`` lines
    plus the blank-line terminator).  ``seq=None`` omits the ``id:``
    line, leaving the client's ``Last-Event-ID`` untouched — used for
    the synthetic ``job.state`` snapshots that frame a per-job stream
    but do not live in the journal.
    """
    lines = []
    if seq is not None:
        lines.append(f"id: {seq}")
    lines.append(f"event: {event_type}")
    lines.append(f"data: {json.dumps(data)}")
    return ("\n".join(lines) + "\n\n").encode()


def _last_event_id(headers: dict[str, str]) -> int:
    """The resume point an SSE client asked for (0 = from the start)."""
    raw = headers.get("last-event-id")
    if raw is None:
        return 0
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
    except ValueError:
        raise _HttpError(
            400,
            "invalid-last-event-id",
            f"Last-Event-ID must be a non-negative integer, got {raw!r}",
        ) from None
    return value


class ServiceServer:
    """One listening socket bound to one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Flipped by :meth:`stop` before the socket closes; open SSE
        #: streams check it each poll so ``wait_closed()`` (which waits
        #: for connection handlers on Python >= 3.12) returns promptly.
        self._closing = False
        #: In-flight connection handlers; :meth:`stop` waits for this
        #: to reach zero after closing the listener, so a request
        #: accepted just before shutdown is answered, never dropped.
        self._active_handlers = 0
        self._handlers_idle: asyncio.Event | None = None

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the real port
        afterwards (relevant when constructed with port 0)."""
        self._handlers_idle = asyncio.Event()
        self._handlers_idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("service.listening", host=self.host, port=self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, handler_timeout: float = 5.0) -> None:
        """Shut down in dependency order: listener, writers, manager.

        The listener closes first (no new connections), then in-flight
        handlers get up to ``handler_timeout`` seconds to finish
        writing (``wait_closed()`` only waits for them on
        Python >= 3.12, so the explicit drain matters on 3.10/3.11),
        and only then does the manager stop — a request accepted just
        before shutdown is answered from live state, never dropped on
        the floor.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._handlers_idle is not None and self._active_handlers > 0:
            try:
                await asyncio.wait_for(
                    self._handlers_idle.wait(), timeout=handler_timeout
                )
            except asyncio.TimeoutError:  # pragma: no cover - slow client
                _log.warning(
                    "service.stop.handlers_stuck",
                    active=self._active_handlers,
                )
        self.manager.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = time.perf_counter()
        status = 500
        method = path = "?"
        self._active_handlers += 1
        if self._handlers_idle is not None:
            self._handlers_idle.clear()
        try:
            try:
                method, path, body, headers = await self._read_request(reader)
                result = self._route(method, path, body, headers)
            except _HttpError as exc:
                status = exc.status
                payload = {"error": {"code": exc.code, "message": str(exc)}}
                await self._respond(writer, status, payload, exc.headers())
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away; nothing to answer
            except Exception as exc:  # noqa: BLE001 - last-resort boundary
                _log.warning(
                    "service.request.error", method=method, path=path,
                    error=f"{type(exc).__name__}: {exc}",
                )
                status = 500
                await self._respond(
                    writer,
                    500,
                    {
                        "error": {
                            "code": "internal",
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    },
                )
                return
            if isinstance(result, _EventStream):
                status = 200
                try:
                    await self._stream_events(writer, result)
                except (ConnectionError, OSError):
                    pass  # client hung up mid-stream
            elif isinstance(result, _RawResponse):
                status = result.status
                await self._respond_raw(writer, result)
            else:
                status, payload = result
                await self._respond(writer, status, payload)
        finally:
            incr("service.requests")
            observe("service.request_seconds", time.perf_counter() - start)
            _log.debug(
                "service.request", method=method, path=path, status=status,
            )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._active_handlers -= 1
            if self._active_handlers <= 0 and self._handlers_idle is not None:
                self._handlers_idle.set()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes, dict[str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, "bad-request", "malformed request line")
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            # Last header wins on duplicates; header names are
            # case-insensitive, stored lowercased.
            headers[name.strip().lower()] = value.strip()
        content_length = 0
        if "content-length" in headers:
            try:
                content_length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(
                    400, "bad-request", "unparseable Content-Length"
                ) from None
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "body-too-large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body, headers

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: dict | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    async def _respond_raw(
        self, writer: asyncio.StreamWriter, response: _RawResponse
    ) -> None:
        headers = [
            f"HTTP/1.1 {response.status} "
            f"{_STATUS_TEXT.get(response.status, 'Unknown')}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            "Connection: close",
        ]
        writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + response.body)
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, stream: _EventStream
    ) -> None:
        """Serve one SSE connection off the manager's journal.

        Per-job streams open with a synthetic un-id'd ``job.state``
        snapshot (so a client always learns the current status, even
        when resuming past the terminal event), replay journaled events
        after ``Last-Event-ID``, then follow live appends and close
        once the job's terminal event has been sent.  The firehose
        (``job_id=None``) replays and then follows until the client
        disconnects or the server shuts down, with ``: keepalive``
        comments during idle stretches.  A resume gap (events already
        evicted from the ring) is flagged with a comment — sequence
        numbers are never reused, so the client can also see the gap in
        the ``id:`` line.
        """
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        journal = self.manager.journal
        cursor = stream.last_seq
        job = None
        if stream.job_id is not None:
            job = self.manager.get(stream.job_id)
            if job is not None:
                writer.write(_sse_block(None, "job.state", job.view()))
        events, truncated = journal.after(cursor, stream.job_id)
        if truncated:
            writer.write(
                b": gap - events after the requested Last-Event-ID were "
                b"evicted from the journal ring\n\n"
            )
        loop = asyncio.get_running_loop()
        next_keepalive = loop.time() + STREAM_KEEPALIVE_SECONDS
        first = True
        while True:
            terminal_sent = False
            for event in events:
                writer.write(_sse_block(event.seq, event.type, event.wire()))
                cursor = event.seq
                if event.terminal:
                    terminal_sent = True
            if events:
                next_keepalive = loop.time() + STREAM_KEEPALIVE_SECONDS
            await writer.drain()
            if stream.job_id is not None:
                if terminal_sent:
                    return
                # Opening replay of an already-terminal job with no
                # journaled events past the resume point: the terminal
                # event predates Last-Event-ID or was evicted, so
                # nothing more will ever arrive — the opening job.state
                # already told the client how the job ended.  Only the
                # *opening* replay may conclude this: mid-stream, a
                # terminal status with no event yet means the terminal
                # append (which happens just after the status flip) is
                # still in flight.
                if (
                    first
                    and not events
                    and job is not None
                    and job.status in TERMINAL_TYPES
                ):
                    return
            first = False
            if self._closing or writer.is_closing():
                return
            if loop.time() >= next_keepalive:
                writer.write(b": keepalive\n\n")
                await writer.drain()
                next_keepalive = loop.time() + STREAM_KEEPALIVE_SECONDS
            await asyncio.sleep(STREAM_POLL_SECONDS)
            events, _ = journal.after(cursor, stream.job_id)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes, headers: dict):
        if path == "/v1/jobs":
            if method != "POST":
                raise _HttpError(
                    405, "method-not-allowed",
                    f"{method} not allowed on {path}", allow="POST",
                )
            return self._submit(body)
        if path in ("/v1/healthz", "/v1/readyz", "/v1/metrics", "/v1/events"):
            if method != "GET":
                raise _HttpError(
                    405, "method-not-allowed",
                    f"{method} not allowed on {path}", allow="GET",
                )
        if path == "/v1/healthz":
            return self._healthz()
        if path == "/v1/readyz":
            return self._readyz()
        if path == "/v1/metrics":
            return self._metrics()
        if path == "/v1/events":
            return _EventStream(None, _last_event_id(headers))
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if "/" not in rest and method == "DELETE":
                return self._cancel(rest)
            if method != "GET":
                allow = "GET, DELETE" if "/" not in rest else "GET"
                raise _HttpError(
                    405, "method-not-allowed",
                    f"{method} not allowed on {path}", allow=allow,
                )
            if rest.endswith("/events"):
                job_id = rest[: -len("/events")].rstrip("/")
                self._lookup(job_id)
                return _EventStream(job_id, _last_event_id(headers))
            if rest.endswith("/result"):
                return self._result(rest[: -len("/result")].rstrip("/"))
            if rest.endswith("/telemetry"):
                return self._telemetry(
                    rest[: -len("/telemetry")].rstrip("/")
                )
            if "/" not in rest:
                return self._status(rest)
        raise _HttpError(404, "not-found", f"no route for {method} {path}")

    def _submit(self, body: bytes) -> tuple[int, dict]:
        try:
            raw = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(
                400, "invalid-json", f"request body is not JSON: {exc}"
            ) from None
        try:
            job, created = self.manager.submit(raw)
        except SpecError as exc:
            raise _HttpError(400, exc.code, str(exc)) from None
        except AdmissionError as exc:
            status = 503 if exc.code == "draining" else 429
            raise _HttpError(
                status, exc.code, str(exc), retry_after=exc.retry_after
            ) from None
        return (202 if created else 200), {
            "job": job.view(),
            "deduped": not created,
        }

    def _cancel(self, job_id: str) -> tuple[int, dict]:
        job, outcome = self.manager.cancel(job_id)
        if outcome == "missing":
            raise _HttpError(404, "unknown-job", f"no job {job_id!r}")
        if outcome == "terminal":
            raise _HttpError(
                409, "job-terminal",
                f"job {job_id} is already {job.status}; terminal state "
                "is immutable",
            )
        # "cancelled" (was queued, now terminal) answers 200;
        # "cancelling" (running, stops at the next checkpoint
        # boundary) answers 202.
        status = 200 if outcome == "cancelled" else 202
        return status, {"job": job.view(), "cancelling": outcome == "cancelling"}

    def _lookup(self, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, "unknown-job", f"no job {job_id!r}")
        return job

    def _status(self, job_id: str) -> tuple[int, dict]:
        return 200, {"job": self._lookup(job_id).view()}

    def _result(self, job_id: str) -> tuple[int, dict]:
        job = self._lookup(job_id)
        if job.status == "completed":
            return 200, {
                "job_id": job.id,
                "status": job.status,
                "result": job.result,
            }
        if job.status == "failed":
            # Deadline expiries carry their own wire code so a client
            # can tell "budget ran out" from "the build blew up".
            raise _HttpError(
                409, job.error_code or "job-failed",
                f"job {job_id} failed: {job.error}",
            )
        if job.status == "cancelled":
            raise _HttpError(
                409, "cancelled",
                f"job {job_id} was cancelled: {job.error}",
            )
        raise _HttpError(
            409, "not-completed",
            f"job {job_id} is {job.status}; poll GET /v1/jobs/{job_id}",
        )

    def _telemetry(self, job_id: str) -> tuple[int, dict]:
        """``GET /v1/jobs/{id}/telemetry``: the job's own scope.

        Live (a point-in-time read of the running job's scope) until
        the job reaches a terminal state, then the frozen snapshot —
        so "why is job X slow" can be asked while X is still slow.
        """
        job = self._lookup(job_id)
        snapshot = job.telemetry_snapshot()
        if snapshot is None:
            raise _HttpError(
                409, "not-started",
                f"job {job_id} is queued; telemetry exists once it starts",
            )
        return 200, {
            "job_id": job.id,
            "run_id": job.id,
            "status": job.status,
            "telemetry": snapshot,
        }

    def _healthz(self) -> tuple[int, dict]:
        # Uptime comes from the monotonic clock (satellite of PR 8): a
        # wall-clock step must not make it jump or go negative.
        return 200, {
            "status": "ok",
            "uptime_seconds": round(self.manager.uptime_seconds(), 3),
            "queue_depth": self.manager.queue_depth(),
            "jobs": self.manager.counts(),
            "telemetry": _metrics_snapshot(),
        }

    def _readyz(self) -> tuple[int, dict]:
        """``GET /v1/readyz``: 200 while accepting work, 503 draining.

        Distinct from healthz on purpose — a draining server is still
        *alive* (healthz 200, results and streams served) but must
        stop receiving new work from load balancers.
        """
        draining = self.manager.draining
        payload = {
            "status": "draining" if draining else "ready",
            "draining": draining,
            "queue_depth": self.manager.queue_depth(),
        }
        return (503 if draining else 200), payload

    def _metrics(self) -> _RawResponse:
        """``GET /v1/metrics``: the process totals as Prometheus exposition
        text — value-identical to the healthz telemetry block, just in
        the format a standard scraper speaks.  Uptime is refreshed into
        a gauge at scrape time so dashboards get it for free.
        """
        set_gauge("service.uptime_seconds", self.manager.uptime_seconds())
        return _RawResponse(
            render_prometheus(observability.snapshot()["metrics"]).encode(),
            PROMETHEUS_CONTENT_TYPE,
        )


class BackgroundServer:
    """A :class:`ServiceServer` on its own thread + event loop.

    For tests and the load generator: ``start()`` returns once
    the socket is bound (so ``base_url`` is immediately usable from the
    calling thread) and ``stop()`` tears the loop down cleanly.
    """

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = ServiceServer(manager, host=host, port=port)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()

    def start(self) -> str:
        """Bind, start serving on a daemon thread, return the base URL."""
        self._thread = threading.Thread(
            target=self._run, name="repro-service-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):  # pragma: no cover
            raise RuntimeError("service failed to start within 10s")
        return self.server.base_url

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            self._stop_event = asyncio.Event()
            await self.server.start()
            self._ready.set()
            # The listening server stays up until stop() flips the
            # event from another thread; teardown then happens *inside*
            # the loop so the thread exits with nothing pending.
            await self._stop_event.wait()
            await self.server.stop()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None
        self._stop_event = None
