"""service_mix: a real ``python -m repro.service`` under two open loops.

The server runs as deployed: its own process, with cache, checkpoint and
state directories and telemetry on.  One client process (this one)
drives it from two threads, each an open loop timed from when each
request was *due*:

* cold jobs — :data:`COLD_JOBS` ``table`` and ``hold-surface`` specs,
  alternating, each with its own seed, one every :data:`COLD_INTERVAL_S`
  (longer than a job takes, so no backlog builds); each is followed on
  its SSE event stream to completion, as ``loadgen --follow`` does, and
  its result fetched: ``job_p50_s`` is due submit -> result;
* warm reads — every :data:`READ_INTERVAL_S` for as long as the cold
  loop is scheduled, result GETs of completed jobs and duplicate submits
  that must dedupe, in the ratio of ``loadgen.run_load``'s defaults:
  ``read_p50_ms`` / ``read_p99_ms``.

An untraced run boots the server :data:`BOOTS` times and drives the same
load through each boot.  Every boot starts from empty directories, so
ledger replay at boot, and each job's work, is identical from one boot
to the next; each cold job's fastest boot is kept, which leaves out
most of the host's slow stretches (see ``proc.fastest_units``).  All
counts are fixed, so every run, on any host, measures the same load.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import sys
import threading
import time
from typing import Callable, NamedTuple

import report
import workloads
from proc import ROOT, WORK, BenchError, Child, fastest_block, median, percentile

SERVE = ROOT / "perfbench" / "serve.py"
SALT = 303
#: Long enough that a job runs for under a third of it: most warm reads
#: then meet an idle job thread, so read_p50_ms stays off the edge
#: between reads that wait for the job thread's GIL and reads that do not.
COLD_INTERVAL_S = 4.0
#: Cold jobs per boot: one of each kind.
COLD_JOBS = 2
READ_INTERVAL_S = 0.03
#: Warm reads are grouped by due time into blocks of this many seconds.
READ_BLOCK_S = 1.0
#: Warm requests are result GETs and duplicate submits at 50:20, the
#: ratio of ``loadgen.run_load``'s defaults (``result_gets=50``,
#: ``duplicates=20``).
RESULT_GETS, DUPLICATES = 5, 2
#: Loaded boots per untraced run.
BOOTS = 4
#: The fixed limit on read_p99_ms; a run above it is flagged on stderr.
READ_P99_LIMIT_MS = 250.0
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0

_COMMON = {
    "target": 1e-4,
    "calibration_samples": 2_000,
    "analysis_samples": 256,
    "sampler": "adaptive-is",
    "table_grid": 4,
}


#: Seed of the first cold job; job ``i`` uses ``JOB_SEED + i``.  Fixed,
#: because a job's cost depends on its seed by +-30%; the run's seed
#: draws the warm traffic.
JOB_SEED = 5000


def job_spec(index: int) -> dict:
    """The ``index``-th job (0 is the warm-up): kinds alternate, seeds differ."""
    seed = JOB_SEED + index
    if index % 2 == 0:
        return {"kind": "table", **_COMMON, "seed": seed, "vbody_levels": [0.0]}
    return {
        "kind": "hold-surface", **_COMMON, "seed": seed,
        "corner_points": 3, "vsb_levels": [0.0, 0.55],
    }


class Sample(NamedTuple):
    """One request of an open loop (perf_counter seconds)."""

    kind: str
    due: float
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        """From when it was due, so a stall also delays later requests."""
        return self.end - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent it."""
        return self.start - self.due


def open_loop(
    due_times,
    operation: Callable[[int], tuple[str, bool]],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Run ``operation(i)`` at each due time, never earlier.

    A late request is sent at once and still timed from its due time.
    """
    samples = []
    for i, due in enumerate(due_times):
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        start = clock()
        kind, ok = operation(i)
        samples.append(Sample(kind, due, start, clock(), ok))
    return samples


class Client:
    """One HTTP request per connection (the server closes each)."""

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def call(self, method: str, path: str, body: dict | None = None):
        """``(status, decoded body)``; ``(0, None)`` on a transport error."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        except (OSError, http.client.HTTPException, ValueError):
            return 0, None
        finally:
            conn.close()

    def events(self, path: str):
        """``(status, [(event type, data)])`` of an SSE stream, read until
        the server closes it (a job's stream closes after its terminal
        event); ``(0, [])`` on a transport error."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path, headers={"Accept": "text/event-stream"})
            response = conn.getresponse()
            text = response.read().decode()
            events = []
            for block in text.split("\n\n"):
                kind, data = None, []
                for line in block.splitlines():
                    field, _, value = line.partition(":")
                    value = value[1:] if value.startswith(" ") else value
                    if field == "event":
                        kind = value
                    elif field == "data":
                        data.append(value)
                if kind is not None:
                    events.append((kind, json.loads("\n".join(data) or "null")))
            return response.status, events
        except (OSError, http.client.HTTPException, ValueError):
            return 0, []
        finally:
            conn.close()


def _valid_result(result) -> bool:
    """Every surface probability in [0, 1] (log10 p <= 0, finite)."""
    if not isinstance(result, dict):
        return False
    if result.get("kind") == "table":
        rows = [
            values
            for surface in result["surfaces"]
            for values in surface["log10_probability"].values()
        ]
    else:
        rows = result.get("log10_probability", [])
    values = [v for row in rows for v in row]
    return bool(values) and all(math.isfinite(v) and v <= 1e-12 for v in values)


class Session:
    """One server boot under load: the two loops and what they saw."""

    def __init__(self, client: Client, rng) -> None:
        self.client = client
        self.rng = rng
        #: Cold-loop requests (submit / status / result).
        self.samples: list[Sample] = []
        #: Warm-loop requests.
        self.reads: list[Sample] = []
        #: When the loops started (perf_counter seconds).
        self.start = 0.0
        #: Cold jobs by their index in the loop: {"latency", "view", "result"}.
        self.jobs: dict[int, dict] = {}
        #: (job id, spec, result) of every completed job.
        self.completed: list[tuple[str, dict, dict]] = []
        self.problems: list[str] = []
        self.duplicates = self.deduped = 0
        self.warmup_job: dict | None = None
        #: Cells the server's solver evaluated (its ``solver.calls``).
        self.solver_cells = 0.0
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        #: Seconds from the loops' start until both had finished.
        self.load_s = 0.0

    def _request(self, kind, due, method, path, body=None, expect=(200,)):
        start = time.perf_counter()
        status, payload = self.client.call(method, path, body)
        ok = status in expect
        self.samples.append(Sample(kind, due, start, time.perf_counter(), ok))
        if not ok:
            self.problems.append(f"{kind} {method} {path}: HTTP {status}")
        return payload if ok else None

    def complete(self, spec: dict, due: float) -> dict | None:
        """Submit ``spec`` at ``due``, follow its event stream to the end,
        then fetch its status view and its result."""
        submitted = self._request("submit", due, "POST", "/v1/jobs", spec, (200, 202))
        if submitted is None:
            return None
        job_id = submitted["job"]["id"]
        start = time.perf_counter()
        status, events = self.client.events(f"/v1/jobs/{job_id}/events")
        # A job that finished before the stream opened reports it in the
        # opening ``job.state`` snapshot.
        done = any(
            kind == "job.completed" or (kind == "job.state" and data["status"] == "completed")
            for kind, data in events
        )
        self.samples.append(Sample("events", start, start, time.perf_counter(), done))
        if not done:
            self.problems.append(
                f"job {job_id}: stream ended without completion "
                f"(HTTP {status}, {[kind for kind, _ in events]})"
            )
            return None
        status = self._request("status", time.perf_counter(), "GET", f"/v1/jobs/{job_id}")
        if status is None:
            return None
        view = status["job"]
        fetched = self._request(
            "result", time.perf_counter(), "GET", f"/v1/jobs/{job_id}/result"
        )
        if fetched is None:
            return None
        result = fetched["result"]
        if not _valid_result(result):
            self.problems.append(f"job {job_id}: surface probability outside [0, 1]")
        self.completed.append((job_id, spec, result))
        return {"latency": time.perf_counter() - due, "view": view, "result": result}

    def cold_loop(self, specs: list[dict], start: float) -> None:
        """Submit on schedule and follow each job to its result.

        The interval exceeds a job's cost, so a job normally finishes
        before the next is due; if one does not, the next is sent late
        and still timed from its due time.
        """
        for i, spec in enumerate(specs):
            due = start + i * COLD_INTERVAL_S
            time.sleep(max(0.0, due - time.perf_counter()))
            job = self.complete(spec, due)
            if job is not None:
                self.jobs[i] = job

    def warm_operation(self, i: int) -> tuple[str, bool]:
        """A result GET of a completed job, or a duplicate submit.

        The duplicates are spread evenly: ``DUPLICATES`` of every
        ``RESULT_GETS + DUPLICATES`` requests.
        """
        job_id, spec, result = self.completed[int(self.rng.integers(len(self.completed)))]
        if (i * DUPLICATES) % (RESULT_GETS + DUPLICATES) < DUPLICATES:
            status, body = self.client.call("POST", "/v1/jobs", spec)
            deduped = status == 200 and bool(body and body.get("deduped"))
            self.duplicates += 1
            self.deduped += deduped
            return "duplicate", deduped
        status, body = self.client.call("GET", f"/v1/jobs/{job_id}/result")
        return "read", status == 200 and body["result"] == result


def _boot(directory, trace_path=None):
    """Start a server on empty directories; (child, client, setup_s)."""
    shutil.rmtree(directory, ignore_errors=True)
    for sub in ("cache", "checkpoints", "state"):
        (directory / sub).mkdir(parents=True)
    service_args = [
        "--port", "0", "--workers", "1", "--job-workers", "1",
        "--cache-dir", str(directory / "cache"),
        "--checkpoint-dir", str(directory / "checkpoints"),
        "--state-dir", str(directory / "state"),
        "--drain-timeout", "60",
    ]
    if trace_path is None:
        args = ["-m", "repro.service", *service_args]
    else:
        args = [str(SERVE), str(trace_path), *service_args]
    child = Child(args, directory / "stderr.log")
    try:
        line, _ = child.readline(BOOT_TIMEOUT_S)
        if not line.startswith("listening on "):
            raise BenchError(f"unexpected server output {line!r}")
        client = Client(line.split()[-1])
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while client.call("GET", "/v1/readyz")[0] != 200:
            if time.perf_counter() > deadline:
                raise BenchError("server never became ready")
            time.sleep(0.002)
    except BaseException:
        child.kill()
        raise
    return child, client, time.perf_counter() - child.start


def _stop(child: Child) -> None:
    child.terminate()
    if child.finish(BOOT_TIMEOUT_S) != 0:
        raise BenchError(f"server exited {child.proc.returncode}: {child.tail()}")


def _drive(client: Client, specs: list[dict], warmup: dict, seed: int) -> Session:
    """The warm-up job, then both loops: one warm read every
    ``READ_INTERVAL_S`` for as long as the cold loop is scheduled."""
    session = Session(client, workloads.rng_for(seed, SALT))
    session.warmup_job = session.complete(warmup, time.perf_counter())
    if session.warmup_job is None:
        raise BenchError(f"warm-up job failed: {session.problems}")
    start = session.start = time.perf_counter() + 0.05
    cold = threading.Thread(target=session.cold_loop, args=(specs, start))
    cold.start()
    try:
        session.reads = open_loop(
            [start + j * READ_INTERVAL_S
             for j in range(round(len(specs) * COLD_INTERVAL_S / READ_INTERVAL_S))],
            session.warm_operation,
        )
    finally:
        cold.join()
    session.load_s = time.perf_counter() - start
    status, health = client.call("GET", "/v1/healthz")
    counters = health["telemetry"]["metrics"]["counters"] if status == 200 else {}
    session.solver_cells = counters.get("solver.calls", 0.0)
    for name in ("service.jobs_failed", "service.jobs_lost"):
        if counters.get(name, 1.0) != 0.0:
            session.problems.append(f"healthz {name} = {counters.get(name)}")
    return session


def _view_seconds(view: dict) -> tuple[float, float]:
    """(queue wait, run time) of a finished job, from its status view."""
    return (
        view["started_at"] - view["created_at"],
        view["finished_at"] - view["started_at"],
    )


def _worst_halfwidth(result: dict) -> float | None:
    """The surface's worst-cell 95% CI half-width, as the service reports it.

    The API returns no per-cell intervals, so this is the accuracy a
    service user can see.
    """
    if result["kind"] == "table":
        return result["surfaces"][0]["diagnostics"]["worst_ci_halfwidth"]
    return result["diagnostics"]["worst_ci_halfwidth"]


def _compare_in_process(sessions: list[Session]) -> tuple[int, list[str]]:
    """Default seed: every served result must equal an in-process run.

    Runs after the load, so it does not affect the timings; each spec is
    run once.  Returns (results compared, problems).
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.jobs import run_spec
    from repro.service.spec import normalize_spec

    expected: dict[str, dict] = {}
    compared, problems = 0, []
    for session in sessions:
        for job_id, spec, served in session.completed:
            key = json.dumps(spec, sort_keys=True)
            if key not in expected:
                expected[key] = json.loads(json.dumps(run_spec(normalize_spec(spec))))
            compared += 1
            if served != expected[key]:
                problems.append(f"job {job_id}: result differs from an in-process run")
    return compared, problems


def _fastest(sessions: list[Session], seconds: Callable[[dict], float]) -> list[float]:
    """Per cold job, ``seconds`` of its job in the fastest boot."""
    return [
        min(seconds(s.jobs[i]) for s in sessions if i in s.jobs)
        for i in range(COLD_JOBS)
        if any(i in s.jobs for s in sessions)
    ]


def _read_blocks(session: Session) -> list[list[float]]:
    """Warm-read latencies, one block per :data:`READ_BLOCK_S` of due time."""
    blocks: dict[int, list[float]] = {}
    for sample in session.reads:
        index = int((sample.due - session.start) // READ_BLOCK_S)
        blocks.setdefault(index, []).append(sample.latency)
    return list(blocks.values())


def run(seed: int, trace: bool) -> dict:
    """One service_mix measurement (see the module docstring).

    Its size is fixed (:data:`COLD_JOBS` cold jobs per boot), so it takes
    no time budget: an untraced run loads :data:`BOOTS` boots for
    ``COLD_JOBS * COLD_INTERVAL_S`` seconds each; a traced run loads one
    plain boot and one traced boot.
    """
    base = WORK / f"service_mix-{os.getpid()}"
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    warmup = job_spec(0)
    specs = [job_spec(i + 1) for i in range(COLD_JOBS)]
    boots = [None, traces / f"service_mix-seed{seed}-0.json"] if trace else [None] * BOOTS
    sessions = []
    for k, trace_path in enumerate(boots):
        child, client, setup_s = _boot(base / f"boot{k}", trace_path)
        try:
            session = _drive(client, specs, warmup, seed)
            _stop(child)
        except BaseException:
            child.kill()
            raise
        session.setup_s = setup_s
        session.peak_rss_mb = child.peak_rss_mb
        sessions.append(session)
    shutil.rmtree(base, ignore_errors=True)

    plain = [s for s, path in zip(sessions, boots) if path is None]
    problems = [p for session in sessions for p in session.problems]
    reads = [sample.latency for session in plain for sample in session.reads]
    read_p99_ms = median(
        percentile([sample.latency for sample in s.reads], 99) for s in plain
    ) * 1e3
    if read_p99_ms > READ_P99_LIMIT_MS:
        print(
            f"warning: read_p99_ms {read_p99_ms:.1f} is above the "
            f"{READ_P99_LIMIT_MS:g} ms limit: this load point is past capacity",
            file=sys.stderr,
        )
    # Every request, every job result, and the two healthz counters.
    attempted = sum(len(s.samples) + len(s.reads) + len(specs) + 2 for s in sessions)
    if seed == workloads.DEFAULT_SEED:
        compared, mismatches = _compare_in_process(sessions)
        attempted += compared
        problems.extend(mismatches)
    failed = len(problems) + sum(not r.ok for s in sessions for r in s.reads)

    def job_p50(session: Session) -> float:
        return median(job["latency"] for job in session.jobs.values())

    if trace:
        session = sessions[1]
        other = json.loads(boots[1].read_text())["otherData"]
        metrics = report.layer_metrics(other["spans"], other["counters"])
        waits, runs = zip(*(_view_seconds(job["view"]) for job in session.jobs.values()))

        def client_ms(kind: str) -> float:
            return median((s.end - s.start) * 1e3 for s in session.samples if s.kind == kind)

        every = session.samples + session.reads
        metrics.update({
            "service.jobs.queue_wait_s": median(waits),
            "service.jobs.run_s": median(runs),
            "service.client.submit_ms": client_ms("submit"),
            "service.client.status_ms": client_ms("status"),
            "service.client.result_ms": client_ms("result"),
            "service.dedupe_frac": session.deduped / max(session.duplicates, 1),
            "observability.trace_overhead_frac": job_p50(session) / job_p50(plain[0]) - 1.0,
            "trace.wall_s": session.load_s,
            "loadgen.lag_p99_ms": percentile([s.lag for s in every], 99) * 1e3,
            "loadgen.requests": float(len(every)),
        })
        samples = {m.name: 1 for m in report.PER_LAYER}
    else:
        runs = _fastest(plain, lambda job: _view_seconds(job["view"])[1])
        warmup_s = min(_view_seconds(s.warmup_job["view"])[1] for s in plain)
        halfwidths = [
            h for s in plain for h in map(_worst_halfwidth, (j["result"] for j in s.jobs.values()))
            if h
        ]
        metrics = {
            "setup_s": median(s.setup_s for s in plain),
            "cells_per_s": median(s.solver_cells for s in plain) / (warmup_s + sum(runs)),
            "flow_s": median(runs),
            "pfail_ci_rel": median(halfwidths),
            "job_p50_s": median(_fastest(plain, lambda job: job["latency"])),
            "read_p50_ms": fastest_block(
                [block for s in plain for block in _read_blocks(s)], 50
            ) * 1e3,
            "read_p99_ms": read_p99_ms,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": median(s.peak_rss_mb for s in plain),
        }
        samples = {m.name: len(runs) for m in report.END_TO_END}
        samples.update(
            setup_s=len(plain), read_p50_ms=len(reads), read_p99_ms=len(reads),
            peak_rss_mb=len(plain),
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
    }
