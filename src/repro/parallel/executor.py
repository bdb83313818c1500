"""Order-preserving, deterministic, *fault-tolerant* process execution.

The contract that makes ``workers=N`` bit-identical to ``workers=1``:
a task function must be a *pure function of its task payload* — any
randomness it consumes must come from seed material embedded in the
payload (a :class:`numpy.random.SeedSequence` or integers derived from
the task's key fields), never from shared mutable state or the worker's
identity.  Under that contract the executor is free to run tasks
anywhere, in any order, *retry them after a crash*, and reassemble
results by position: a retried task returns exactly what its first
attempt would have.

Resilience (see ``docs/robustness.md``):

* every task attempt is bounded by a :class:`RetryPolicy` — per-task
  timeout, ``max_attempts`` tries, exponential backoff whose jitter is
  seeded from the (task index, attempt) pair, not wall clock;
* a dead worker (``BrokenProcessPool``) or a hung task poisons the
  pool: outstanding successful results are harvested, the pool is
  respawned once, and a second break degrades the remaining tasks to
  the serial inline path with a warning;
* exhausted retries surface as a :class:`TaskError` (or as
  :class:`TaskFailure` placeholders with ``return_failures=True``), so
  callers can distinguish "retried and succeeded" from "gave up";
* everything is counted: ``executor.retries``,
  ``executor.task_failures``, ``executor.pool_respawns``, and
  ``executor.serial_degrades`` in the ``repro.telemetry/1`` snapshot,
  mirrored as instance attributes for telemetry-off tests.

``workers=1`` never touches :mod:`concurrent.futures` at all: tasks run
inline in the calling process, so tests stay hermetic and the serial
path has zero pickling overhead.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import faults, observability
from repro.observability.log import get_logger
from repro.observability.metrics import incr

_log = get_logger("parallel.executor")

#: Internal marker for a not-yet-computed result slot.
_UNSET = object()


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounds on per-task failure handling.

    Attributes:
        max_attempts: total tries per task (1 = no retry).
        timeout: seconds a fanned-out task may run before it is
            declared hung (None = wait forever).  Enforced on the pool
            path only — an inline task cannot be preempted.
        backoff_base: first-retry delay [s]; doubles per attempt.
        backoff_max: ceiling on any single delay [s].
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def backoff_delay(self, task_index: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (>=1) of task ``task_index``.

        Exponential with jitter seeded from the (index, attempt) pair —
        the schedule is a pure function of the task key, so retried
        runs are reproducible down to their sleep pattern.
        """
        jitter = random.Random(f"retry:{task_index}:{attempt}").random()
        delay = self.backoff_base * (2 ** (attempt - 1))
        return min(self.backoff_max, delay) * (0.5 + jitter)


@dataclasses.dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retry budget.

    Returned in-place of a result by ``map(..., return_failures=True)``
    and carried by :class:`TaskError` otherwise.
    """

    index: int
    attempts: int
    kind: str  # "exception" | "timeout" | "worker-crash"
    error: str

    def __str__(self) -> str:
        return (
            f"task {self.index} gave up after {self.attempts} attempt(s) "
            f"[{self.kind}]: {self.error}"
        )


class TaskError(RuntimeError):
    """One or more tasks failed after exhausting their retry budget."""

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = list(failures)
        first = self.failures[0]
        extra = (
            f" (and {len(self.failures) - 1} more)"
            if len(self.failures) > 1
            else ""
        )
        super().__init__(f"{first}{extra}")


def _pool_task(payload: tuple) -> tuple:
    """Worker entry point: apply any injected fault, run, snapshot.

    ``payload`` is ``(fn, task, action, collect, run_id)`` where
    ``action`` is the fault directive the parent computed for this
    attempt (or None), ``collect`` says whether the parent wants a
    telemetry snapshot shipped home alongside the result, and
    ``run_id`` is the run id active at the fan-out call site (or
    None) — it names the worker's root so worker-side log events carry
    the same ``run_id=`` stamp as the parent's, across fork and spawn
    alike.
    """
    fn, task, action, collect, run_id = payload
    faults.apply_task_action(action, in_worker=True)
    if not collect:
        observability.context.name_root(run_id)
        return fn(task), None
    observability.worker_begin(run_id)
    result = fn(task)
    return result, observability.worker_snapshot()


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """``n`` statistically independent child seeds of ``seed``.

    Each child is stable across processes and platforms (pure integer
    arithmetic inside :class:`numpy.random.SeedSequence`), so embedding
    ``spawn_seeds(seed, n)[i]`` into task ``i``'s payload gives every
    task its own reproducible stream regardless of which worker runs
    it — and regardless of how many times it was retried.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return np.random.SeedSequence(seed).spawn(n)


class ParallelExecutor:
    """Maps a function over tasks, optionally across processes.

    Args:
        workers: process count.  ``1`` (the default) executes inline in
            the calling process — no pool, no pickling; ``None`` or any
            value above the machine's core count clamps to
            ``os.cpu_count()``.
        chunksize: retained for API compatibility; the resilient map
            dispatches tasks individually so every attempt is
            independently retryable.
        retry: failure-handling bounds (default :class:`RetryPolicy`:
            3 attempts, no timeout).
        fault_plan: a chaos-harness plan consulted per task attempt;
            defaults to the process-wide plan armed via
            :func:`repro.faults.install`.

    Attributes:
        retries / task_failures / pool_respawns / serial_degrades:
            lifetime resilience counters for this instance (also
            mirrored into the telemetry registry when collection is
            on).

    The executor holds no pool between calls (a pool is created and
    torn down inside :meth:`map`), so instances are cheap, picklable,
    and safe to store on long-lived objects like
    :class:`~repro.experiments.context.ExperimentContext`.
    """

    def __init__(
        self,
        workers: int | None = 1,
        chunksize: int | None = None,
        retry: RetryPolicy | None = None,
        fault_plan=None,
    ) -> None:
        cores = os.cpu_count() or 1
        if workers is None:
            workers = cores
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = min(int(workers), cores) if workers > 1 else 1
        #: The worker count actually requested (before core clamping);
        #: kept so configuration round-trips through repr/logs.
        self.requested_workers = int(workers)
        self.chunksize = chunksize
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.retries = 0
        self.task_failures = 0
        self.pool_respawns = 0
        self.serial_degrades = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelExecutor(workers={self.requested_workers})"

    @property
    def is_serial(self) -> bool:
        """True when :meth:`map` runs inline (no subprocesses)."""
        return self.requested_workers <= 1

    def _plan(self):
        return (
            self.fault_plan
            if self.fault_plan is not None
            else faults.active_plan()
        )

    def _task_action(self, index: int) -> dict | None:
        plan = self._plan()
        return plan.task_action(index) if plan is not None else None

    # ------------------------------------------------------------------
    # Failure accounting shared by the inline and pool paths
    # ------------------------------------------------------------------
    def _note_retry(self, index: int, attempt: int, kind: str, exc) -> float:
        self.retries += 1
        incr("executor.retries")
        delay = self.retry.backoff_delay(index, attempt)
        _log.warning(
            "executor.task_retry",
            task=index,
            attempt=attempt,
            kind=kind,
            error=repr(exc),
            backoff_s=round(delay, 3),
        )
        return delay

    def _note_failure(self, index: int, attempts: int, kind: str, exc):
        failure = TaskFailure(
            index=index, attempts=attempts, kind=kind, error=repr(exc)
        )
        self.task_failures += 1
        incr("executor.task_failures")
        _log.warning("executor.task_failed", task=index, error=str(failure))
        return failure

    # ------------------------------------------------------------------
    # Inline (serial) path
    # ------------------------------------------------------------------
    def _run_inline(self, fn: Callable, task, index: int):
        """One task inline, with retries; returns result or TaskFailure."""
        attempt = 0
        while True:
            action = self._task_action(index)
            try:
                faults.apply_task_action(action, in_worker=False)
                return fn(task)
            except Exception as exc:
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    return self._note_failure(index, attempt, "exception", exc)
                time.sleep(self._note_retry(index, attempt, "exception", exc))

    def _map_inline(
        self, fn: Callable, task_list: Sequence, return_failures: bool
    ) -> list:
        results = []
        for index, task in enumerate(task_list):
            outcome = self._run_inline(fn, task, index)
            if isinstance(outcome, TaskFailure) and not return_failures:
                raise TaskError([outcome])
            results.append(outcome)
        return results

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------
    def _map_pool(
        self, fn: Callable, task_list: Sequence, return_failures: bool
    ) -> list:
        n = len(task_list)
        collect = observability.enabled()
        # The run scope active *here* owns every task of this map call;
        # its id travels in the payload so worker logs correlate, and
        # snapshots merged back on this thread land in the same scope.
        run_id = observability.current_run_id()
        results: list = [_UNSET] * n
        attempts = [0] * n
        pending = set(range(n))
        failures: dict[int, TaskFailure] = {}
        pool_breaks = 0
        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while pending:
                futures = {}
                submit_broken = False
                for i in sorted(pending):
                    try:
                        futures[i] = pool.submit(
                            _pool_task,
                            (
                                fn, task_list[i], self._task_action(i),
                                collect, run_id,
                            ),
                        )
                    except BrokenProcessPool:
                        # A worker died while this round was still being
                        # submitted; stop here — the unsent tasks stay
                        # pending and uncharged for the next round.
                        submit_broken = True
                        break
                backoffs: list[float] = []
                broken = False
                charged: set[int] = set()
                for i in sorted(futures):
                    if broken:
                        break
                    try:
                        value, snap = futures[i].result(
                            timeout=self.retry.timeout
                        )
                    except FuturesTimeoutError:
                        broken = True
                        charged.add(i)
                        self._attempt_failed(
                            i, "timeout",
                            TimeoutError(
                                f"no result within {self.retry.timeout}s"
                            ),
                            attempts, pending, failures, backoffs,
                        )
                    except BrokenProcessPool as exc:
                        broken = True
                        charged.add(i)
                        self._attempt_failed(
                            i, "worker-crash", exc,
                            attempts, pending, failures, backoffs,
                        )
                    except Exception as exc:
                        charged.add(i)
                        self._attempt_failed(
                            i, "exception", exc,
                            attempts, pending, failures, backoffs,
                        )
                    else:
                        if snap is not None:
                            observability.merge_worker(snap)
                        results[i] = value
                        pending.discard(i)
                broken = broken or submit_broken
                if broken:
                    # Harvest siblings that finished before the break,
                    # charge one failed attempt to the rest (a future
                    # that cancels cleanly never ran: no charge).
                    for j, fut in futures.items():
                        if j not in pending or j in charged or fut.cancel():
                            continue
                        try:
                            value, snap = fut.result(timeout=0)
                        except Exception as exc:
                            self._attempt_failed(
                                j, "worker-crash", exc,
                                attempts, pending, failures, backoffs,
                            )
                        else:
                            if snap is not None:
                                observability.merge_worker(snap)
                            results[j] = value
                            pending.discard(j)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool_breaks += 1
                    if failures and not return_failures:
                        raise TaskError(sorted(
                            failures.values(), key=lambda f: f.index
                        ))
                    if not pending:
                        break
                    if pool_breaks > 1:
                        # Second break: stop trusting pools entirely.
                        self.serial_degrades += 1
                        incr("executor.serial_degrades")
                        _log.warning(
                            "executor.degraded_serial",
                            remaining=len(pending),
                            reason="process pool broke twice",
                        )
                        for i in sorted(pending):
                            outcome = self._run_inline(fn, task_list[i], i)
                            if isinstance(outcome, TaskFailure):
                                failures[i] = outcome
                                if not return_failures:
                                    raise TaskError([outcome])
                            else:
                                results[i] = outcome
                        pending.clear()
                        break
                    self.pool_respawns += 1
                    incr("executor.pool_respawns")
                    _log.warning(
                        "executor.pool_respawn", remaining=len(pending)
                    )
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                elif failures and not return_failures:
                    raise TaskError(sorted(
                        failures.values(), key=lambda f: f.index
                    ))
                if pending and backoffs:
                    time.sleep(max(backoffs))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for i, failure in failures.items():
            results[i] = failure
        return results

    def _attempt_failed(
        self, index, kind, exc, attempts, pending, failures, backoffs
    ) -> None:
        """Charge one failed attempt; retire the task when exhausted."""
        attempts[index] += 1
        if attempts[index] >= self.retry.max_attempts:
            failures[index] = self._note_failure(
                index, attempts[index], kind, exc
            )
            pending.discard(index)
        else:
            backoffs.append(
                self._note_retry(index, attempts[index], kind, exc)
            )

    def map(
        self,
        fn: Callable,
        tasks: Iterable,
        return_failures: bool = False,
    ) -> list:
        """``[fn(t) for t in tasks]``, fanned out when ``workers > 1``.

        Results are returned in task order.  ``fn`` and every task must
        be picklable when ``workers > 1`` (``fn`` must be a module-level
        function, not a lambda or closure).

        Failed attempts are retried per the executor's
        :class:`RetryPolicy`; a task that exhausts its budget raises
        :class:`TaskError` — or, with ``return_failures=True``, leaves
        a :class:`TaskFailure` in its result slot so a caller can keep
        the survivors.
        """
        task_list: Sequence = list(tasks)
        observability.incr("parallel.map_calls")
        observability.incr("parallel.tasks", len(task_list))
        if self.is_serial or len(task_list) <= 1:
            return self._map_inline(fn, task_list, return_failures)
        _log.info(
            "parallel.map",
            tasks=len(task_list),
            workers=self.workers,
            max_attempts=self.retry.max_attempts,
            timeout=self.retry.timeout,
        )
        return self._map_pool(fn, task_list, return_failures)
