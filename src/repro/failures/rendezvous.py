"""Stage-synchronous estimates: the points of a batch share each solve.

A failure surface is built from many independent estimates, each an
adaptive sampler that solves a pilot batch and then a main batch of a
few hundred cells.  Solved one estimate at a time, every solver call
sees only those few hundred cells and the per-call overhead dominates.
:func:`run` executes the estimates of one batch call *together*:

* each estimate runs its unchanged per-point code on its own thread, in
  a copy of the caller's :mod:`contextvars` context (so an ambient
  cancellation token is carried).  The threads exist only so that an
  estimate can be suspended mid-flight; under the GIL nothing computes
  in parallel;
* a margins evaluation inside an estimate calls :func:`solve`, which
  parks its rows and blocks;
* once every live estimate is parked or finished, one parked estimate
  (the last to park) groups the parked rows by key (problem kind,
  analyzer, operating conditions), solves each group in one call on its
  own thread, hands each estimate its own rows back and wakes them all.
  The next stage then parks, and so on until every estimate has
  returned, while the calling thread waits for them.

Every solver the rows go through is elementwise — each root is the
elementwise bisection's, and the hold solver's active set drops cells
one by one — so a row's margins do not depend on the rows solved beside
it, and every estimate is bit-identical to its pointwise run.  Each
shared solve runs inside one of the estimates it serves, so a profiler
that times calls per thread still finds every solved cell inside some
estimate.

Telemetry keeps the pointwise shape.  A tracer's span stack belongs to
its scope, not to a thread, so each estimate writes to a private scope
of its own (:func:`repro.observability.context.detached_scope`).  The
shared solves run in a copy of the caller's context, so their counters
land in the caller's scope at its open span; and before each solve the
private scopes of the estimates that have finished are merged into the
caller's scope in task order (the finished prefix, as pool-worker
snapshots are merged), so a live reader of the caller's counters sees
them rise as estimates finish.  The rest are merged when :func:`run`
returns.

Failure never deadlocks: an estimate that raises leaves the batch; a
solve that raises fails every estimate of its group; every thread is
joined before :func:`run` returns, which then re-raises the first
failure in task order.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Callable, Sequence

import numpy as np

from repro.observability import merge_worker
from repro.observability._state import scope_var
from repro.observability.context import collected, detached_scope

#: ``solver(shift, z) -> {mechanism: margins}`` for rows of ``z``.
Solver = Callable[[np.ndarray, np.ndarray], dict]

#: The estimate this context runs as part of a batch, or None.
_estimate: contextvars.ContextVar["_Estimate | None"] = contextvars.ContextVar(
    "repro_batch_estimate", default=None
)


class _Estimate:
    """One estimate of a batch: its place, private scope and outcome."""

    __slots__ = ("rendezvous", "index", "scope", "result", "error", "finished")

    def __init__(self, rendezvous: "_Rendezvous", index: int) -> None:
        self.rendezvous = rendezvous
        self.index = index
        self.scope = detached_scope()
        self.result = None
        self.error: BaseException | None = None
        self.finished = False


class _Request:
    """Rows one estimate parked, and the margins it is woken with."""

    __slots__ = (
        "index", "key", "solver", "shift", "z", "margins", "error", "done", "flush",
    )

    def __init__(self, index, key, solver, shift, z) -> None:
        self.index = index
        self.key = key
        self.solver = solver
        self.shift = shift
        self.z = z
        self.margins: dict | None = None
        self.error: BaseException | None = None
        self.done = False
        #: The parked requests this request's thread is to solve, if any.
        self.flush: list["_Request"] | None = None


def solve(key, solver: Solver, shift: np.ndarray, z: np.ndarray) -> dict:
    """``solver(shift, z)``: directly, or with the rows of a whole batch.

    ``key`` names what ``solver`` computes apart from its rows: requests
    with equal keys are solved together, by any one of their solvers.
    ``shift`` is a per-row offset (the inter-die corner) that ``solver``
    must treat elementwise, like every row of ``z``.
    """
    estimate = _estimate.get()
    if estimate is None:
        return solver(shift, z)
    return estimate.rendezvous.park(_Request(estimate.index, key, solver, shift, z))


def run(jobs: Sequence[Callable[[], object]]) -> list:
    """``[job() for job in jobs]``, each job's solves shared with the rest."""
    return _Rendezvous().run(jobs)


class _Rendezvous:
    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: Estimates neither parked nor finished.
        self._running = 0
        self._parked: list[_Request] = []
        #: Set when the calling thread was interrupted: parks then fail.
        self._failed: BaseException | None = None
        #: Where shared solves run: the caller's telemetry scope.
        self._context = contextvars.copy_context()
        self._estimates: list[_Estimate] = []
        #: How many estimates, in task order, are merged into the caller.
        self._merged = 0

    def run(self, jobs: Sequence[Callable[[], object]]) -> list:
        self._estimates = [_Estimate(self, index) for index in range(len(jobs))]
        threads = [
            threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._body, estimate, job),
                name=f"repro-estimate-{estimate.index}",
                daemon=True,
            )
            for estimate, job in zip(self._estimates, jobs)
        ]
        self._running = len(threads)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        except BaseException as exc:
            # The calling thread was interrupted: fail what is parked and
            # whatever parks later, so that every thread can finish.
            with self._cond:
                self._failed = exc
                self._release(self._parked, exc)
                self._parked = []
            raise
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            self._merge_finished()
        for estimate in self._estimates:
            if estimate.error is not None:
                raise estimate.error
        return [estimate.result for estimate in self._estimates]

    def _body(self, estimate: _Estimate, job) -> None:
        """An estimate's thread: the job, in the estimate's own scope."""
        _estimate.set(estimate)
        scope_var.set(estimate.scope)
        try:
            estimate.result = job()
        except BaseException as exc:
            estimate.error = exc
        finally:
            with self._cond:
                estimate.finished = True
                self._stop()

    def park(self, request: _Request) -> dict:
        with self._cond:
            if self._failed is not None:
                raise self._failed
            self._parked.append(request)
            self._stop()
            self._cond.wait_for(lambda: request.done or request.flush is not None)
        if request.flush is not None:
            self._flush(request.flush)
        if request.error is not None:
            raise request.error
        return request.margins

    def _stop(self) -> None:
        """One estimate stopped running (lock held).

        When it was the last, the parked rows go to the estimate that
        parked last, whose thread solves them (:meth:`_flush`).
        """
        self._running -= 1
        if self._running == 0 and self._parked:
            parked, self._parked = self._parked, []
            parked[-1].flush = sorted(parked, key=lambda request: request.index)
            self._cond.notify_all()

    def _flush(self, parked: list[_Request]) -> None:
        """Solve ``parked`` in the caller's scope, then wake its estimates."""
        error = None
        try:
            self._context.run(self._solve, parked)
        except BaseException as exc:
            error = exc
            raise
        finally:
            with self._cond:
                self._running += len(parked)
                self._release(parked, error)

    def _solve(self, parked: list[_Request]) -> None:
        """One solve per key over the parked rows, split back per request."""
        self._merge_finished()
        groups: dict = {}
        for request in parked:
            groups.setdefault(request.key, []).append(request)
        for requests in groups.values():
            try:
                margins = requests[0].solver(
                    np.concatenate([r.shift for r in requests]),
                    np.concatenate([r.z for r in requests]),
                )
            except BaseException as exc:
                for request in requests:
                    request.error = exc
                continue
            start = 0
            for request in requests:
                stop = start + request.z.shape[0]
                request.margins = {
                    name: values[start:stop] for name, values in margins.items()
                }
                start = stop

    def _merge_finished(self) -> None:
        """Merge the finished prefix of the estimates into this scope.

        Runs where no estimate is running (inside a flush, or after
        every thread is joined), so no private scope is being written.
        """
        estimates = self._estimates
        while self._merged < len(estimates) and estimates[self._merged].finished:
            merge_worker(collected(estimates[self._merged].scope))
            self._merged += 1

    def _release(self, parked: list[_Request], error: BaseException | None) -> None:
        """Wake ``parked`` (lock held); ``error`` fails any left unserved."""
        for request in parked:
            if request.margins is None and request.error is None:
                request.error = error
            request.done = True
        self._cond.notify_all()
