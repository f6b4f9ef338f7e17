"""The worker-thread bridge between asyncio and the SolveService.

A :class:`~repro.service.SolveService` is a blocking, batch-oriented
API: ``submit`` then ``run()`` drains everything through the
scheduler, cache, admission controller, and executor. The event loop
must never sit inside that call, so the bridge owns one dedicated
host thread that *micro-batches*: it sleeps until a job is queued,
takes everything queued at that instant, runs the solves as one
service batch, and completes each job's
:class:`concurrent.futures.Future` with its
:class:`~repro.service.request.JobRecord`. Requests that arrive
together thus share one scheduler pass (``sef`` ordering and the
result cache see one workload) and the service's executor, so
``repro serve --workers N`` gets multi-device overlap for free.

Session operations (open / mutate / close, see docs/STREAMING.md) are
jobs too: callables run on the worker *after* the solve batch taken in
the same wakeup, in FIFO order, which serializes each session's
epochs. Their solves run through :meth:`SolveBridge.run_requests`,
the batch runner of the solve micro-batch.

The bounded queue is the server's backpressure point, in front of the
service's admission controller: past ``max_queue`` waiting jobs,
``submit`` raises :class:`BridgeQueueFull` (``server_busy``).
Draining lets the in-flight batch finish while every queued job fails
fast with a retriable ``draining`` error. A batch that raises fails
the jobs its wakeup took with ``internal``; the worker keeps serving.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ServerError
from ..log import get_logger
from ..service.request import SolveRequest

__all__ = ["SolveBridge", "BridgeQueueFull"]

log = get_logger("server.bridge")

#: job states reported by :meth:`SolveBridge.state`
QUEUED = "queued"
RUNNING = "running"
DONE = "done"


class BridgeQueueFull(ServerError):
    """The bounded bridge queue is at capacity (backpressure signal).

    Answered as a retriable ``server_busy`` with a short retry hint.
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        super().__init__(
            f"bridge queue full at {depth} request(s)",
            code="server_busy",
            retry_after_s=0.1,
        )


@dataclass(eq=False)
class _Job:
    """One queued or running unit of worker work.

    A solve carries its ``request`` (``key`` is its job id, under which
    the bridge's live table holds it); a session operation carries
    ``fn`` instead.
    """

    future: Future
    request: Optional[SolveRequest] = None
    fn: Optional[Callable[[], Any]] = None
    key: Optional[str] = None
    state: str = QUEUED
    #: newest completed-window checkpoint of a running solve
    checkpoint: Any = None


class SolveBridge:
    """Micro-batching worker-thread bridge over one ``SolveService``."""

    def __init__(self, service, max_queue: int = 64) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.service = service
        self.max_queue = max_queue
        self._cond = threading.Condition()
        self._queue: List[_Job] = []
        #: job id -> queued or running solve; a job leaves it when done
        self._live: Dict[str, _Job] = {}
        self._in_flight = 0
        self._draining = False
        self._stopped = False
        self._idle = threading.Event()
        self._idle.set()
        self._thread = threading.Thread(
            target=self._run, name="solve-bridge", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # front-end API (called from the event loop)
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> "Future":
        """Queue one request; its future resolves to a JobRecord.

        Raises :class:`BridgeQueueFull` when the bounded queue is at
        capacity and :class:`~repro.errors.ServerError` (code
        ``draining``) once a drain has begun.
        """
        if request.job_id is None:
            raise ValueError("bridge requests need a pre-assigned job_id")
        # expose the newest completed-window checkpoint of this job
        # while it is in flight (the ``checkpoint`` wire frame and,
        # through it, the cluster router's failover shipping)
        if request.checkpoint_sink is None:
            request.checkpoint_sink = functools.partial(
                self._keep_checkpoint, request.job_id
            )
        return self._enqueue(_Job(Future(), request=request, key=request.job_id))

    def submit_session(self, fn: Callable[[], Any]) -> "Future":
        """Queue one session operation; its future gets ``fn()``'s result.

        ``fn`` runs on the worker thread, where it may drive the
        service through :meth:`run_requests` (the session's localized
        and full solves). Shares the queue bound and the drain
        discipline with solve requests.
        """
        return self._enqueue(_Job(Future(), fn=fn))

    def _enqueue(self, job: _Job) -> "Future":
        with self._cond:
            if self._draining or self._stopped:
                raise ServerError(
                    "server is draining; retry against another replica",
                    code="draining",
                )
            if len(self._queue) >= self.max_queue:
                raise BridgeQueueFull(len(self._queue))
            self._queue.append(job)
            if job.key is not None:
                self._live[job.key] = job
            self._idle.clear()
            self._cond.notify()
        return job.future

    def _keep_checkpoint(self, job_id: str, ckpt) -> None:
        """Record the latest checkpoint (called from the worker thread)."""
        with self._cond:
            job = self._live.get(job_id)
            if job is not None:
                job.checkpoint = ckpt

    def checkpoint(self, job_id: str):
        """The newest completed-window checkpoint of an in-flight job.

        Returns a :class:`~repro.core.checkpoint.SearchCheckpoint` or
        None (job unknown, finished, or not resumable). A checkpoint
        leaves with its job -- a finished job's result is the better
        artefact.
        """
        with self._cond:
            job = self._live.get(job_id)
            return job.checkpoint if job is not None else None

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running jobs cannot be stopped.

        Returns True when the job was removed from the queue (its
        future fails with a ``cancelled`` ServerError); False when it
        is already running, finished, or unknown.
        """
        with self._cond:
            job = self._live.get(job_id)
            if job is None or job.state != QUEUED:
                return False
            self._queue.remove(job)
            self._finish(
                job,
                error=ServerError(
                    f"job {job_id} cancelled before it ran", code="cancelled"
                ),
            )
            return True

    def state(self, job_id: str) -> str:
        """``queued`` / ``running`` while the bridge holds it, else ``done``."""
        with self._cond:
            job = self._live.get(job_id)
            return job.state if job is not None else DONE

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Jobs taken by the worker's current wakeup."""
        with self._cond:
            return self._in_flight

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Reject everything queued, let the in-flight batch finish.

        Blocks until the worker thread is idle (or ``timeout_s``
        elapses); returns True when the drain completed in time. Safe
        to call from any thread except the worker itself.
        """
        with self._cond:
            self._draining = True
            queued, self._queue = self._queue, []
            for job in queued:
                self._finish(
                    job,
                    error=ServerError(
                        "server is draining; queued job rejected", code="draining"
                    ),
                )
            self._cond.notify()
        return self._idle.wait(timeout_s)

    def stop(self, timeout_s: Optional[float] = 10.0) -> None:
        """Drain, then terminate the worker thread."""
        self.drain(timeout_s)
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join(timeout_s)

    # ------------------------------------------------------------------
    # worker thread
    # ------------------------------------------------------------------
    def _finish(self, job: _Job, result: Any = None, error=None) -> None:
        """Complete one job: it leaves the live table, its future settles.

        The one place a future is completed. A future its waiter has
        already cancelled (a connection teardown cancels the wrapped
        future) is left as it is: nobody is listening.
        """
        with self._cond:
            self._live.pop(job.key, None)
        try:
            if error is None:
                job.future.set_result(result)
            else:
                job.future.set_exception(error)
        except InvalidStateError:
            pass

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._idle.set()
                    self._cond.wait()
                if not self._queue:
                    self._idle.set()
                    return
                taken, self._queue = self._queue, []
                solves, sessions = [], []
                for job in taken:
                    deadline = job.request.deadline if job.request else None
                    if not job.future.set_running_or_notify_cancel():
                        # the waiter vanished: skip the work; a retry
                        # re-submits with the same request_id
                        self._live.pop(job.key, None)
                    elif job.fn is not None:
                        sessions.append(job)
                    elif deadline is not None and deadline.expired:
                        # the client's budget ran out while the job sat
                        # queued: fail it retriable *now* instead of
                        # computing an answer nobody is waiting for
                        self._finish(
                            job,
                            error=ServerError(
                                f"job {job.key} missed its deadline while queued",
                                code="deadline_exceeded",
                            ),
                        )
                    else:
                        job.state = RUNNING
                        solves.append(job)
                self._in_flight = len(solves) + len(sessions)
            try:
                if solves:
                    self._run_batch(solves)
                # session operations run after the solve batch taken in
                # the same wakeup, in FIFO order (per-session serialization)
                for job in sessions:
                    try:
                        result = job.fn()
                    except Exception as exc:
                        self._finish(job, error=exc)
                    else:
                        self._finish(job, result)
            except Exception as exc:  # a service-layer invariant broke
                # contained: fail what this wakeup took, keep serving
                log.exception("bridge batch of %d job(s) failed", len(solves))
                for job in solves + sessions:
                    self._finish(
                        job, error=ServerError(f"internal service failure: {exc}")
                    )
            finally:
                with self._cond:
                    self._in_flight = 0

    def _run_batch(self, jobs: List[_Job]) -> None:
        records = self.run_requests([job.request for job in jobs])
        for job, record in zip(jobs, records):
            if record is None:  # pragma: no cover - defensive
                self._finish(
                    job, error=ServerError("service returned no record for this job")
                )
            else:
                self._finish(job, record)

    def run_requests(self, requests: List[SolveRequest]) -> list:
        """Run ``requests`` as one service batch; their records, in order.

        Worker thread only -- the one thread allowed to drive the
        service. The solve micro-batch and every session's solves come
        through here. A request the service returned no record for
        maps to None.
        """
        for request in requests:
            self.service.submit(request)
        by_id = {record.job_id: record for record in self.service.run()}
        return [by_id.get(request.job_id) for request in requests]
