"""Pluggable batch executors: how a scheduled batch of jobs runs.

The solve service orders a batch of jobs (tickets ``0..n-1``) and
hands the executor a :class:`BatchPlan` -- four hooks covering one
job's lifecycle, split exactly where the serial loop's side effects
live:

* :meth:`BatchPlan.prologue` -- cache probe + admission decision
  (host-side, cheap; may finish the ticket outright);
* :meth:`BatchPlan.place` -- device placement + dispatch accounting;
* :meth:`BatchPlan.run` -- the actual solve (the heavy, device-bound
  part);
* :meth:`BatchPlan.commit` -- result bookkeeping (record list, result
  cache, outcome counters).

:class:`SerialExecutor` runs the four hooks back-to-back per ticket --
the reference order every other executor must be indistinguishable
from. :class:`ThreadedExecutor` overlaps :meth:`~BatchPlan.run` calls
across host threads (one in-flight job per pooled device) while
keeping every other hook in strict ticket order, and only places a
ticket on a device when no still-running job could change what the
serial placement would have chosen. Records, cache contents, and
counters are therefore byte-identical to serial -- only host wall
clock differs. When the plan reports that overlap could be observable
(``sequential_required``: fault injection, a recording tracer, or
possible cache eviction), or there is only one worker or one ticket,
the threaded executor runs the batch on :class:`SerialExecutor`.

The determinism argument, hook by hook:

* placement -- a device's model clock only grows while it runs a job.
  An idle device ``d`` (settled clock ``s``) is the serial choice for
  the next ticket iff every busy device ``e`` already shows a clock
  beyond ``s`` (or ties with ``d`` losing the index tie-break):
  whatever ``e``'s final clock turns out to be, it cannot undercut
  ``d``. The coordinator waits otherwise, so the device sequence --
  and with it each device's job subsequence and every per-job model
  time -- matches serial exactly.
* cache -- ``prologue``/``commit`` run in ticket order on the
  coordinator thread. A ticket whose request key matches an earlier,
  not-yet-committed ticket waits for that commit (serially it would
  have seen the earlier result in the cache). Probes of *distinct*
  keys commute with other tickets' inserts as long as nothing is
  evicted; when eviction is possible the plan requests the serial
  order instead.
* health -- fault paths mutate pool health with dispatch-clock
  ordinals that cannot be replayed concurrently, so any fault source
  (plan or hook) also forces the serial order.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from typing import Any, List, Optional, Protocol, Union, runtime_checkable

__all__ = [
    "BatchPlan",
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "resolve_executor",
]

#: how long the coordinator naps when no ticket can advance (seconds);
#: wake-ups also arrive eagerly whenever a worker finishes
_POLL_S = 0.002


@runtime_checkable
class BatchPlan(Protocol):
    """One scheduled batch, presented to an executor as hooks.

    ``n`` tickets are processed in ascending order; the executor calls
    ``prologue``/``place``/``commit`` from a single thread in strict
    ticket order and may call ``run`` from worker threads (at most one
    in-flight ticket per device).
    """

    #: number of tickets in the batch
    n: int
    #: size of the device pool (max concurrent ``run`` calls)
    num_devices: int
    #: True when overlapping execution could change observable state
    sequential_required: bool

    def key(self, ticket: int) -> Any:
        """Dependency key: tickets with equal keys must not overlap."""
        ...

    def prologue(self, ticket: int) -> Optional[Any]:
        """Probe cache/admission; a non-None record finishes the ticket."""
        ...

    def place(self, ticket: int, device_index: Optional[int]) -> Any:
        """Dispatch the ticket onto a device; returns the launch state.

        ``device_index`` is the executor's (safety-checked) choice;
        ``None`` asks the plan to place serially itself.
        """
        ...

    def device_clock(self, device_index: int) -> float:
        """Current model clock of one device (monotonic during a job)."""
        ...

    def run(self, ticket: int, state: Any) -> Any:
        """Execute the placed ticket; returns its finished record."""
        ...

    def commit(self, ticket: int, record: Any) -> None:
        """Publish a finished ticket's record (ticket order)."""
        ...


class Executor(Protocol):
    """Drains one scheduled batch; returns records in ticket order."""

    name: str

    def run_batch(self, plan: BatchPlan) -> List[Any]: ...


class SerialExecutor:
    """The reference executor: one ticket at a time, in order.

    Byte-for-byte the historical ``SolveService.run`` loop -- every
    side effect happens at the same point in the same order.
    """

    name = "serial"

    def run_batch(self, plan: BatchPlan) -> List[Any]:
        records: List[Any] = []
        for ticket in range(plan.n):
            record = plan.prologue(ticket)
            if record is None:
                state = plan.place(ticket, None)
                record = plan.run(ticket, state)
            plan.commit(ticket, record)
            records.append(record)
        return records


class ThreadedExecutor:
    """One worker per pooled device; deterministic ticket-order commits.

    Parameters
    ----------
    workers:
        Host threads executing jobs; clamped to the pool size (a
        device runs one job at a time, so extra workers cannot help).
        ``None`` means one per device.
    """

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers

    def run_batch(self, plan: BatchPlan) -> List[Any]:
        workers = self.workers if self.workers is not None else plan.num_devices
        workers = max(1, min(workers, plan.num_devices))
        if plan.sequential_required or workers == 1 or plan.n <= 1:
            return SerialExecutor().run_batch(plan)
        return self._run_parallel(plan, workers)

    def _run_parallel(self, plan: BatchPlan, workers: int) -> List[Any]:
        n = plan.n
        keys = [plan.key(i) for i in range(n)]
        results: List[Any] = [None] * n
        failure: List[Optional[BaseException]] = [None] * n
        done = [False] * n
        busy: dict = {}  # device index -> in-flight ticket
        cond = threading.Condition()
        committed = 0
        next_ticket = 0
        probed: Optional[int] = None  # ticket probed but awaiting placement

        def worker(ticket: int, state: Any) -> None:
            try:
                record = plan.run(ticket, state)
            except BaseException as exc:  # surfaced at commit time
                record = None
                err: Optional[BaseException] = exc
            else:
                err = None
            with cond:
                results[ticket] = record
                failure[ticket] = err
                done[ticket] = True
                for d, t in list(busy.items()):
                    if t == ticket:
                        del busy[d]
                cond.notify_all()

        with _ThreadPool(max_workers=workers) as tp:
            with cond:
                while committed < n:
                    progress = False
                    # publish finished tickets, in ticket order only
                    while committed < n and done[committed]:
                        if failure[committed] is not None:
                            raise failure[committed]
                        plan.commit(committed, results[committed])
                        committed += 1
                        progress = True
                    # advance the probe/placement frontier
                    while next_ticket < n and len(busy) < workers:
                        i = next_ticket
                        if probed is None:
                            if any(
                                keys[j] == keys[i]
                                for j in range(committed, i)
                            ):
                                # an uncommitted same-key ticket exists:
                                # serially this probe would see its result
                                break
                            record = plan.prologue(i)
                            if record is not None:
                                results[i] = record
                                done[i] = True
                                next_ticket += 1
                                progress = True
                                continue
                            probed = i
                        d = self._safe_device(plan, busy)
                        if d is None:
                            break  # placement not yet provably serial
                        state = plan.place(i, d)
                        busy[d] = i
                        tp.submit(worker, i, state)
                        probed = None
                        next_ticket += 1
                        progress = True
                    if not progress and committed < n:
                        cond.wait(_POLL_S)
        return list(results)

    @staticmethod
    def _safe_device(plan: BatchPlan, busy: dict) -> Optional[int]:
        """The device serial placement would pick, or None to wait.

        Idle devices have settled clocks; the argmin idle device ``d``
        is safe once every busy device's *current* clock already rules
        it out of the serial argmin (clocks only grow, and a stale
        cross-thread read is only ever too small -- never unsafe).
        """
        idle = [
            (plan.device_clock(d), d)
            for d in range(plan.num_devices)
            if d not in busy
        ]
        if not idle:
            return None
        settled, d = min(idle)
        for e in busy:
            clock_e = plan.device_clock(e)
            if clock_e > settled or (clock_e == settled and d < e):
                continue
            return None
        return d


def resolve_executor(
    executor: Union[str, Executor, None], workers: Optional[int] = None
) -> Executor:
    """Build an executor from a name, pass one through, or default.

    ``None`` and ``"serial"`` yield :class:`SerialExecutor`;
    ``"threaded"`` yields :class:`ThreadedExecutor` with ``workers``.
    """
    if executor is None or executor == "serial":
        return SerialExecutor()
    if executor == "threaded":
        return ThreadedExecutor(workers=workers)
    if isinstance(executor, str):
        raise ValueError(
            f"unknown executor {executor!r}; expected 'serial' or 'threaded'"
        )
    return executor
