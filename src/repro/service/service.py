"""The batched solve service.

:class:`SolveService` turns the one-shot
:class:`~repro.core.solver.MaxCliqueSolver` into a multi-request
serving layer: jobs are submitted (:meth:`SolveService.submit`),
ordered by the scheduler, checked against the result cache, admitted
by the memory controller, executed on the least-loaded device of a
simulated pool, retried down the degradation ladder on OOM/timeout,
and reported as :class:`~repro.service.request.JobRecord` objects.

*How* a scheduled batch drains is delegated to a pluggable
:class:`~repro.engine.executor.Executor`: the service packages each
batch as a :class:`_BatchPlan` (cache/admission prologue, device
placement, solve, commit) and the executor decides whether tickets
run one at a time (``"serial"``) or overlap across host threads with
one in-flight job per pooled device (``"threaded"`` -- byte-identical
records, cache, and counters; only host wall clock drops).

Observability rides on the PR-1 tracer: each executed job runs inside
a ``service.job`` span (category ``"service"``) on its device's model
clock, with the pipeline's per-stage spans nested inside, and the
service emits ``service.*`` counters (cache hits/misses, admission
decisions, retries, outcomes) -- see docs/OBSERVABILITY.md.

>>> from repro.service import SolveService
>>> svc = SolveService(devices=2, policy="sef")
>>> svc.submit_graph(g, heuristic="multi-degree")
'job-0'
>>> records = svc.run()
>>> records[0].status, records[0].cache_hit
('ok', False)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.config import SolverConfig, is_time_budget
from ..core.solver import MaxCliqueSolver
from ..engine.executor import Executor, resolve_executor
from ..errors import (
    CheckpointError,
    DeviceLostError,
    DeviceOOMError,
    FlakyAllocError,
    SolveTimeoutError,
    TransientDeviceError,
)
from ..graph.csr import CSRGraph
from ..gpusim.spec import DeviceSpec
from ..log import get_logger
from ..trace import NULL_TRACER, Tracer
from .admission import AdmissionController, REJECT
from .cache import ResultCache, request_key
from .policy import DegradationPolicy
from .request import (
    JobRecord,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    SolveRequest,
)
from .pool import DevicePool
from .scheduler import Scheduler

__all__ = ["SolveService", "ServiceSummary"]

log = get_logger("service")


@dataclass(frozen=True)
class ServiceSummary:
    """Aggregate figures over every record the service produced."""

    total: int
    ok: int
    rejected: int
    failed: int
    cache_hits: int
    attempts: int
    transient_retries: int  #: same-config retries after transient faults
    migrations: int  #: device migrations after device loss
    device_faults: int  #: faults accounted across the pool's breakers
    model_time_s: float  #: device model time charged across all jobs
    makespan_model_s: float  #: busiest device's clock (pool completion)
    wall_time_s: float  #: host wall time spent inside run()
    devices: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "ok": self.ok,
            "rejected": self.rejected,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "attempts": self.attempts,
            "transient_retries": self.transient_retries,
            "migrations": self.migrations,
            "device_faults": self.device_faults,
            "model_time_s": self.model_time_s,
            "makespan_model_s": self.makespan_model_s,
            "wall_time_s": self.wall_time_s,
            "devices": self.devices,
        }


class SolveService:
    """A scheduling, caching, admission-controlled solve service.

    Parameters
    ----------
    devices:
        Size of the simulated device pool.
    spec:
        Spec shared by every pool device (memory budget lives here).
    policy:
        Job ordering: ``"fifo"`` or ``"sef"`` (shortest-expected-first).
    cache_size:
        Result-cache capacity in entries; 0 disables caching.
    max_attempts:
        Attempts per job along the degradation ladder (>= 1).
    default_timeout_s:
        Per-job wall-clock budget applied when a request carries none;
        ``None`` or a value :func:`~repro.core.config.is_time_budget`
        accepts (``ValueError`` otherwise).
    tracer:
        Receives ``service.job`` spans and ``service.*`` counters plus
        all nested pipeline spans/kernels; defaults to the no-op
        tracer.
    admission / degradation:
        Override the stock controller/ladder (mainly for tests).
    fault_hook:
        Test/fault-injection hook called as ``hook(request, attempt,
        config)`` immediately before each launch; an exception it
        raises is handled exactly like a solver failure.
    fault_plan:
        A :class:`~repro.gpusim.faults.FaultPlan` whose injectors are
        installed on the pool's devices (``repro batch --fault-plan``).
        The service absorbs the injected faults: transient faults
        retry the same configuration on the same device, device loss
        quarantines the device and migrates the job (resuming from its
        latest checkpoint) -- results are identical to a fault-free
        run, only the fault/retry/migration accounting differs.
    executor:
        How a scheduled batch drains: ``"serial"`` (one job at a
        time, the default), ``"threaded"`` (host threads overlap jobs
        across the pool's devices, producing byte-identical records
        and counters in less wall time), or an
        :class:`~repro.engine.executor.Executor` instance.
    workers:
        Worker-thread count for ``executor="threaded"`` (clamped to
        the pool size; ``None`` means one per device). Ignored for
        other executors.
    """

    def __init__(
        self,
        devices: int = 1,
        spec: Optional[DeviceSpec] = None,
        policy: str = "fifo",
        cache_size: int = 128,
        max_attempts: int = 3,
        default_timeout_s: Optional[float] = None,
        tracer: Tracer = NULL_TRACER,
        admission: Optional[AdmissionController] = None,
        degradation: Optional[DegradationPolicy] = None,
        fault_hook: Optional[
            Callable[[SolveRequest, int, SolverConfig], None]
        ] = None,
        fault_plan=None,
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
    ) -> None:
        if default_timeout_s is not None and not is_time_budget(default_timeout_s):
            raise ValueError("default_timeout_s must be a positive finite number")
        self.pool = DevicePool(devices, spec)
        if fault_plan is not None:
            self.pool.install_fault_plan(fault_plan)
        self.executor: Executor = resolve_executor(executor, workers)
        self.scheduler = Scheduler(policy)
        self.tracer = tracer
        self.cache = ResultCache(cache_size, tracer=tracer)
        self.admission = admission if admission is not None else AdmissionController()
        self.degradation = (
            degradation
            if degradation is not None
            else DegradationPolicy(max_attempts=max_attempts)
        )
        self.default_timeout_s = default_timeout_s
        self.fault_hook = fault_hook
        self.records: List[JobRecord] = []
        self._pending: List[SolveRequest] = []
        self._seq = 0
        self._run_wall_s = 0.0
        #: guards the records log for cross-thread readers
        #: (:meth:`stats_snapshot` may run while a batch commits)
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> str:
        """Queue a request; returns its (possibly assigned) job id."""
        with self._stats_lock:
            if request.job_id is None:
                request.job_id = f"job-{self._seq}"
            request.seq = self._seq
            self._seq += 1
            self._pending.append(request)
        return request.job_id

    def submit_graph(
        self,
        graph: CSRGraph,
        config: Optional[SolverConfig] = None,
        job_id: Optional[str] = None,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        label: str = "",
        **config_kwargs,
    ) -> str:
        """Convenience: build the request from a graph + config kwargs."""
        if config is not None and config_kwargs:
            raise ValueError("pass either a config object or keyword options, not both")
        if config is None:
            config = SolverConfig(**config_kwargs)
        return self.submit(
            SolveRequest(
                graph=graph,
                config=config,
                job_id=job_id,
                priority=priority,
                timeout_s=timeout_s,
                label=label,
            )
        )

    @property
    def pending(self) -> int:
        """Jobs queued but not yet run."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> List[JobRecord]:
        """Drain the queue in scheduled order; returns this run's records.

        The batch is handed to the configured executor as a
        :class:`_BatchPlan`; record order, cache contents, and
        counters are the same for every executor (records land in
        scheduled order regardless of completion order).
        """
        with self._stats_lock:
            batch, self._pending = self._pending, []
        ordered = self.scheduler.order(batch)
        t0 = time.perf_counter()
        try:
            return self.executor.run_batch(_BatchPlan(self, ordered))
        finally:
            self._run_wall_s += time.perf_counter() - t0

    def solve(self, graph: CSRGraph, config: Optional[SolverConfig] = None, **kw) -> JobRecord:
        """One-shot convenience: submit one job and run it now."""
        self.submit_graph(graph, config, **kw)
        return self.run()[-1]

    def summary(self) -> ServiceSummary:
        """Aggregate figures across everything run so far."""
        recs = self.records
        return ServiceSummary(
            total=len(recs),
            ok=sum(1 for r in recs if r.status == STATUS_OK),
            rejected=sum(1 for r in recs if r.status == STATUS_REJECTED),
            failed=sum(1 for r in recs if r.status == STATUS_FAILED),
            cache_hits=sum(1 for r in recs if r.cache_hit),
            attempts=sum(r.attempts for r in recs),
            transient_retries=sum(r.transient_retries for r in recs),
            migrations=sum(r.migrations for r in recs),
            device_faults=sum(h.total_faults for h in self.pool.health),
            model_time_s=sum(r.model_time_s for r in recs),
            makespan_model_s=self.pool.makespan_model_s,
            wall_time_s=self._run_wall_s,
            devices=len(self.pool),
        )

    def stats_snapshot(self) -> Dict[str, Any]:
        """Thread-safe point-in-time statistics for external readers.

        The supported way for monitoring surfaces (the network
        server's ``stats`` frame, dashboards, tests) to observe the
        service without poking its internals: one consistent copy of
        the job-outcome tallies, the result-cache counters, and the
        pool's per-device health -- safe to call from any thread while
        a batch is running.
        """
        with self._stats_lock:
            recs = list(self.records)
            pending = len(self._pending)
        by_status: Dict[str, int] = {
            STATUS_OK: 0, STATUS_REJECTED: 0, STATUS_FAILED: 0
        }
        for r in recs:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        return {
            "jobs": {
                "total": len(recs),
                "ok": by_status[STATUS_OK],
                "rejected": by_status[STATUS_REJECTED],
                "failed": by_status[STATUS_FAILED],
                "cache_hits": sum(1 for r in recs if r.cache_hit),
                "degraded": sum(1 for r in recs if r.degraded),
                "attempts": sum(r.attempts for r in recs),
                "transient_retries": sum(r.transient_retries for r in recs),
                "migrations": sum(r.migrations for r in recs),
            },
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "size": len(self.cache),
                "capacity": self.cache.capacity,
            },
            "pool": {
                "devices": len(self.pool),
                "makespan_model_s": self.pool.makespan_model_s,
                "total_model_s": self.pool.total_model_s,
                "jobs_dispatched": list(self.pool.jobs_dispatched),
                "device_faults": sum(h.total_faults for h in self.pool.health),
                "health": [h.to_dict() for h in self.pool.health],
            },
            "pending": pending,
            "model_time_s": sum(r.model_time_s for r in recs),
            "wall_time_s": self._run_wall_s,
        }

    def _attempt_ladder(
        self,
        request: SolveRequest,
        config: SolverConfig,
        device,
        dev_index: int,
        record: JobRecord,
    ) -> None:
        """Run attempts until success or every budget is exhausted.

        Three separate failure budgets apply, filling ``record``:

        * OOM/timeout walk the degradation ladder
          (``degradation.max_attempts`` launches, possibly changed
          config each rung -- any pending checkpoint is dropped, its
          window layout belongs to the old config);
        * transient device faults retry the *same* config on the same
          device (``degradation.max_transient_retries``), resuming a
          windowed search from its last completed window;
        * device loss quarantines the device and migrates the job to
          the healthiest eligible device
          (``degradation.max_migrations``), resuming from the
          checkpoint the dying solve carried out.
        """
        ladder_attempts = 0
        checkpoint = None  # resume point for the next launch
        latest = [None]  # newest completed-window checkpoint (sink cell)

        def sink(ckpt) -> None:
            latest[0] = ckpt
            if request.checkpoint_sink is not None:
                request.checkpoint_sink(ckpt)

        if request.checkpoint is not None and config.resumable:
            # checkpoint-shipped failover: a router (or caller) handed
            # us the resume point of a solve that died elsewhere
            checkpoint = request.checkpoint
            self.tracer.counter("service.checkpoint.shipped_resumes")

        while True:
            record.attempts += 1
            m0 = device.model_time_s
            try:
                if self.fault_hook is not None:
                    self.fault_hook(request, record.attempts, config)
                result = MaxCliqueSolver(
                    request.graph,
                    config,
                    device,
                    tracer=self.tracer,
                    checkpoint=checkpoint,
                    checkpoint_sink=sink if config.resumable else None,
                ).solve()
            except TransientDeviceError as exc:
                record.model_time_s += device.model_time_s - m0
                record.error = f"{type(exc).__name__}: {exc}"
                kind = (
                    "flaky_alloc"
                    if isinstance(exc, FlakyAllocError)
                    else "transient_kernel"
                )
                self.tracer.counter(f"service.faults.{kind}")
                self.tracer.counter(f"device.{dev_index}.faults.{kind}")
                self.pool.note_fault(dev_index, exc)
                if record.transient_retries >= self.degradation.max_transient_retries:
                    log.debug(
                        "job %s: transient-retry budget exhausted", request.job_id
                    )
                    return
                record.transient_retries += 1
                self.tracer.counter("service.retries.transient")
                device.pool.reset_peak()
                checkpoint = latest[0]
                if checkpoint is not None:
                    self.tracer.counter("service.checkpoint.resumes")
                log.debug(
                    "job %s attempt %d: %s; retrying same config%s",
                    request.job_id,
                    record.attempts,
                    type(exc).__name__,
                    " from checkpoint" if checkpoint is not None else "",
                )
                continue
            except DeviceLostError as exc:
                record.model_time_s += device.model_time_s - m0
                record.error = f"{type(exc).__name__}: {exc}"
                self.tracer.counter("service.faults.device_lost")
                self.tracer.counter(f"device.{dev_index}.faults.device_lost")
                self.pool.note_fault(dev_index, exc)
                if record.migrations >= self.degradation.max_migrations:
                    log.debug(
                        "job %s: migration budget exhausted", request.job_id
                    )
                    return
                checkpoint = exc.checkpoint if exc.checkpoint is not None else latest[0]
                lost_index = dev_index
                dev_index, device = self.pool.least_loaded()
                self.pool.note_dispatch(dev_index)
                record.migrations += 1
                record.device = dev_index
                self.tracer.counter("service.migrations")
                with self.tracer.span(
                    "service.migrations",
                    category="service",
                    model_clock=lambda: device.model_time_s,
                    job_id=request.job_id,
                    from_device=lost_index,
                    to_device=dev_index,
                    resumed_from_checkpoint=checkpoint is not None,
                ):
                    pass
                if checkpoint is not None:
                    self.tracer.counter("service.checkpoint.resumes")
                log.debug(
                    "job %s: device %d lost, migrating to device %d%s",
                    request.job_id,
                    lost_index,
                    dev_index,
                    " (resuming from checkpoint)" if checkpoint is not None else "",
                )
                continue
            except CheckpointError as exc:
                # a shipped checkpoint failed identity validation: the
                # job fails cleanly so the shipper can retry without one
                record.model_time_s += device.model_time_s - m0
                record.error = f"{type(exc).__name__}: {exc}"
                self.tracer.counter("service.checkpoint.rejected")
                self.pool.note_success(dev_index)
                return
            except (DeviceOOMError, SolveTimeoutError) as exc:
                record.model_time_s += device.model_time_s - m0
                record.error = f"{type(exc).__name__}: {exc}"
                # the device itself functioned correctly: OOM/timeout are
                # workload outcomes, not device faults
                self.pool.note_success(dev_index)
                device.pool.reset_peak()
                log.debug(
                    "job %s attempt %d failed (%s)",
                    request.job_id, record.attempts, type(exc).__name__,
                )
                ladder_attempts += 1
                if ladder_attempts >= self.degradation.max_attempts:
                    return
                next_config = self.degradation.next_config(config, exc)
                if next_config is None:
                    return
                self.tracer.counter("service.retries")
                config = next_config
                # a checkpoint's window ranges index the *old* config's
                # ordered 2-clique list: useless under the new rung
                checkpoint = None
                latest[0] = None
                record.degraded = True
                continue
            record.model_time_s += device.model_time_s - m0
            record.status = STATUS_OK
            record.error = None
            answer = result.answer
            for attr, name in answer.fields:
                if name not in (None, "cliques"):
                    setattr(record, name, getattr(result, attr))
            record.enumerated_all = result.enumerated_all
            # degraded: asked to enumerate everything, got neither every
            # row nor an exact count of them
            record.degraded = record.degraded or (
                request.config.enumerate_all
                and not result.enumerated_all
                and not answer.total_exact
            )
            record.stage_model_times = dict(result.stage_times)
            record.result = result
            self.pool.note_success(dev_index)
            return

    @staticmethod
    def _merge_timeout(
        config: SolverConfig, timeout_s: Optional[float]
    ) -> SolverConfig:
        """Apply the per-job wall budget; the tighter limit wins."""
        if timeout_s is None:
            return config
        if config.time_limit_s is not None and config.time_limit_s <= timeout_s:
            return config
        return replace(config, time_limit_s=timeout_s)

    def _from_cache(
        self, request: SolveRequest, cached: JobRecord, w0: float
    ) -> JobRecord:
        """A fresh record for a cache hit: zero device time charged.
        The answer and its ``stage_model_times`` (provenance) are the
        cached record's; every per-run field starts afresh."""
        return replace(
            cached,
            job_id=request.job_id,
            label=request.label,
            cache_hit=True,
            attempts=0,
            admission="cache",
            admission_reason="served from the result cache",
            transient_retries=0,
            migrations=0,
            device=None,
            model_time_s=0.0,
            wall_time_s=time.perf_counter() - w0,
            stage_model_times=dict(cached.stage_model_times),
            error=None,
        )


@dataclass
class _JobState:
    """Per-ticket launch state threaded from placement to execution."""

    request: SolveRequest
    w0: float  #: host clock at prologue (wall-time base)
    decision: Any  #: the admission decision (accept/degrade)
    config: SolverConfig  #: decided config with the wall budget merged
    dev_index: int = -1
    device: Any = None
    record: JobRecord = field(default=None)  # type: ignore[assignment]


class _BatchPlan:
    """One scheduled batch, as the executor hooks the engine defines.

    Implements :class:`repro.engine.executor.BatchPlan` over a
    :class:`SolveService` and an already-ordered request list. The
    split mirrors the historical serial loop exactly:

    * :meth:`prologue` -- cache probe and admission decision; cache
      hits and rejects finish here;
    * :meth:`place` -- least-loaded (or executor-chosen) device,
      dispatch accounting, the skeleton :class:`JobRecord`;
    * :meth:`run` -- the ``service.job`` span around the attempt
      ladder (the only hook executors may call off-thread);
    * :meth:`commit` -- outcome counters, the result-cache insert,
      the service record log.

    ``sequential_required`` is True whenever overlapped execution
    could be observed: a fault source is present (injector plan or
    test hook -- health transitions and checkpoint resumes are
    ordered by the pool's dispatch clock), a recording tracer is
    attached (span/kernel streams would interleave), or this batch
    could evict from the result cache (eviction makes probes of
    distinct keys order-sensitive).
    """

    def __init__(self, service: SolveService, ordered: List[SolveRequest]) -> None:
        self.service = service
        self.ordered = ordered
        self.n = len(ordered)
        self.num_devices = len(service.pool)
        self._keys: List[Tuple[str, str]] = [
            request_key(r.graph, r.config) for r in ordered
        ]
        self._states: List[Optional[_JobState]] = [None] * self.n
        cache = service.cache
        new_keys = {k for k in self._keys if k not in cache}
        evict_possible = (
            cache.capacity > 0 and len(cache) + len(new_keys) > cache.capacity
        )
        self.sequential_required = (
            service.fault_hook is not None
            or service.pool.has_fault_injectors
            or service.tracer.enabled
            or evict_possible
        )

    def key(self, ticket: int) -> Tuple[str, str]:
        return self._keys[ticket]

    def device_clock(self, device_index: int) -> float:
        return self.service.pool.devices[device_index].model_time_s

    def prologue(self, ticket: int) -> Optional[JobRecord]:
        svc = self.service
        request = self.ordered[ticket]
        w0 = time.perf_counter()
        cached = svc.cache.get(self._keys[ticket])
        if cached is not None:
            return svc._from_cache(request, cached, w0)

        decision = svc.admission.decide(
            request.graph, request.config, svc.pool.spec.memory_bytes
        )
        svc.tracer.counter(f"service.admit.{decision.decision}")
        if decision.decision == REJECT:
            svc.tracer.counter("service.jobs.rejected")
            log.debug("job %s rejected: %s", request.job_id, decision.reason)
            return JobRecord(
                job_id=request.job_id,
                status=STATUS_REJECTED,
                label=request.label,
                problem=request.config.problem,
                k=request.config.k,
                admission=decision.decision,
                admission_reason=decision.reason,
                wall_time_s=time.perf_counter() - w0,
                error=decision.reason,
            )

        timeout_s = (
            request.timeout_s
            if request.timeout_s is not None
            else svc.default_timeout_s
        )
        deadline = getattr(request, "deadline", None)
        if deadline is not None and deadline.at is not None:
            # the caller's end-to-end budget, shrunk by queueing and
            # transit: fold what remains into the wall-time limit (the
            # tighter wins; clamped positive so config validation holds
            # in the already-expired race the bridge normally catches)
            remaining = max(deadline.at - time.perf_counter(), 1e-6)
            timeout_s = (
                remaining if timeout_s is None else min(timeout_s, remaining)
            )
        config = svc._merge_timeout(decision.config, timeout_s)
        self._states[ticket] = _JobState(
            request=request, w0=w0, decision=decision, config=config
        )
        return None

    def place(self, ticket: int, device_index: Optional[int]) -> _JobState:
        svc = self.service
        st = self._states[ticket]
        assert st is not None
        if device_index is None:
            st.dev_index, st.device = svc.pool.least_loaded()
        else:
            # the executor proved this is the device serial placement
            # would pick; all devices are healthy in that regime
            st.dev_index = device_index
            st.device = svc.pool.devices[device_index]
        svc.pool.note_dispatch(st.dev_index)
        st.record = JobRecord(
            job_id=st.request.job_id,
            status=STATUS_FAILED,
            label=st.request.label,
            problem=st.request.config.problem,
            k=st.request.config.k,
            admission=st.decision.decision,
            admission_reason=st.decision.reason,
            device=st.dev_index,
        )
        return st

    def run(self, ticket: int, state: _JobState) -> JobRecord:
        svc = self.service
        record = state.record
        with svc.tracer.span(
            "service.job",
            category="service",
            model_clock=lambda: svc.pool.devices[
                record.device if record.device is not None else state.dev_index
            ].model_time_s,
            job_id=state.request.job_id,
            device=state.dev_index,
            admission=state.decision.decision,
        ):
            svc._attempt_ladder(
                state.request, state.config, state.device, state.dev_index, record
            )
        record.wall_time_s = time.perf_counter() - state.w0
        return record

    def commit(self, ticket: int, record: JobRecord) -> None:
        svc = self.service
        if self._states[ticket] is not None:  # executed (not cache/reject)
            if record.status == STATUS_OK:
                svc.tracer.counter("service.jobs.ok")
                # degraded records are NOT cached: they carry the executed
                # (degraded) answer but would be keyed under the *requested*
                # config, poisoning identical future requests that might
                # well succeed un-degraded (e.g. after cache churn frees
                # memory or the ladder's first rung was a fluke)
                if not record.degraded:
                    svc.cache.put(self._keys[ticket], record)
            else:
                svc.tracer.counter("service.jobs.failed")
        with svc._stats_lock:
            svc.records.append(record)
        log.debug(
            "job %s: %s%s omega=%s attempts=%d model=%.3f ms",
            record.job_id,
            record.status,
            " (cache)" if record.cache_hit else "",
            record.clique_number,
            record.attempts,
            record.model_time_s * 1e3,
        )
