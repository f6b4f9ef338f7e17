"""Per-layer timing for the traced run.

The traced run wraps public functions of each layer where their callers
look them up: methods on their classes, module-level functions in the
namespace of the module that calls them. A wrapper only times the call
and counts its arguments. It records into a table owned by the calling
thread, so no lock is taken on the hot path, and the router's calls to
a protocol function stay apart from a backend's: the tables are summed
by the role of the thread that made the call (see :func:`role_of`).

No recording ``repro.trace`` tracer is attached. A recording tracer
makes the threaded executor fall back to its ordered path, which would
change what is measured.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

__all__ = ["NamedPoolPolicy", "Recorder", "role_of"]

_clock = time.perf_counter


class NamedPoolPolicy(asyncio.DefaultEventLoopPolicy):
    """Give each event loop a default executor named after its thread.

    The server and the router decode graph payloads on their loop's
    default executor. asyncio names those threads ``asyncio_N`` for
    every loop alike; this policy names them ``<loop thread>-pool_N``
    (``solve-server-pool_0``, ``solve-router-pool_1``) so a call can be
    attributed to the server or the router. The pool is otherwise the
    one asyncio would create: same class, same default size. The
    benchmark installs it in the untraced run too, so both runs execute
    the same code.
    """

    def new_event_loop(self):
        loop = super().new_event_loop()
        name = threading.current_thread().name
        loop.set_default_executor(ThreadPoolExecutor(thread_name_prefix=f"{name}-pool"))
        return loop


def role_of(thread_name: str) -> str:
    """The part of the system a thread belongs to, from its name.

    ``server`` and ``router`` are the event-loop threads of
    ``ServerThread``/``RouterThread`` and their executor pools,
    ``bridge`` is the server's bridge worker, ``client`` the
    benchmark's main thread; everything else (the service's executor
    workers) is ``other``.
    """
    if thread_name.startswith("solve-server"):
        return "server"
    if thread_name.startswith("solve-router"):
        return "router"
    if thread_name == "solve-bridge":
        return "bridge"
    if thread_name == "MainThread":
        return "client"
    return "other"


class _Table:
    """One thread's accumulated seconds and counts, by key."""

    __slots__ = ("role", "seconds", "counts")

    def __init__(self, role: str) -> None:
        self.role = role
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)


class Recorder:
    """Installs the layer wrappers and sums what they record.

    Usage: :meth:`install` right before the measured window,
    :meth:`uninstall` right after it, then read :meth:`seconds` and
    :meth:`count`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[_Table] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        #: ``id(request)`` -> clock at ``SolveBridge.submit``
        self._bridge_submitted: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = _Table(role_of(threading.current_thread().name))
            with self._lock:
                self._tables.append(table)
            self._local.table = table
        return table

    def add(self, key: str, seconds: float = 0.0, count: int = 1) -> None:
        table = self._table()
        table.seconds[key] += seconds
        table.counts[key] += count

    def seconds(self, key: str, role: Optional[str] = None) -> float:
        with self._lock:
            tables = list(self._tables)
        return sum(t.seconds.get(key, 0.0) for t in tables if role in (None, t.role))

    def count(self, key: str, role: Optional[str] = None) -> int:
        with self._lock:
            tables = list(self._tables)
        return sum(t.counts.get(key, 0) for t in tables if role in (None, t.role))

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, owner, attr: str, key: str, counter=None) -> None:
        """Wrap ``owner.attr`` to add its wall time (and ``counter``) under ``key``."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(key, _clock() - t0)
                    if counter is not None:
                        counter(args, kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer's public functions; :meth:`uninstall` restores them."""
        from repro.cluster.backend import BackendLink
        from repro.cluster.ring import HashRing
        from repro.core import concurrent, windowed
        from repro.core.solver import MaxCliqueSolver
        from repro.engine.problems import ProblemKind
        from repro.gpusim import primitives
        from repro.gpusim.device import Device
        from repro.graph import build, io
        from repro.graph.csr import CSRGraph
        from repro.pipeline import stages
        from repro.server import protocol
        from repro.server.bridge import SolveBridge
        from repro.service.cache import ResultCache
        from repro.service.service import SolveService
        from repro.stream import incremental, mutable
        from repro.stream.mutable import MutableGraph

        # graph: edge lookups, split by the engine pass that made them
        def lookups(args, kwargs):
            passes = getattr(self._local, "passes", ())
            where = passes[-1] if passes else "other"
            self.add(f"graph.batch_has_edge.queries.{where}", 0.0, len(args[1]))

        self._timed(CSRGraph, "batch_has_edge", "graph.batch_has_edge", lookups)
        self._timed(CSRGraph, "fingerprint", "graph.fingerprint")
        for module in (build, io, mutable):
            self._timed(module, "from_edge_array", "graph.from_edge_array")

        # gpusim
        self._timed(Device, "launch", "gpusim.launch")
        for name in primitives.__all__:
            self._timed(primitives, name, "gpusim.primitives")

        # engine: the passes run through the problem kind's hooks
        self._pass(ProblemKind, "count", "engine.count_pass")
        self._pass(ProblemKind, "output", "engine.output_pass")
        for module in (windowed, concurrent):
            self._timed(module, "window_sweep", "engine.window_sweep")

        # pipeline stages and the solver
        for cls in (
            stages.CSRResidencyStage,
            stages.PreprocessStage,
            stages.HeuristicStage,
            stages.TwoCliqueSetupStage,
            stages.FullSearchStage,
            stages.WindowedSearchStage,
        ):
            self._timed(cls, "run", f"pipeline.{cls.name}")
        self._timed(MaxCliqueSolver, "solve", "core.solve")

        # service
        self._timed(SolveService, "run", "service.run")
        self._timed(ResultCache, "get", "service.cache.get")
        self._bridge_hooks(SolveBridge, SolveService)

        # server and client wire codec
        self._timed(protocol, "decode_frame", "wire.decode_frame")
        self._timed(protocol, "encode_frame", "wire.encode_frame")
        self._timed(protocol, "decode_graph", "wire.decode_graph")
        self._timed(protocol, "encode_graph", "wire.encode_graph")

        # cluster: only solve frames count as backend requests (the
        # router's health probes use the same link)
        def backend_request(fn):
            @functools.wraps(fn)
            async def wrapper(link, frame, *args, **kwargs):
                t0 = _clock()
                try:
                    return await fn(link, frame, *args, **kwargs)
                finally:
                    if frame.get("type") == "solve":
                        self.add("cluster.backend_request", _clock() - t0)

            return wrapper

        self._patch(BackendLink, "request", backend_request)
        self._timed(HashRing, "preference", "cluster.ring.preference")

        # stream
        self._timed(MutableGraph, "materialize", "stream.materialize")
        self._timed(incremental, "induced_subgraph", "stream.induced_subgraph")

    def _pass(self, owner, attr: str, key: str) -> None:
        """Time an engine pass and mark it current for its edge lookups."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                passes = getattr(self._local, "passes", None)
                if passes is None:
                    passes = self._local.passes = []
                passes.append(key)
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(key, _clock() - t0)
                    passes.pop()

            return wrapper

        self._patch(owner, attr, make)

    def _bridge_hooks(self, bridge_cls, service_cls) -> None:
        """Bridge queue wait: ``SolveBridge.submit`` to ``SolveService.submit``."""
        submitted = self._bridge_submitted

        def bridge_submit(fn):
            @functools.wraps(fn)
            def wrapper(bridge, request, *args, **kwargs):
                submitted[id(request)] = _clock()
                return fn(bridge, request, *args, **kwargs)

            return wrapper

        def service_submit(fn):
            @functools.wraps(fn)
            def wrapper(service, request, *args, **kwargs):
                self.add("service.submit")
                t0 = submitted.pop(id(request), None)
                if t0 is not None:
                    self.add("server.bridge.wait", _clock() - t0)
                return fn(service, request, *args, **kwargs)

            return wrapper

        self._patch(bridge_cls, "submit", bridge_submit)
        self._patch(service_cls, "submit", service_submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def per_layer(rec: Recorder, win) -> Dict[str, float]:
    """Every per-layer metric of one traced window.

    Times are host ms per operation of the workload (job, request or
    mutation), so each reads directly against its end-to-end metric;
    counts the program reports are per operation too. The ``gpusim``
    launch count, model time and memory peak are exact simulated
    statistics over the workload's fixed unit of work.
    """
    ops = max(win.ops, 1)

    def ms(key: str, role: Optional[str] = None) -> float:
        return rec.seconds(key, role) * 1e3 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    queries = {
        where: rec.count(f"graph.batch_has_edge.queries.{where}")
        for where in ("engine.count_pass", "engine.output_pass", "other")
    }
    routed = rec.count("cluster.backend_request") > 0
    out = {
        "graph.batch_has_edge.ms": ms("graph.batch_has_edge"),
        "graph.batch_has_edge.queries": sum(queries.values()) / ops,
        "graph.from_edge_array.ms": ms("graph.from_edge_array"),
        "graph.fingerprint.ms": ms("graph.fingerprint"),
        "gpusim.launch.ms": ms("gpusim.launch"),
        "gpusim.primitives.ms": ms("gpusim.primitives"),
        "gpusim.launch.calls": win.exact["launches"],
        "gpusim.model_time_s": win.exact["model_time_s"],
        "gpusim.mem_peak_bytes": win.exact["mem_peak_bytes"],
        "engine.count_pass.ms": ms("engine.count_pass"),
        "engine.output_pass.ms": ms("engine.output_pass"),
        "engine.levels": ratio(rec.count("engine.count_pass"), rec.count("core.solve")),
        "engine.window_sweep.ms": ms("engine.window_sweep"),
        "engine.output_lookup_ratio": ratio(
            queries["engine.output_pass"], queries["engine.count_pass"]
        ),
        "core.solve.ms": ms("core.solve"),
        "service.run.ms": ms("service.run"),
        "service.executor.overlap": ratio(
            rec.seconds("core.solve"), rec.seconds("service.run")
        ),
        "service.attempts_per_job": ratio(win.attempts, win.jobs_executed),
        "service.cache.get.ms": ms("service.cache.get"),
        "server.decode_frame.ms": ms("wire.decode_frame", "server"),
        "server.encode_frame.ms": ms("wire.encode_frame", "server"),
        "server.bridge.wait.ms": ms("server.bridge.wait"),
        "server.bridge.batch_size": ratio(
            rec.count("service.submit", "bridge"), rec.count("service.run", "bridge")
        ),
        "client.encode_graph.ms": ms("wire.encode_graph", "client"),
        "server.decode_graph.ms": ms("wire.decode_graph", "server"),
        "cluster.backend_request.ms": ms("cluster.backend_request"),
        "cluster.hop.ms": (
            (win.rtt_s - rec.seconds("cluster.backend_request")) * 1e3 / ops
            if routed
            else 0.0
        ),
        "cluster.ring.preference.ms": ms("cluster.ring.preference"),
        "cluster.decode_graph.ms": ms("wire.decode_graph", "router"),
        "stream.materialize.ms": ms("stream.materialize"),
        "stream.induced_subgraph.ms": ms("stream.induced_subgraph"),
        "stream.solve_batch.ms": ms("stream.solve_batch"),
    }
    for stage in ("csr_upload", "preprocess", "heuristic", "setup", "bfs", "windowed"):
        out[f"pipeline.{stage}.ms"] = ms(f"pipeline.{stage}")
    for name, key in (
        ("service.admission.full", "admission.full"),
        ("service.admission.windowed", "admission.windowed"),
        ("service.admission.reject", "admission.reject"),
        ("service.cache.hits", "cache.hits"),
        ("service.cache.misses", "cache.misses"),
        ("server.rejects", "server.rejects"),
        ("cluster.resubmits", "cluster.resubmits"),
        ("stream.path.incremental", "path.incremental"),
        ("stream.path.full", "path.full"),
        ("stream.localized_solves", "localized_solves"),
        ("stream.skipped_edges", "skipped_edges"),
    ):
        out[name] = win.counts.get(key, 0.0)
    return out
