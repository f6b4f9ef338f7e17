"""The benchmark's workloads: set-up, measured window and answer checks.

Each workload repeats one kind of operation, so a throughput, a median
and a p90 describe it:

* ``batch-fresh.dense`` / ``batch-fresh.sparse``: a fixed class batch,
  each on a fresh ``SolveService``, so nothing is cached. Throughput
  counts jobs; latency is the turnaround of one ``run()``.
* ``wire-hot.router-inline``: one ``solve`` round trip on a closed-loop
  connection, the graph shipped inline through a router in front of two
  backends, every answer a cache hit; its threads share one core.
* ``stream-social.inproc``: one ``GraphSession.apply`` of a seeded
  social-growth mutation script.

Every service has 2 simulated devices, the threaded executor and 2
workers. Servers and routers run in-process (``ServerThread`` /
``RouterThread``): the host has two cores, so separate server processes
would measure the OS scheduler rather than the program.
"""

from __future__ import annotations

import json
import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from graphs import DENSE, SPARSE, STREAM, WIRE

from repro.cluster import RouterConfig, RouterThread
from repro.cluster.ring import HashRing
from repro.core.config import SolverConfig, config_fingerprint
from repro.core.verify import is_clique
from repro.datasets import load
from repro.server import ServerConfig, ServerThread, SolveClient
from repro.service import SolveService
from repro.stream import (
    GraphSession,
    IncrementalSolver,
    MutableGraph,
    local_solve_batch,
)
from repro.trace import CounterTracer

__all__ = ["WORKLOADS", "Window", "percentile"]

_clock = time.perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "expected.json"), encoding="utf-8") as _fh:
    #: ω from PMC and the k-clique count from the reference counter
    #: (``record_expected.py``)
    EXPECTED = json.load(_fh)

#: requests each server answers before the window: its request-id dedup
#: table is then full, as on a long-running server (once full, every
#: solve pays an O(capacity) prune)
DEDUP_FILL = ServerConfig().dedup_capacity + 64

#: backend ports are searched upwards from here for a pair on whose
#: consistent-hash ring the four graphs split two and two; ephemeral
#: ports would place them differently in every run, and whether one
#: backend idles moves the router's latency by a third
BACKEND_PORT_BASE = 24100

#: edges a social-growth batch inserts; every fourth batch instead
#: deletes two earlier inserts
EDGES_PER_BATCH = 3
DELETE_EVERY = 4


def _bindable(port: int) -> bool:
    """Whether a server could bind ``port`` on the loopback now (with
    ``SO_REUSEADDR``, as asyncio's listeners do)."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@contextmanager
def _traced(recorder):
    """Layer wrappers installed for exactly the measured window."""
    if recorder is None:
        yield
        return
    recorder.install()
    try:
        yield
    finally:
        recorder.uninstall()


def _service() -> SolveService:
    return SolveService(
        devices=2, tracer=CounterTracer(), executor="threaded", workers=2
    )


def _fresh_graph(name: str):
    """Generate a suite graph and fill its lazy CSR caches.

    Callers clear the dataset memo first (``load.cache_clear()``), so
    every set-up pays for generation, as a fresh process would.
    """
    graph = load(name)
    graph.edge_keys, graph.lookup_cost, graph.fingerprint()
    return graph


def _model_time(seconds: float) -> float:
    """Model time to 12 significant digits.

    A job's model time is the difference of its device's clock before
    and after it, so its last bits depend on what that device ran
    earlier; 12 digits are exact for every placement.
    """
    return float(f"{seconds:.12g}")


def _simulated(services, records) -> Dict[str, float]:
    """Simulated statistics of the jobs behind ``records``.

    Launches are summed over the pools' devices; model time is summed
    and the memory peak maximised over the executed jobs, so neither
    depends on which device or backend ran a job (backend ports, and
    with them ring placement, differ per run).
    """
    executed = [r for r in records if r.result is not None and not r.cache_hit]
    devices = [d for s in services for d in s.pool.devices]
    return {
        "launches": sum(d.stats().kernel_launches for d in devices),
        "model_time_s": _model_time(sum(r.model_time_s for r in executed)),
        "mem_peak_bytes": max(
            (r.result.peak_memory_bytes for r in executed), default=0
        ),
    }


ADMISSIONS = ("admission.full", "admission.windowed", "admission.reject")


def _admissions(services) -> Dict[str, int]:
    """``service.admit.*`` counters summed over ``services``."""
    out = dict.fromkeys(ADMISSIONS, 0)
    for svc in services:
        for name, value in svc.tracer.counters_snapshot().items():
            if name.startswith("service.admit."):
                key = "admission." + name[len("service.admit."):]
                out[key] = out.get(key, 0) + value
    return out


def _rejects(frame: Dict) -> int:
    """Sum of the ``rejects.*`` counters of one ``stats`` frame section."""
    return sum(
        v for k, v in frame.items() if k.startswith("rejects.") and isinstance(v, int)
    )


def _diff(after: Dict, before: Dict) -> Dict:
    return {k: after[k] - before.get(k, 0) for k in after}


@dataclass
class Window:
    """What one measured window produced."""

    latencies_s: List[float] = field(default_factory=list)
    #: operations completed and the wall time they took (batches: the
    #: summed ``run()`` walls)
    ops: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: simulated statistics over a fixed unit of work, ``exact_unit``
    exact: Dict[str, float] = field(default_factory=dict)
    exact_unit: str = ""
    #: per-operation counts the program reports itself (path mix)
    counts: Dict[str, float] = field(default_factory=dict)
    #: headline numbers under their per-path report names
    #: (``dense_jobs_per_s``, ``direct_named_p50_ms``, ...)
    named: Dict[str, float] = field(default_factory=dict)
    #: summed client round trips (the router's hop cost is read off it)
    rtt_s: float = 0.0
    jobs_executed: int = 0
    attempts: int = 0


class Workload:
    """``setup`` (timed as set-up), ``measure``, ``check``, ``close``."""

    #: operations a window completes at least, however long that takes
    min_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def measure(self, seconds: float, recorder=None) -> Window:  # pragma: no cover
        raise NotImplementedError

    def check(self, win: Window) -> None:
        """Append every failed answer check to ``win.problems``."""

    def close(self) -> None:
        """Stop every thread, server and router the workload started."""


# ----------------------------------------------------------------------
# batch-fresh
# ----------------------------------------------------------------------
class BatchFresh(Workload):
    """Closed loop of one fixed class batch, each on a fresh service."""

    min_iterations = 3

    def __init__(self, seed: int, jobs, label: str) -> None:
        super().__init__(seed)
        self.jobs = jobs
        self.label = label

    def setup(self) -> None:
        load.cache_clear()
        self.graphs = {name: _fresh_graph(name) for name, _ in self.jobs}
        self._iteration()  # warm-up round

    def _iteration(self):
        svc = _service()
        for name, cfg in self.jobs:
            svc.submit_graph(self.graphs[name], SolverConfig(**cfg), label=name)
        t0 = _clock()
        records = svc.run()
        return svc, records, _clock() - t0

    def measure(self, seconds: float, recorder=None) -> Window:
        runs = []
        with _traced(recorder):
            start = _clock()
            while _clock() - start < seconds or len(runs) < self.min_iterations:
                runs.append(self._iteration())
        self.runs = runs
        win = Window()
        per_iteration = []
        for svc, records, wall in runs:
            win.latencies_s.append(wall)
            win.wall_s += wall
            win.ops += len(records)
            win.failed += sum(1 for r in records if not r.ok)
            win.jobs_executed += sum(1 for r in records if not r.cache_hit)
            win.attempts += sum(r.attempts for r in records)
            per_iteration.append({**_simulated([svc], records), **_admissions([svc])})
        win.attempted = win.ops
        if any(it != per_iteration[0] for it in per_iteration):
            win.problems.append(
                f"{self.label}: simulated statistics differ between iterations"
            )
        win.exact = per_iteration[0]
        win.exact_unit = "one class batch"
        services = [svc for svc, _, _ in runs]
        admitted = _admissions(services)
        win.counts = {key: admitted[key] / win.ops for key in admitted}
        win.counts["cache.hits"] = sum(s.cache.hits for s in services) / win.ops
        win.counts["cache.misses"] = sum(s.cache.misses for s in services) / win.ops
        win.named = {f"{self.label}_jobs_per_s": win.ops / win.wall_s}
        return win

    def check(self, win: Window) -> None:
        """Every job ok (a rejected job is not), its answer the oracle's."""
        omega = EXPECTED["omega"]
        for _, records, _ in self.runs:
            for (name, cfg), record in zip(self.jobs, records):
                where = f"{self.label} {name} {cfg or ''}"
                if not record.ok:
                    win.problems.append(
                        f"{where}: status {record.status} ({record.error})"
                    )
                    continue
                if cfg.get("problem") == "k-clique-count":
                    want = EXPECTED["k_clique_count"][f"{name}/k={cfg['k']}"]
                    if record.k_clique_count != want:
                        win.problems.append(
                            f"{where}: {record.k_clique_count} k-cliques, want {want}"
                        )
                    continue
                if record.clique_number != omega[name]:
                    win.problems.append(
                        f"{where}: omega {record.clique_number}, want {omega[name]}"
                    )
                for row in record.result.cliques:
                    if len(row) != omega[name] or not is_clique(self.graphs[name], row):
                        win.problems.append(f"{where}: {list(row)} is no max clique")
                        break
        self.runs = []


# ----------------------------------------------------------------------
# wire-hot
# ----------------------------------------------------------------------
class WireHot(Workload):
    """One closed-loop connection re-solving cached graphs, shipped
    inline through a router in front of two backends.

    Client, router and backends share one interpreter lock, so a request
    is a chain of hand-offs between their threads, one of them busy at a
    time. The workload pins its threads to one core, so each hand-off is
    a switch on that core rather than a wake-up on the other one
    (pinned, the chain ran 15% faster). Two connections were tried
    first: only gzip runs outside the lock, so the second added little
    parallel work, and on a 2-vCPU shared VM ten runs of it spread by
    16-29% of their median (interquartile range), against 4-11% here.
    """

    label = "router_inline"
    min_ops = 200

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.servers: List[ServerThread] = []
        self.services: List[SolveService] = []
        self.router: Optional[RouterThread] = None
        self.cpus: Optional[Set[int]] = None

    def _start_backends(self) -> None:
        """Two backends on the first free port pair that splits the graphs."""
        config = config_fingerprint(SolverConfig())
        keys = [f"{g.fingerprint()}/{config}" for g in self.graphs.values()]
        for port in range(BACKEND_PORT_BASE, BACKEND_PORT_BASE + 1000, 2):
            nodes = [f"127.0.0.1:{port}", f"127.0.0.1:{port + 1}"]
            ring = HashRing(nodes)
            if [ring.node_for(k) for k in keys].count(nodes[0]) != len(keys) // 2:
                continue
            if not (_bindable(port) and _bindable(port + 1)):
                continue
            for p in (port, port + 1):
                svc = _service()
                self.servers.append(ServerThread(svc, ServerConfig(port=p)).start())
                self.services.append(svc)
            return
        raise RuntimeError("no free backend port pair splits the graphs evenly")

    def setup(self) -> None:
        # before any server thread starts: new threads inherit the mask
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        load.cache_clear()
        self.graphs = {name: _fresh_graph(name) for name in WIRE}
        self._start_backends()
        backends = [("127.0.0.1", s.port) for s in self.servers]
        self.router = RouterThread(RouterConfig(backends=backends, port=0)).start()
        self.port = self.router.port
        with SolveClient(port=self.port) as client:  # router readiness
            while client.stats()["router"]["backends_available"] < len(backends):
                time.sleep(0.01)
        with SolveClient(port=self.port, retries=0) as client:
            for name in WIRE:  # first-touch cache fill
                client.solve(self.graphs[name], label=name)
        filled = [r for svc in self.services for r in svc.records]
        self.fill = {**_simulated(self.services, filled), **_admissions(self.services)}
        for server in self.servers:
            self._loop(server.port, lambda n: n >= DEDUP_FILL, named=True)
        self._loop(self.port, lambda n: n >= len(WIRE))  # warm-up round

    def _loop(self, port, done, named: bool = False):
        """Send solves on one connection, each after the last reply,
        until ``done(n)`` holds for the ``n`` sent so far.

        The order is seeded shuffles of the catalogue, back to back.
        ``named`` sends dataset names instead of inline graphs (the
        cheap requests that fill a server's dedup table). Returns
        ``(latencies, replies, errors)``.
        """
        order = [WIRE[i] for _ in range(64) for i in self.rng.permutation(len(WIRE))]
        lat, replies, errors = [], [], 0
        with SolveClient(port=port, retries=0) as client:
            n = 0
            while not done(n):
                name = order[n % len(order)]
                t0 = _clock()
                try:
                    reply = client.solve(name if named else self.graphs[name], label=name)
                except Exception as exc:  # a failed request, reported
                    errors += 1
                    replies.append((name, exc))
                else:
                    lat.append(_clock() - t0)
                    replies.append((name, reply))
                n += 1
        return lat, replies, errors

    def _counters(self) -> Dict[str, int]:
        """Cache, reject and resubmit counters of the router and backends."""
        frames = []
        with SolveClient(port=self.port) as client:
            frames.append(client.stats()["router"])
        for server in self.servers:
            with SolveClient(port=server.port) as client:
                frames.append(client.stats()["server"])
        return {
            "rejects": sum(_rejects(f) for f in frames),
            "resubmits": sum(f.get("resubmits.total", 0) for f in frames),
            "hits": sum(s.cache.hits for s in self.services),
            "misses": sum(s.cache.misses for s in self.services),
        }

    def measure(self, seconds: float, recorder=None) -> Window:
        before = self._counters()
        records0 = [len(s.records) for s in self.services]
        rounds = len(WIRE)
        with _traced(recorder):
            start = _clock()
            deadline = start + seconds
            # whole catalogue rounds only: every graph is sent equally
            # often, so the mix under the percentiles never shifts
            lat, self.replies, errors = self._loop(
                self.port,
                lambda n: n % rounds == 0 and n >= self.min_ops and _clock() >= deadline,
            )
            wall = _clock() - start
        delta = _diff(self._counters(), before)
        win = Window(wall_s=wall, latencies_s=lat, failed=errors)
        win.ops = len(win.latencies_s)
        win.attempted = len(self.replies)
        win.failed += delta["rejects"] + delta["resubmits"]
        win.rtt_s = sum(win.latencies_s)
        if delta["misses"]:
            win.problems.append(f"{self.label}: {delta['misses']} cache miss(es)")
        records = [r for s, n in zip(self.services, records0) for r in s.records[n:]]
        win.jobs_executed = sum(1 for r in records if not r.cache_hit)
        win.attempts = sum(r.attempts for r in records)
        win.exact = dict(self.fill)
        win.exact_unit = "first-touch cache fill"
        win.counts = {
            "cache.hits": delta["hits"] / win.attempted,
            "cache.misses": delta["misses"] / win.attempted,
            "server.rejects": delta["rejects"] / win.attempted,
            "cluster.resubmits": delta["resubmits"] / win.attempted,
        }
        win.named = {
            f"{self.label}_p{q}_ms": percentile(win.latencies_s, q) * 1e3
            for q in (50, 90, 99)
        }
        return win

    def check(self, win: Window) -> None:
        """Every answer equals the in-process answer, whose ω is PMC's."""
        reference = {}
        svc = _service()
        for name in WIRE:
            record = svc.solve(self.graphs[name], label=name)
            rows = sorted(sorted(int(v) for v in row) for row in record.result.cliques)
            reference[name] = (record.clique_number, record.num_maximum_cliques, rows)
            if record.clique_number != EXPECTED["omega"][name] or not all(
                is_clique(self.graphs[name], row) for row in rows
            ):
                win.problems.append(f"{self.label}: wrong in-process answer: {name}")
        for name, reply in self.replies:
            if isinstance(reply, Exception):
                win.problems.append(f"{self.label}: {name}: {reply}")
                continue
            record = reply["record"]
            answer = (
                record["clique_number"],
                record["num_maximum_cliques"],
                sorted(sorted(row) for row in reply["cliques"]),
            )
            if record["status"] != "ok":
                win.problems.append(f"{self.label}: {name}: status {record['status']}")
            elif answer != reference[name]:
                win.problems.append(f"{self.label}: {name}: not the in-process answer")
        self.replies = []

    def close(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None
        for server in self.servers:
            server.stop()
        self.servers = []
        if self.cpus is not None:
            os.sched_setaffinity(0, self.cpus)
            self.cpus = None


# ----------------------------------------------------------------------
# stream-social
# ----------------------------------------------------------------------
def social_script(graph, rng, n_batches: int):
    """Seeded mutation batches that grow the graph by triadic closure.

    An insert joins two non-adjacent neighbours of a random vertex (a
    friend of a friend), which is how social graphs grow; such edges
    land inside communities, so their common neighbourhoods can hold a
    maximum clique and the localized re-solve runs. Every fourth batch
    deletes two earlier inserts.
    """
    adj = [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]
    inserted = []
    batches = []
    for i in range(n_batches):
        if i % DELETE_EVERY == DELETE_EVERY - 1 and len(inserted) >= 2:
            picks = rng.choice(len(inserted), size=2, replace=False).tolist()
            dels = [inserted.pop(p) for p in sorted(picks, reverse=True)]
            for u, v in dels:
                adj[u].discard(v)
                adj[v].discard(u)
            batches.append(((), tuple(sorted(dels))))
            continue
        ins = []
        while len(ins) < EDGES_PER_BATCH:
            friends = sorted(adj[int(rng.integers(graph.num_vertices))])
            if len(friends) < 2:
                continue
            a, b = rng.choice(len(friends), size=2, replace=False)
            u, v = sorted((friends[a], friends[b]))
            if v in adj[u]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            inserted.append((u, v))
            ins.append((u, v))
        batches.append((tuple(ins), ()))
    return batches


class _ObservedSolves:
    """``local_solve_batch`` plus the simulated statistics of its results."""

    def __init__(self) -> None:
        self.launches = 0
        self.model_time_s = 0.0
        self.mem_peak_bytes = 0
        self.recorder = None

    def __call__(self, jobs):
        t0 = _clock()
        out = local_solve_batch(jobs)
        if self.recorder is not None:
            self.recorder.add("stream.solve_batch", _clock() - t0)
        for result in out:  # one fresh device per job
            self.launches += result.device_stats.kernel_launches
            self.model_time_s += result.model_time_s
            self.mem_peak_bytes = max(self.mem_peak_bytes, result.peak_memory_bytes)
        return out


class StreamSocial(Workload):
    """One ``GraphSession`` on ``fb-comm-30x100`` with the in-process
    ``local_solve_batch``, driven by a social-growth script."""

    label = "inproc_mutate"
    min_ops = 100
    warm_batches = 4
    #: leading window mutations whose simulated statistics must repeat
    exact_ops = 32
    #: script length; a window ends long before the script does
    script_batches = 2000
    #: epochs whose views are re-checked against a fresh bootstrap
    parity_samples = 2

    def setup(self) -> None:
        load.cache_clear()
        self.base = _fresh_graph(STREAM)
        self.script = social_script(self.base, self.rng, self.script_batches)
        self.config = SolverConfig()
        self.views: Dict[int, dict] = {}
        self.solves = _ObservedSolves()
        self.tracer = CounterTracer()
        self.session = GraphSession(
            "bench", self.base, self.config, solve_batch=self.solves, tracer=self.tracer
        )
        for ins, dels in self.script[: self.warm_batches]:
            self.session.apply(ins, dels)
        self.next = self.warm_batches

    def _snapshot(self) -> Dict[str, float]:
        return {
            "launches": self.solves.launches,
            "model_time_s": self.solves.model_time_s,
            "mem_peak_bytes": self.solves.mem_peak_bytes,
            "localized_solves": self.session.stats()["localized_solves"],
            "skipped_edges": self.tracer.counters_snapshot().get(
                "stream.skipped_edges", 0
            ),
        }

    def measure(self, seconds: float, recorder=None) -> Window:
        win = Window()
        self.solves.recorder = recorder
        self.solves.mem_peak_bytes = 0
        before = self._snapshot()
        exact_at = None
        paths = {"incremental": 0, "full": 0}
        with _traced(recorder):
            start = _clock()
            while self.next < len(self.script):
                t0 = _clock()
                view = self.session.apply(*self.script[self.next])
                win.latencies_s.append(_clock() - t0)
                self.next += 1
                self.views[view.epoch] = view.to_dict()
                paths[view.path] += 1
                if len(win.latencies_s) == self.exact_ops:
                    exact_at = self._snapshot()
                if _clock() - start >= seconds and len(win.latencies_s) >= self.min_ops:
                    break
            win.wall_s = _clock() - start
        self.solves.recorder = None
        win.ops = win.attempted = len(win.latencies_s)
        after = self._snapshot()
        delta = _diff(after, before)
        if delta["localized_solves"] == 0:
            win.problems.append(f"{self.label}: no localized re-solve ran (wrong path)")
        exact_at = exact_at or after
        exact = _diff(exact_at, before)
        win.exact = {
            "launches": exact["launches"],
            "model_time_s": _model_time(exact["model_time_s"]),
            "mem_peak_bytes": exact_at["mem_peak_bytes"],
            "localized_solves": exact["localized_solves"],
        }
        win.exact_unit = f"first {self.exact_ops} mutations"
        win.counts = {
            "path.incremental": paths["incremental"] / win.ops,
            "path.full": paths["full"] / win.ops,
            "localized_solves": delta["localized_solves"] / win.ops,
            "skipped_edges": delta["skipped_edges"] / win.ops,
        }
        win.named = {
            "inproc_mutate_p50_ms": percentile(win.latencies_s, 50) * 1e3,
            "inproc_mutate_p90_ms": percentile(win.latencies_s, 90) * 1e3,
            "path_incremental": paths["incremental"],
            "path_full": paths["full"],
            "localized_solves": delta["localized_solves"],
        }
        return win

    def _reference(self, epoch: int):
        """The epoch's graph rebuilt from the script, and its fresh answer."""
        mutable = MutableGraph(self.base)
        for ins, dels in self.script[:epoch]:
            mutable.apply(ins, dels)
        graph = mutable.materialize()
        state = IncrementalSolver(self.config, local_solve_batch).bootstrap(graph)
        return graph, state

    def check(self, win: Window) -> None:
        """Sampled epochs equal a fresh ``IncrementalSolver.bootstrap`` in
        ω, clique count, witness and graph fingerprint."""
        epochs = sorted(self.views)
        sampled = np.linspace(epochs[0], epochs[-1], self.parity_samples)
        for epoch in sorted({int(e) for e in sampled}):
            view = self.views[epoch]
            graph, state = self._reference(epoch)
            where = f"{self.label} epoch {epoch}"
            if view["omega"] != state.omega:
                win.problems.append(f"{where}: omega {view['omega']} != {state.omega}")
            if view["num_maximum_cliques"] != state.num_maximum_cliques:
                win.problems.append(f"{where}: clique count differs from a fresh solve")
            if tuple(view["witness"]) != tuple(state.witness) or not is_clique(
                graph, view["witness"]
            ):
                win.problems.append(f"{where}: witness differs from a fresh solve")
            if view["fingerprint"] != graph.fingerprint():
                win.problems.append(f"{where}: graph differs from the script's graph")


WORKLOADS = {
    "batch-fresh.dense": lambda seed: BatchFresh(seed, DENSE, "dense"),
    "batch-fresh.sparse": lambda seed: BatchFresh(seed, SPARSE, "sparse"),
    "wire-hot.router-inline": WireHot,
    "stream-social.inproc": StreamSocial,
}
