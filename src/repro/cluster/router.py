"""The cluster router: one ``repro-wire/1`` front door over N backends.

``Router`` is an asyncio TCP server that speaks the *unmodified*
``repro-wire/1`` protocol on both sides: clients connect to it exactly
as they would to a single ``repro serve`` process, and it talks to
each backend through a multiplexing :class:`~.backend.BackendLink`.
Three mechanisms, one per module in this package:

**Sharding** (:mod:`~.ring`). Every ``solve`` frame is validated and
fingerprinted (graph fingerprint + config fingerprint -- the backend
result-cache key) and placed on a consistent-hash ring, so repeated
requests land on the same backend and hit its LRU cache while the
other backends' caches stay cold.

**Health** (:mod:`~.health`). A per-backend probe loop sends periodic
``status`` frames; missed probes walk a backend through ``healthy ->
suspect -> down``, and live-traffic connection resets jump straight to
``down``. Routing skips down backends (counted as ``rebalanced``) but
the ring keeps them as members, so recovery restores cache affinity.

**Checkpoint-shipped failover**. While a solve whose config is
``resumable`` (:attr:`~repro.core.config.SolverConfig.resumable`) is in
flight, the router polls the backend's ``checkpoint`` frame and
keeps the newest completed-window checkpoint. When the backend dies
mid-solve, the request is re-submitted to the next backend in the
key's preference order *with that checkpoint attached*, so the replica
resumes from the last completed window instead of restarting --
at-most-once window execution is preserved because windows are pure
and the checkpoint only ever describes *completed* work. Other
requests simply restart cleanly; solves are pure, so a replay is
always safe.

See docs/CLUSTER.md for the full semantics, including the retry rules
per wire error code.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .. import __version__
from ..core.config import config_fingerprint
from ..errors import ProtocolError, ServerError
from ..log import get_logger
from ..server import protocol
from ..server.endpoint import Conn, EndpointThread, WireEndpoint
from .backend import BackendLink, BackendLostError
from .health import DOWN, BackendHealth
from .ring import DEFAULT_REPLICAS, HashRing

__all__ = ["RouterConfig", "Router", "RouterThread", "DEFAULT_ROUTER_PORT"]

log = get_logger("cluster.router")

#: Default TCP port of ``repro router`` (ten above the server's 7421).
DEFAULT_ROUTER_PORT = 7431

#: most ``session_lost`` tombstones kept; past it the oldest is evicted
_MAX_LOST_SESSIONS = 4096

#: what a backend request may raise short of an answer: the link died,
#: the reply timed out, or the backend refused or garbled it
_LINK_ERRORS = (BackendLostError, asyncio.TimeoutError, ServerError, ProtocolError)


@dataclass
class RouterConfig:
    """Knobs of one :class:`Router`.

    ``backends`` are ``(host, port)`` pairs; their ``host:port``
    strings are the ring node names, so placement is stable across
    router restarts for the same backend set.
    """

    backends: Sequence[Tuple[str, int]] = ()
    host: str = "127.0.0.1"
    port: int = DEFAULT_ROUTER_PORT  #: 0 picks an ephemeral port
    #: virtual nodes per backend on the consistent-hash ring
    replicas: int = DEFAULT_REPLICAS
    max_conns: int = 64
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: seconds between health probes per backend
    probe_interval_s: float = 0.5
    #: seconds a probe may take before it counts as a failure
    probe_timeout_s: float = 5.0
    #: consecutive probe failures before a backend goes ``down``
    down_threshold: int = 3
    #: seconds between checkpoint polls of in-flight resumable solves
    checkpoint_poll_s: float = 0.25
    #: upper bound on placement attempts for one solve (dead backends,
    #: draining rejects, and checkpoint rejections all consume one)
    max_attempts: int = 6
    #: seconds a fresh client connection gets to say hello
    handshake_timeout_s: float = 10.0
    #: seconds to wait for in-flight solves during a drain
    drain_timeout_s: float = 60.0
    #: seeds the resubmit-backoff jitter stream (None: seed from OS)
    jitter_seed: Optional[int] = None


@dataclass
class _InFlight:
    """One solve travelling through the router."""

    rid: str  #: router-assigned wire id used towards backends
    conn: Conn
    request_id: Optional[str]  #: the client's id, echoed in the reply
    frame: Dict[str, Any]  #: original solve frame, sans id/checkpoint
    key: str  #: ring key: "<graph_fp>/<config_fp>"
    resumable: bool
    #: absolute perf_counter() instant by which the client still wants
    #: the answer; each placement ships the *remaining* budget
    deadline_at: Optional[float] = None
    backend: Optional[str] = None  #: name currently solving it
    checkpoint: Optional[Dict[str, Any]] = None  #: newest shipped state
    attempts: int = 0
    failovers: int = 0
    resumed: bool = False  #: a failover re-submit carried a checkpoint
    tried: Set[str] = field(default_factory=set)


class Router(WireEndpoint):
    """Consistent-hash router with health checks and failover."""

    role = "router"

    def __init__(self, config: RouterConfig) -> None:
        if not config.backends:
            raise ValueError("a router needs at least one backend")
        super().__init__(config)
        names = [f"{h}:{p}" for h, p in config.backends]
        self.ring = HashRing(names, replicas=config.replicas)
        self.links: Dict[str, BackendLink] = {}
        self.health: Dict[str, BackendHealth] = {}
        for name, (host, port) in zip(names, config.backends):
            self.links[name] = BackendLink(
                name,
                host,
                port,
                max_frame_bytes=config.max_frame_bytes,
                on_lost=self._on_link_lost,
            )
            self.health[name] = BackendHealth(config.down_threshold)
        self._inflight: Dict[str, _InFlight] = {}
        #: session id -> backend name (resident state lives *there*)
        self._pinned: Dict[str, str] = {}
        #: sessions whose pinned backend died, oldest first; their
        #: resident graph and incremental state are gone, so operations
        #: fail with the non-retriable ``session_lost`` until the client
        #: reopens
        self._lost_sessions: Dict[str, None] = {}
        self._bg_tasks: Set[asyncio.Task] = set()
        self._next_rid = 0
        self._rng = random.Random(config.jitter_seed)
        self._handlers.update(
            {
                "solve": self._on_solve,
                "status": self._on_forwarded,
                "checkpoint": self._on_forwarded,
                "cancel": self._on_forwarded,
                "open-session": self._on_session_op,
                "mutate": self._on_session_op,
                "close-session": self._on_session_op,
                "subscribe": self._on_subscribe,
            }
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _started(self) -> None:
        """Start the probe and checkpoint-poll loops."""
        for name in self.links:
            self._spawn(self._probe_loop(name))
        self._spawn(self._checkpoint_poll_loop())
        log.info("routing over %d backend(s)", len(self.links))

    def _bye_frame(self) -> Dict[str, Any]:
        return {"type": "bye", "in_flight": len(self._inflight), "queued": 0}

    async def _drain_body(self) -> None:
        """Finish in-flight solves, then close the links (never the backends)."""
        await self._wait_conn_tasks()
        # cancel until the loops are gone: before Python 3.12, a
        # wait_for whose inner await finishes as it is cancelled
        # swallows the cancellation, and the loop would run on
        while self._bg_tasks:
            tasks = list(self._bg_tasks)
            for task in tasks:
                task.cancel()
            await asyncio.wait(tasks, timeout=self.config.probe_interval_s)
        for link in self.links.values():
            await link.close()

    def _spawn(self, coro) -> asyncio.Task:
        assert self._loop is not None
        task = self._loop.create_task(coro)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)
        return task

    # ------------------------------------------------------------------
    # health probes and link-loss handling
    # ------------------------------------------------------------------
    async def _probe_loop(self, name: str) -> None:
        """Periodically probe one backend with a ``status`` frame."""
        link, health = self.links[name], self.health[name]
        seq = 0
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            seq += 1
            try:
                reply = await link.request(
                    {"type": "status", "id": f"probe-{seq}"},
                    ("status",),
                    timeout_s=self.config.probe_timeout_s,
                )
            except asyncio.CancelledError:
                raise
            except _LINK_ERRORS as exc:
                before = health.state
                health.note_failure()
                self.stats.inc("probes.failed")
                if health.state != before:
                    log.warning(
                        "backend %s: %s -> %s (%s)",
                        name, before, health.state, exc,
                    )
                continue
            if reply.get("type") == "status":
                before = health.state
                health.note_success()
                self.stats.inc("probes.ok")
                if before == DOWN:
                    log.info("backend %s recovered", name)

    def _on_link_lost(self, link: BackendLink) -> None:
        """Live traffic saw this backend's connection reset."""
        health = self.health.get(link.name)
        if health is not None and health.state != DOWN:
            health.note_lost()
            log.warning("backend %s marked down (connection lost)", link.name)
        for sid, name in list(self._pinned.items()):
            if name == link.name:
                self._mark_session_lost(sid)

    def _mark_session_lost(self, sid: str) -> None:
        """A pinned backend died: its sessions' resident state is gone."""
        if self._pinned.pop(sid, None) is not None:
            log.warning("session %r lost with its backend", sid)
            self.stats.inc("sessions.lost")
        self._lost_sessions.pop(sid, None)  # a repeat loss is the newest
        self._lost_sessions[sid] = None
        if len(self._lost_sessions) > _MAX_LOST_SESSIONS:
            del self._lost_sessions[next(iter(self._lost_sessions))]

    # ------------------------------------------------------------------
    # checkpoint polling (failover state shipping)
    # ------------------------------------------------------------------
    async def _checkpoint_poll_loop(self) -> None:
        """Keep the newest checkpoint of every resumable in-flight solve."""
        while True:
            await asyncio.sleep(self.config.checkpoint_poll_s)
            entries = [
                e for e in list(self._inflight.values())
                if e.resumable and e.backend is not None
            ]
            for entry in entries:
                link = self.links.get(entry.backend or "")
                if link is None or not link.connected:
                    continue
                try:
                    reply = await link.request(
                        {"type": "checkpoint", "id": entry.rid},
                        ("checkpoint",),
                        timeout_s=self.config.probe_timeout_s,
                    )
                except asyncio.CancelledError:
                    raise
                except _LINK_ERRORS:
                    continue  # the solve driver handles real loss
                ckpt = reply.get("checkpoint")
                if isinstance(ckpt, dict):
                    entry.checkpoint = ckpt
                    self.stats.inc("checkpoints.polled")
                    self.stats.inc(f"checkpoints.polled.{link.name}")

    # ------------------------------------------------------------------
    # hello advert
    # ------------------------------------------------------------------
    def _hello_frame(self) -> Dict[str, Any]:
        """The router's capability advert: the backend intersection.

        ``problems`` is the intersection of what every *reachable*
        backend advertises -- the router only promises what any
        placement can deliver. With no backend connected yet it
        advertises the full build capability and lets a mismatching
        solve fail at placement time.
        """
        sets: List[set] = []
        for link in self.links.values():
            hello = link.hello
            if hello and isinstance(hello.get("problems"), list):
                sets.append(set(hello["problems"]))
        if sets:
            inter = set.intersection(*sets)
            problems = [p for p in protocol.SUPPORTED_PROBLEMS if p in inter]
        else:
            problems = list(protocol.SUPPORTED_PROBLEMS)
        streaming = [
            bool(link.hello.get("streaming"))
            for link in self.links.values()
            if link.hello
        ]
        return {
            "type": "hello",
            "protocol": protocol.PROTOCOL,
            "server": f"repro-router/{__version__}",
            "max_frame_bytes": self.config.max_frame_bytes,
            "problems": problems,
            # sessions pin to one backend, so streaming is offered only
            # when every reachable backend speaks it
            "streaming": all(streaming) if streaming else True,
            "backends": len(self.links),
        }

    async def _hello(self) -> Dict[str, Any]:
        # handshake every reachable link first so the advert is the
        # real backend intersection, not the optimistic default
        await self._connect_links()
        return self._hello_frame()

    async def _connect_links(self) -> None:
        """Best-effort connect of every link that is not up yet."""

        async def _try(link: BackendLink) -> None:
            with contextlib.suppress(BackendLostError):
                await link.ensure_connected()

        pending = [
            _try(link) for link in self.links.values() if not link.connected
        ]
        if pending:
            await asyncio.gather(*pending)

    # ------------------------------------------------------------------
    # solve routing
    # ------------------------------------------------------------------
    async def _on_solve(self, conn: Conn, frame: Dict[str, Any]) -> None:
        request_id = self._frame_id(frame)
        if request_id is not None and request_id in conn.jobs:
            entry = self._inflight.get(conn.jobs[request_id])
            dup_key = frame.get("request_id")
            if (
                entry is not None
                and dup_key is not None
                and entry.frame.get("request_id") == dup_key
            ):
                # a duplicated delivery of a solve we are already
                # driving (the chaos proxy does this on purpose): the
                # in-flight entry will answer it, so just drop the copy
                self.stats.inc("dedup.dropped_duplicates")
                return
        self._check_id_free(conn, request_id)
        self._check_not_draining()
        # full validation (graph decode included) runs off the loop;
        # it also yields the fingerprints that form the ring key
        loop = asyncio.get_running_loop()
        request, _ = await loop.run_in_executor(
            None, protocol.solve_request_from_frame, frame
        )
        problem = request.config.problem
        advertised = self._hello_frame()["problems"]
        if problem not in advertised:
            raise ProtocolError(
                f"no backend intersection solves {problem!r} "
                f"(advertised: {advertised})",
                code="unsupported_problem",
            )
        self._check_deadline(request, "before placement")
        key = (
            f"{request.graph.fingerprint()}/"
            f"{config_fingerprint(request.config)}"
        )
        rid = f"rt-{self._next_rid}"
        self._next_rid += 1
        # deadline_s is stripped here and re-computed per placement:
        # the backend must see the budget *remaining*, not the
        # original one the client stamped before routing delays
        entry = _InFlight(
            rid=rid,
            conn=conn,
            request_id=request_id,
            frame={
                k: v for k, v in frame.items() if k not in ("id", "deadline_s")
            },
            key=key,
            resumable=request.config.resumable,
            checkpoint=frame.get("checkpoint"),
            deadline_at=(
                request.deadline.at if request.deadline is not None else None
            ),
        )
        self._inflight[rid] = entry
        if request_id is not None:
            conn.jobs[request_id] = rid
        self.stats.inc("solves.accepted")
        conn.spawn(self._drive_solve(entry, loop.time()))

    def _pick_backend(self, entry: _InFlight) -> Tuple[Optional[str], bool]:
        """The next placement for one solve: (name, was_rebalanced).

        Walks the ring preference list of the entry's key, skipping
        down backends and ones this solve already died on. Returns
        ``(None, _)`` when nothing is placeable.
        """
        pref = self.ring.preference(entry.key)
        rebalanced = False
        for i, name in enumerate(pref):
            if not self.health[name].available or name in entry.tried:
                rebalanced = rebalanced or (i == 0)
                continue
            return name, (i > 0)
        # every backend tried: allow a second lap over live ones
        for name in pref:
            if self.health[name].available:
                return name, True
        return None, False

    async def _drive_solve(self, entry: _InFlight, t0: float) -> None:
        """Place one solve, following it through failovers to a reply."""
        loop = asyncio.get_running_loop()
        try:
            while entry.attempts < self.config.max_attempts:
                budget = None
                if entry.deadline_at is not None:
                    budget = entry.deadline_at - time.perf_counter()
                    if budget <= 0:
                        # the client stopped waiting somewhere between
                        # placements: fail retriable, burn no backend
                        await self._refuse(
                            entry.conn,
                            ServerError(
                                "request deadline expired while routing",
                                code="deadline_exceeded",
                            ),
                            entry.request_id,
                        )
                        return
                name, rebalanced = self._pick_backend(entry)
                if name is None:
                    await self._refuse(
                        entry.conn,
                        ServerError(
                            "no healthy backend available for this request",
                            code="no_backend",
                            retry_after_s=self.config.probe_interval_s,
                        ),
                        entry.request_id,
                    )
                    return
                entry.attempts += 1
                entry.backend = name
                wire = dict(entry.frame)
                wire["id"] = entry.rid
                if budget is not None:
                    wire["deadline_s"] = round(budget, 6)
                shipped = None
                if entry.resumable and entry.checkpoint is not None:
                    wire["checkpoint"] = entry.checkpoint
                    shipped = entry.checkpoint
                self.stats.inc("routed.total")
                self.stats.inc(f"routed.{name}")
                if rebalanced:
                    self.stats.inc("rebalanced.total")
                    self.stats.inc(f"rebalanced.{name}")
                link = self.links[name]
                try:
                    reply = await link.request(wire, ("result",))
                except BackendLostError:
                    entry.backend = None
                    entry.tried.add(name)
                    entry.failovers += 1
                    self.health[name].note_failure()
                    if shipped is not None or (
                        entry.resumable and entry.checkpoint is not None
                    ):
                        entry.resumed = True
                        self.stats.inc("failover.resumed")
                    self.stats.inc("failover.total")
                    self.stats.inc(f"failover.{name}")
                    log.warning(
                        "solve %s lost backend %s (attempt %d); "
                        "re-routing%s",
                        entry.rid, name, entry.attempts,
                        " with checkpoint" if entry.checkpoint else "",
                    )
                    continue
                except ServerError as exc:
                    entry.backend = None
                    if exc.retriable:
                        # draining / busy / rate limited: someone else
                        # may take it; re-submitting a pure solve is safe
                        entry.tried.add(name)
                        self.stats.inc("resubmits.total")
                        self.stats.inc(f"resubmits.{exc.code}")
                        delay = getattr(exc, "retry_after_s", None)
                        if delay:
                            # seeded jitter in [0.5, 1.0): N failed-over
                            # solves must not resubmit in lockstep
                            await asyncio.sleep(
                                min(float(delay), 1.0)
                                * (0.5 + 0.5 * self._rng.random())
                            )
                        continue
                    await self._refuse(
                        entry.conn, exc, entry.request_id, tally="solves"
                    )
                    return
                entry.backend = None
                record = reply.get("record") or {}
                if (
                    shipped is not None
                    and record.get("status") == "failed"
                    and str(record.get("error", "")).startswith(
                        "CheckpointError"
                    )
                ):
                    # the replica rejected the shipped state (e.g. the
                    # executed config differed): drop it, restart clean
                    entry.checkpoint = None
                    entry.resumed = False
                    self.stats.inc("failover.checkpoint_rejected")
                    log.warning(
                        "solve %s: replica rejected shipped checkpoint; "
                        "restarting clean", entry.rid,
                    )
                    continue
                self.health[name].note_success()
                self.stats.latency.record(loop.time() - t0)
                status = record.get("status", "ok")
                self.stats.inc(
                    "solves.ok" if status == "ok" else f"solves.{status}"
                )
                if entry.resumed:
                    self.stats.inc("solves.resumed_ok")
                await self._relay(entry.conn, reply, entry.request_id)
                return
            await self._refuse(
                entry.conn,
                ServerError(
                    f"placement failed after {entry.attempts} attempt(s)",
                    code="no_backend",
                ),
                entry.request_id,
            )
        finally:
            self._inflight.pop(entry.rid, None)
            if entry.request_id is not None:
                entry.conn.jobs.pop(entry.request_id, None)

    # ------------------------------------------------------------------
    # streaming sessions (pinning + passthrough)
    # ------------------------------------------------------------------
    #: session frame type -> the reply frame type that answers it
    _SESSION_REPLY = {
        "open-session": "session-opened",
        "mutate": "mutated",
        "close-session": "session-closed",
    }

    def _pick_session_backend(self, sid: str) -> Optional[str]:
        """First available backend on the ring for this session id.

        Sessions hash by id alone -- the id is chosen by the *client*
        before any server state exists, which is what lets a retried
        ``open-session`` land on the same backend and dedup there.
        """
        for name in self.ring.preference(f"session:{sid}"):
            if self.health[name].available:
                return name
        return None

    def _pinned_backend(self, sid: str) -> str:
        """The live backend holding session ``sid``.

        Refuses with ``unknown_session`` (never opened here) or
        ``session_lost`` (its backend died).
        """
        name = self._pinned.get(sid)
        if name is not None:
            if self.health[name].available:
                return name
            self._mark_session_lost(sid)
        if sid in self._lost_sessions:
            raise ServerError(
                f"session {sid!r} is not resident behind this router; "
                "its backend died -- reopen it",
                code="session_lost",
            )
        raise ServerError(
            f"session {sid!r} is not resident behind this router",
            code="unknown_session",
        )

    async def _on_session_op(self, conn: Conn, frame: Dict[str, Any]) -> None:
        ftype = frame["type"]
        request_id = self._frame_id(frame)
        sid = protocol.validate_session_id(frame)
        self._check_not_draining()
        if ftype == "open-session":
            name = self._pinned.get(sid)
            if name is None or not self.health[name].available:
                name = self._pick_session_backend(sid)
            if name is None:
                raise ServerError(
                    "no healthy backend available for this session",
                    code="no_backend",
                    retry_after_s=self.config.probe_interval_s,
                )
        else:
            name = self._pinned_backend(sid)
        rid = f"rt-s{self._next_rid}"
        self._next_rid += 1
        wire = dict(frame)
        wire["id"] = rid
        conn.spawn(
            self._drive_session_op(conn, request_id, sid, name, wire, ftype)
        )

    async def _drive_session_op(
        self,
        conn: Conn,
        request_id: Optional[str],
        sid: str,
        name: str,
        wire: Dict[str, Any],
        ftype: str,
    ) -> None:
        """Forward one session operation to its pinned backend."""
        link = self.links[name]
        self.stats.inc("routed.total")
        self.stats.inc(f"routed.{name}")
        try:
            reply = await link.request(wire, (self._SESSION_REPLY[ftype],))
        except BackendLostError:
            self.health[name].note_failure()
            if ftype == "open-session":
                # nothing was pinned yet: the retried open (same
                # request_id) simply lands on the next live backend
                self.stats.inc("sessions.open_failed")
                lost = ServerError(
                    f"backend {name} lost while opening session {sid!r}",
                    code="no_backend",
                    retry_after_s=self.config.probe_interval_s,
                )
            else:
                self._mark_session_lost(sid)
                lost = ServerError(
                    f"backend {name} died holding session {sid!r}; its "
                    "resident state is gone -- reopen the session",
                    code="session_lost",
                )
            await self._refuse(conn, lost, request_id, tally=None)
            return
        except ServerError as exc:
            await self._refuse(conn, exc, request_id, tally="sessions")
            return
        self.health[name].note_success()
        if ftype == "open-session":
            self._pinned[sid] = name
            self._lost_sessions.pop(sid, None)
            self.stats.inc("sessions.opened")
        elif ftype == "close-session":
            self._pinned.pop(sid, None)
            self.stats.inc("sessions.closed")
        else:
            self.stats.inc("sessions.mutated")
        await self._relay(conn, reply, request_id)

    async def _on_subscribe(
        self, conn: Conn, frame: Dict[str, Any]
    ) -> None:
        """Attach a passthrough pipe to the session's pinned backend.

        The router dials a dedicated plain connection to the backend,
        forwards the subscribe frame verbatim, and relays every frame
        the backend pushes -- update frames already carry the client's
        subscribe id, so no rewriting is needed and the stream stays
        byte-faithful to a direct subscription.
        """
        self._frame_id(frame, required=True)
        name = self._pinned_backend(protocol.validate_session_id(frame))
        conn.spawn(self._subscribe_pipe(conn, frame, name))

    async def _subscribe_pipe(
        self, conn: Conn, frame: Dict[str, Any], name: str
    ) -> None:
        rid, sid = frame["id"], frame.get("session")
        writer = None
        try:
            reader, writer, _ = await self.links[name].dial(
                self.config.probe_timeout_s
            )
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
            self.stats.inc("sessions.subscribes")
            while not conn.closed:
                line = await reader.readline()
                if not line:
                    # the backend died mid-subscription: the watcher
                    # must learn its view can no longer advance
                    if not conn.closed:
                        self._mark_session_lost(sid)
                        lost = ServerError(
                            f"backend {name} lost mid-subscription of "
                            f"session {sid!r}",
                            code="session_lost",
                        )
                        await self._refuse(conn, lost, rid, tally=None)
                    return
                try:
                    out = protocol.decode_frame(line)
                except ProtocolError:
                    continue
                await self._send(conn, out)
                self.stats.inc("sessions.updates_relayed")
                if out.get("closed"):
                    return
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            if not conn.closed:
                lost = ServerError(
                    f"subscription to backend {name} failed: {exc}",
                    code="session_lost",
                )
                await self._refuse(conn, lost, rid, tally=None)
        finally:
            if writer is not None:
                with contextlib.suppress(Exception):
                    writer.close()

    # ------------------------------------------------------------------
    # forwarded small frames
    # ------------------------------------------------------------------
    async def _on_forwarded(self, conn: Conn, frame: Dict[str, Any]) -> None:
        """Relay status/cancel/checkpoint to the owning backend."""
        ftype = frame["type"]
        request_id = self._frame_id(frame, required=True)
        reply_type = "status" if ftype == "cancel" else ftype
        rid = conn.jobs.get(request_id)
        entry = self._inflight.get(rid) if rid is not None else None
        if entry is None or entry.backend is None:
            out: Dict[str, Any] = {
                "type": reply_type,
                "id": request_id,
                "state": "unknown",
            }
            if ftype == "cancel":
                out["cancelled"] = False
            if ftype == "checkpoint":
                out["checkpoint"] = (
                    entry.checkpoint if entry is not None else None
                )
            await self._send(conn, out)
            return
        link = self.links[entry.backend]
        try:
            reply = await link.request(
                {"type": ftype, "id": entry.rid},
                (reply_type,),
                timeout_s=self.config.probe_timeout_s,
            )
        except _LINK_ERRORS:
            await self._send(
                conn,
                {"type": reply_type, "id": request_id, "state": "unknown"},
            )
            return
        await self._relay(conn, reply, request_id)

    async def _relay(
        self, conn: Conn, reply: Dict[str, Any], request_id: Optional[str]
    ) -> None:
        """Send a backend's reply on under the client's own request id."""
        out = dict(reply)
        if request_id is not None:
            out["id"] = request_id
        else:
            out.pop("id", None)
        await self._send(conn, out)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats_frame(self) -> Dict[str, Any]:
        """The router's ``stats`` frame: router gauges + per-backend view."""
        backends: Dict[str, Any] = {}
        for name, link in self.links.items():
            backends[name] = {
                "health": self.health[name].to_dict(),
                "connected": link.connected,
                "server": (link.hello or {}).get("server"),
                "problems": (link.hello or {}).get("problems"),
                "routed": self.stats.get(f"routed.{name}"),
                "failed_over": self.stats.get(f"failover.{name}"),
                "rebalanced": self.stats.get(f"rebalanced.{name}"),
            }
        return {
            "type": "stats",
            "router": self.stats.snapshot(
                connections_open=len(self._conns),
                in_flight=len(self._inflight),
                draining=self._draining,
                backends_total=len(self.links),
                backends_available=sum(
                    1 for h in self.health.values() if h.available
                ),
                ring_replicas=self.ring.replicas,
                sessions_pinned=len(self._pinned),
                sessions_lost=len(self._lost_sessions),
            ),
            "backends": backends,
        }

class RouterThread(EndpointThread):
    """Run a :class:`Router` on a background thread (tests, benchmarks).

    >>> backends = [("127.0.0.1", b1.port), ("127.0.0.1", b2.port)]
    >>> handle = RouterThread(RouterConfig(backends=backends, port=0))
    >>> handle.start()
    >>> client = SolveClient(port=handle.port)
    ...
    >>> handle.stop()
    """

    def __init__(self, config: RouterConfig) -> None:
        self.router = Router(config)
        super().__init__(self.router, "solve-router")
