"""The asyncio network front-end over one :class:`SolveService`.

``SolveServer`` speaks ``repro-wire/1`` (newline-delimited JSON; see
:mod:`repro.server.protocol` and docs/SERVER.md) on a plain TCP
socket. The event loop only ever parses frames and shuffles bytes --
every solve runs on the :class:`~repro.server.bridge.SolveBridge`
worker thread through the existing service stack, so a concurrent
``stats`` frame answers immediately even while a heavy graph is mid
search.

Defence layers, outermost first (the first two and the fifth live in
:class:`~repro.server.endpoint.WireEndpoint`, shared with the router):

1. **connection cap** -- past ``max_conns``, new sockets get one
   retriable ``too_many_connections`` error frame and are closed;
2. **frame size limit** -- the stream reader's buffer limit rejects
   any line over ``max_frame_bytes`` (``frame_too_large``, close --
   framing cannot be trusted after an oversized blob);
3. **per-connection token bucket** -- ``solve`` frames past the
   configured rate get ``rate_limited`` with a precise
   ``retry_after_s``;
4. **bounded bridge queue** -- server-level backpressure in front of
   the service's admission controller (``server_busy``, retriable);
5. **slow-client write throttling** -- result frames are written
   under ``writer.drain()`` with bounded transport buffers, so one
   unread socket stalls only its own connection task.

Graceful drain (SIGTERM, SIGINT, or a ``shutdown`` frame): the
listener closes, queued jobs fail fast with a retriable ``draining``
error, the in-flight batch finishes and its results are still
delivered, then every connection is closed and the server exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import __version__
from ..errors import ServerError, SessionError
from ..log import get_logger
from ..stream import GraphSession, SessionManager
from . import protocol
from .bridge import SolveBridge
from .endpoint import Conn, EndpointThread, WireEndpoint
from .limiter import TokenBucket

__all__ = ["ServerConfig", "SolveServer", "ServerThread"]

log = get_logger("server")


@dataclass
class ServerConfig:
    """Network-layer knobs of one :class:`SolveServer`.

    Everything about *solving* (pool size, memory budget, cache,
    policy, executor) lives on the :class:`SolveService` the server
    wraps; this config is only the wire-facing surface.
    """

    host: str = "127.0.0.1"
    port: int = protocol.DEFAULT_PORT  #: 0 picks an ephemeral port
    max_conns: int = 32
    #: solve frames per second per connection; 0 disables limiting
    rate: float = 0.0
    burst: int = 8
    #: bounded bridge queue depth (server-level backpressure)
    queue_depth: int = 64
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: seconds to wait for the in-flight batch during a drain
    drain_timeout_s: float = 60.0
    #: seconds a fresh connection gets to complete the hello handshake
    handshake_timeout_s: float = 10.0
    #: bounded idempotency table: how many ``request_id`` entries are
    #: remembered for duplicate/resend detection (completed entries are
    #: evicted oldest-first past the cap; in-flight ones never are)
    dedup_capacity: int = 1024
    #: cap on concurrently resident streaming sessions
    max_sessions: int = 64


class _DedupEntry:
    """One remembered solve, keyed by its client ``request_id``.

    While the solve is in flight, ``future`` lets a duplicate delivery
    *join* the running job (a second reply is sent when it finishes,
    no second execution). Once finished, ``record`` replays the cached
    reply to any resend -- the at-most-once-execution guarantee a
    client's blind retry after an ambiguous failure relies on.
    """

    __slots__ = ("key", "future", "record", "max_report")

    def __init__(self, key: str, future, max_report) -> None:
        self.key = key
        self.future = future
        self.record = None  #: JobRecord once the solve finished
        self.max_report = max_report


class _Subscriber:
    """One live ``subscribe`` registration on a session.

    ``last_epoch`` makes update delivery monotone per subscriber: a
    push always carries the session's *current* view, and epochs the
    subscriber has already seen are skipped -- so even when two
    mutation completions race on the event loop, no subscriber ever
    observes a stale view after a fresh one.
    """

    __slots__ = ("conn", "sub_id", "last_epoch")

    def __init__(self, conn: Conn, sub_id: str, last_epoch: int) -> None:
        self.conn = conn
        self.sub_id = sub_id
        self.last_epoch = last_epoch


class SolveServer(WireEndpoint):
    """Asyncio TCP server bridging ``repro-wire/1`` onto a SolveService."""

    role = "server"

    def __init__(self, service, config: Optional[ServerConfig] = None) -> None:
        super().__init__(config if config is not None else ServerConfig())
        self.service = service
        self.bridge = SolveBridge(service, max_queue=self.config.queue_depth)
        #: request_id -> _DedupEntry, LRU-ordered (bounded idempotency)
        self._dedup: "OrderedDict[str, _DedupEntry]" = OrderedDict()
        #: resident streaming sessions; all registry *writes* happen on
        #: the bridge worker (FIFO with the mutations they order against)
        self.sessions = SessionManager(max_sessions=self.config.max_sessions)
        #: session id -> live subscribe registrations (event-loop only)
        self._subscribers: Dict[str, List[_Subscriber]] = {}
        #: session id -> push serialization lock (event-loop only)
        self._push_locks: Dict[str, asyncio.Lock] = {}
        #: worker-thread-safe id source for session-internal solves
        self._session_seq = itertools.count()
        self._next_job = 0
        self._handlers.update(
            {
                "solve": self._on_solve,
                "status": self._on_job_query,
                "cancel": self._on_job_query,
                "checkpoint": self._on_job_query,
                "open-session": self._on_open_session,
                "mutate": self._on_mutate,
                "subscribe": self._on_subscribe,
                "close-session": self._on_close_session,
            }
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _hello(self) -> Dict[str, Any]:
        return protocol.hello_frame(
            self.config.max_frame_bytes, f"repro/{__version__}"
        )

    def _bye_frame(self) -> Dict[str, Any]:
        return {
            "type": "bye",
            "in_flight": self.bridge.in_flight,
            "queued": self.bridge.queue_depth,
        }

    def kill(self) -> None:
        """Crash the server: abort every socket, no drain, no goodbyes.

        The chaos-harness counterpart of :meth:`begin_drain` -- from a
        peer's perspective this is indistinguishable from a SIGKILL'd
        process (connections reset mid-frame, queued and in-flight
        results never delivered). Must run on the event loop.
        """
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            conn.closed = True
            self._conns.discard(conn)
            with contextlib.suppress(Exception):
                conn.writer.transport.abort()
        self._draining = True
        if self._done is not None:
            self._done.set()
        log.info("killed: all connections aborted")

    async def _drain_body(self) -> None:
        loop = asyncio.get_running_loop()
        # queued jobs fail fast (retriable error frames go out through
        # their waiting tasks); the in-flight batch runs to completion
        completed = await loop.run_in_executor(
            None, self.bridge.drain, self.config.drain_timeout_s
        )
        if not completed:
            log.warning(
                "drain: in-flight batch still running after %.1fs",
                self.config.drain_timeout_s,
            )
        # let result frames flush to still-connected clients
        await self._wait_conn_tasks()

    def _conn_opened(self, conn: Conn) -> None:
        conn.bucket = TokenBucket(self.config.rate, self.config.burst)
        #: session ids this connection subscribed to (teardown cleanup)
        conn.subs = set()

    def _conn_closed(self, conn: Conn) -> None:
        """Disconnect cleanup: cancel this connection's queued jobs.

        A mid-solve disconnect must not wedge a worker: still-queued
        jobs are cancelled outright; a job already inside the service
        batch runs to completion (its result frame write is a no-op on
        the closed socket) and its worker returns to the pool.
        """
        for job_id in list(conn.jobs.values()):
            if self.bridge.cancel(job_id):
                self.stats.inc("solves.cancelled_on_disconnect")
        # subscriptions die with the socket; the sessions themselves
        # stay resident (a reconnecting client re-subscribes by id)
        for sid in list(conn.subs):
            subs = self._subscribers.get(sid)
            if subs is not None:
                subs[:] = [s for s in subs if s.conn is not conn]
                if not subs:
                    del self._subscribers[sid]
        conn.subs.clear()

    def _spend_token(self, conn: Conn) -> None:
        """Spend one token of the connection's bucket; ``rate_limited`` if empty."""
        ok, retry_after = conn.bucket.try_acquire()
        if not ok:
            raise ServerError(
                f"connection rate limit "
                f"({self.config.rate:g}/s, burst {self.config.burst}) exceeded",
                code="rate_limited",
                retry_after_s=retry_after,
            )

    # ------------------------------------------------------------------
    # solve path
    # ------------------------------------------------------------------
    async def _on_solve(self, conn: Conn, frame: Dict[str, Any]) -> None:
        request_id = self._frame_id(frame)
        dedup_key = protocol.validate_request_key(frame)
        # idempotency first: a duplicated or resent solve must never
        # execute twice, so the dedup table answers before rate limits,
        # the in-flight-id check, or the (expensive) graph decode
        if dedup_key is not None and await self._dedup_hit(
            conn, request_id, dedup_key
        ):
            return
        self._check_id_free(conn, request_id)
        self._check_not_draining()
        self._spend_token(conn)
        # graph decode can be MiBs of base64+gzip+parsing: off the loop
        loop = asyncio.get_running_loop()
        request, max_report = await loop.run_in_executor(
            None, protocol.solve_request_from_frame, frame
        )
        try:
            self._check_deadline(request, "before dispatch")
        except ServerError:
            self.service.tracer.counter("service.deadline.rejected")
            raise
        job_id = f"conn{conn.cid}-job{self._next_job}"
        self._next_job += 1
        request.job_id = job_id
        future = self.bridge.submit(request)
        self.stats.inc("solves.accepted")
        if request_id is not None:
            conn.jobs[request_id] = job_id
        entry = None
        if dedup_key is not None:
            entry = _DedupEntry(dedup_key, future, max_report)
            self._dedup[dedup_key] = entry
            self._dedup.move_to_end(dedup_key)
            self._prune_dedup()
        t0 = loop.time()
        conn.spawn(
            self._await_result(
                conn, request_id, job_id, future, max_report, t0, entry
            )
        )

    async def _dedup_hit(self, conn: Conn, request_id, dedup_key: str) -> bool:
        """Answer a known ``request_id`` from the dedup table.

        Completed entries replay the cached reply; in-flight entries
        attach this delivery to the running job (its reply goes out
        when the one execution finishes). Returns False when the key
        is unknown and the solve should proceed normally.
        """
        entry = self._dedup.get(dedup_key)
        if entry is None:
            return False
        self._dedup.move_to_end(dedup_key)
        if entry.record is not None:
            self.stats.inc("dedup.replays")
            self.service.tracer.counter("service.dedup.replays")
            await self._send(
                conn,
                protocol.result_frame(request_id, entry.record, entry.max_report),
            )
            return True
        self.stats.inc("dedup.joins")
        self.service.tracer.counter("service.dedup.joins")
        conn.spawn(self._join_result(conn, request_id, entry))
        return True

    async def _join_result(self, conn: Conn, request_id, entry) -> None:
        """Deliver an in-flight job's eventual reply to a duplicate."""
        try:
            record = await asyncio.wrap_future(entry.future)
        except ServerError as exc:
            await self._refuse(conn, exc, request_id, tally=None)
            return
        await self._send(
            conn, protocol.result_frame(request_id, record, entry.max_report)
        )

    def _prune_dedup(self) -> None:
        """Evict oldest *completed* entries past the capacity bound.

        Walks from the oldest entry only until it has found the excess,
        skipping in-flight entries, so a full table costs O(evicted)
        per solve rather than a copy of every key.
        """
        excess = len(self._dedup) - max(int(self.config.dedup_capacity), 0)
        if excess <= 0:
            return
        evict = []
        for key, entry in self._dedup.items():
            if entry.record is not None or entry.future.done():
                evict.append(key)
                if len(evict) == excess:
                    break
        for key in evict:
            del self._dedup[key]
            self.stats.inc("dedup.evictions")

    async def _await_result(
        self, conn, request_id, job_id, future, max_report, t0, entry=None
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            record = await asyncio.wrap_future(future)
        except ServerError as exc:
            # queued-but-rejected (drain), cancelled, or past-deadline
            # before running: forget the dedup entry so a retry with
            # the same request_id executes fresh (nothing ran here)
            if entry is not None and self._dedup.get(entry.key) is entry:
                del self._dedup[entry.key]
            await self._refuse(conn, exc, request_id, tally="solves")
            return
        finally:
            if request_id is not None:
                conn.jobs.pop(request_id, None)
        if entry is not None:
            # remember the outcome even if this socket is already dead:
            # the client's resend on a fresh connection replays it
            entry.record = record
        self.stats.latency.record(loop.time() - t0)
        self.stats.inc("solves.ok" if record.ok else f"solves.{record.status}")
        await self._send(conn, protocol.result_frame(request_id, record, max_report))

    # ------------------------------------------------------------------
    # small frames
    # ------------------------------------------------------------------
    async def _on_job_query(self, conn: Conn, frame: Dict[str, Any]) -> None:
        """Answer ``status``, ``cancel`` and ``checkpoint`` about one solve.

        ``cancel`` answers with a ``status`` frame that also says whether
        the queued job was cancelled. ``checkpoint`` carries the newest
        completed-window checkpoint (or null when the job is unknown,
        finished, or not resumable) -- this is what the cluster router
        polls so it can fail a dying backend's solve over to a replica
        (docs/CLUSTER.md).
        """
        ftype = frame["type"]
        request_id = self._frame_id(frame, required=True)
        job_id = conn.jobs.get(request_id)
        known = job_id is not None
        cancelled = ftype == "cancel" and known and self.bridge.cancel(job_id)
        if cancelled:
            state = "cancelled"
        else:
            state = self.bridge.state(job_id) if known else "unknown"
        reply = {
            "type": "status" if ftype == "cancel" else ftype,
            "id": request_id,
            "state": state,
        }
        if ftype == "cancel":
            reply["cancelled"] = cancelled
        elif ftype == "checkpoint":
            ckpt = self.bridge.checkpoint(job_id) if known else None
            reply["checkpoint"] = ckpt.to_dict() if ckpt is not None else None
        await self._send(conn, reply)

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def _session_solve_batch(self, sid: str):
        """Service-backed solve backend for one session's solver.

        The returned callable runs on the bridge worker -- the only
        thread allowed to drive the blocking service -- and runs its
        jobs through the bridge's batch runner, so session solves
        (localized and full) share the scheduler, result cache,
        admission controller, and executor with ordinary ``solve``
        traffic.
        """
        from ..service.request import SolveRequest

        def solve_batch(jobs):
            requests = [
                SolveRequest(
                    graph=graph,
                    config=config,
                    job_id=f"{sid}-sess{next(self._session_seq)}",
                    label=f"session:{sid}",
                )
                for graph, config in jobs
            ]
            out = []
            for record in self.bridge.run_requests(requests):
                if record is None or not record.ok or record.result is None:
                    reason = record.error if record is not None else "no record"
                    raise ServerError(f"session {sid!r} solve failed: {reason}")
                out.append(record.result)
            return out

        return solve_batch

    async def _on_open_session(self, conn: Conn, frame: Dict[str, Any]) -> None:
        rid = self._frame_id(frame)
        self._check_not_draining()
        request_key = frame.get("request_id")
        # graph decode can be MiBs of base64+gzip+parsing: off the loop
        loop = asyncio.get_running_loop()
        sid, graph, config = await loop.run_in_executor(
            None, protocol.open_session_from_frame, frame
        )

        def fn():
            if sid in self.sessions:
                existing = self.sessions.get(sid)
                if (
                    request_key is not None
                    and getattr(existing, "open_request_id", None)
                    == request_key
                ):
                    # a duplicated or retried open of the same request:
                    # replay the existing session instead of failing
                    return existing.view
                raise SessionError(
                    f"session {sid!r} already exists", code="session_exists"
                )
            session = GraphSession(
                sid,
                graph,
                config,
                solve_batch=self._session_solve_batch(sid),
                tracer=self.service.tracer,
            )
            session.open_request_id = request_key
            self.sessions.create(session)
            return session.view

        self._submit_session_op(conn, rid, fn, "session-opened")

    async def _on_mutate(self, conn: Conn, frame: Dict[str, Any]) -> None:
        rid = self._frame_id(frame)
        sid, inserts, deletes = protocol.mutation_from_frame(frame)
        request_key = protocol.validate_request_key(frame)
        # mutations trigger solves, so they draw from the same
        # per-connection rate budget as solve frames
        self._check_not_draining()
        self._spend_token(conn)

        def fn():
            return self.sessions.get(sid).apply(
                inserts, deletes, request_id=request_key
            )

        self._submit_session_op(conn, rid, fn, "mutated")

    async def _on_subscribe(self, conn: Conn, frame: Dict[str, Any]) -> None:
        rid = self._frame_id(frame, required=True)
        sid = protocol.validate_session_id(frame)
        session = self.sessions.get(sid)
        # snapshot + register under the push lock so the snapshot and
        # later pushes cannot reorder on this connection
        lock = self._push_locks.setdefault(sid, asyncio.Lock())
        async with lock:
            view = session.view
            self._subscribers.setdefault(sid, []).append(
                _Subscriber(conn, rid, view.epoch)
            )
            conn.subs.add(sid)
            self.stats.inc("sessions.subscribes")
            await self._send(conn, protocol.session_frame("update", view, rid))

    async def _on_close_session(self, conn: Conn, frame: Dict[str, Any]) -> None:
        rid = self._frame_id(frame)
        sid = protocol.validate_session_id(frame)

        def fn():
            return self.sessions.close(sid).view

        self._submit_session_op(conn, rid, fn, "session-closed", closing=True)

    def _submit_session_op(
        self, conn: Conn, rid, fn, reply_type: str, closing: bool = False
    ) -> None:
        """Queue one session operation on the bridge worker.

        The worker queue is FIFO, which is what serializes operations
        per session (epochs apply in arrival order) while different
        sessions' operations interleave with each other and with solve
        batches.
        """
        future = self.bridge.submit_session(fn)
        conn.spawn(self._await_session_op(conn, rid, future, reply_type, closing))

    async def _await_session_op(
        self, conn: Conn, rid, future, reply_type: str, closing: bool
    ) -> None:
        try:
            view = await asyncio.wrap_future(future)
        except (SessionError, ServerError) as exc:
            await self._refuse(conn, exc, rid, tally="sessions")
            return
        except BaseException as exc:
            log.exception("session %s operation failed", reply_type)
            await self._refuse(
                conn, ServerError(f"session operation failed: {exc}"), rid, tally=None
            )
            return
        self.stats.inc(f"sessions.{reply_type}")
        await self._send(conn, protocol.session_frame(reply_type, view, rid))
        if closing:
            await self._notify_closed(view)
        else:
            await self._push_updates(view.session)

    async def _push_updates(self, sid: str) -> None:
        """Push the session's *current* view to lagging subscribers.

        Runs under the per-session push lock and always reads the
        newest view, so concurrent mutation completions collapse into
        monotone per-subscriber epoch delivery (a later pusher finds
        everything already delivered and skips).
        """
        subs = self._subscribers.get(sid)
        if not subs:
            return
        lock = self._push_locks.setdefault(sid, asyncio.Lock())
        async with lock:
            try:
                session = self.sessions.get(sid)
            except SessionError:
                return  # closed while this push was queued
            view = session.view
            for sub in list(subs):
                if sub.conn.closed:
                    subs.remove(sub)
                    continue
                if view.epoch <= sub.last_epoch:
                    continue
                sub.last_epoch = view.epoch
                self.stats.inc("sessions.updates")
                await self._send(
                    sub.conn, protocol.session_frame("update", view, sub.sub_id)
                )

    async def _notify_closed(self, view) -> None:
        """Send every subscriber a final ``closed`` update, then forget."""
        sid = view.session
        self._push_locks.pop(sid, None)
        for sub in self._subscribers.pop(sid, []):
            sub.conn.subs.discard(sid)
            if sub.conn.closed:
                continue
            frame = protocol.session_frame("update", view, sub.sub_id)
            frame["closed"] = True
            self.stats.inc("sessions.updates")
            await self._send(sub.conn, frame)

    def stats_frame(self) -> Dict[str, Any]:
        return {
            "type": "stats",
            "server": self.stats.snapshot(
                connections_open=len(self._conns),
                queue_depth=self.bridge.queue_depth,
                in_flight=self.bridge.in_flight,
                draining=self._draining,
                dedup_entries=len(self._dedup),
                sessions_open=len(self.sessions),
                subscribers=sum(
                    len(subs) for subs in self._subscribers.values()
                ),
            ),
            "service": self.service.stats_snapshot(),
            "counters": self.service.tracer.counters_snapshot(),
        }


class ServerThread(EndpointThread):
    """Run a :class:`SolveServer` on a background thread.

    The in-process harness used by the test suite and the latency
    benchmark: starts the server's event loop on a daemon thread,
    waits until the port is bound, and drains it on :meth:`stop`.

    >>> handle = ServerThread(SolveService(devices=2))
    >>> handle.start()
    >>> client = SolveClient(port=handle.port)
    ...
    >>> handle.stop()
    """

    def __init__(self, service, config: Optional[ServerConfig] = None) -> None:
        if config is None:
            config = ServerConfig(port=0)
        self.server = SolveServer(service, config)
        super().__init__(self.server, "solve-server")

    def stop(self, timeout_s: float = 30.0) -> None:
        super().stop(timeout_s)
        self.server.bridge.stop(timeout_s)

    def kill(self, timeout_s: float = 10.0) -> None:
        """Simulate a crash: abort all sockets, skip the drain entirely.

        Used by the cluster chaos tests -- peers observe connection
        resets exactly as they would for a SIGKILL'd ``repro serve``
        process. The bridge worker (a daemon thread) may still be
        mid-solve; its results go nowhere.
        """
        self._call_soon(self.server.kill)
        self._thread.join(timeout_s)
