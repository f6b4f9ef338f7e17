"""The ``repro-wire/1`` connection layer shared by the server and the router.

:class:`WireEndpoint` owns everything about a client connection that
does not depend on what the endpoint does with a frame:

* the listener, and the connection cap -- past ``max_conns`` (or while
  draining) a new socket gets one retriable ``too_many_connections``
  (``draining``) error frame and is closed;
* the hello handshake, with its timeout and protocol check;
* framed reads under ``max_frame_bytes`` -- an oversized line gets
  ``frame_too_large`` and a close (framing cannot be trusted after
  it), an undecodable one gets ``bad_frame`` and the connection stays;
* writes under ``writer.drain()`` with bounded transport buffers, so
  one unread socket stalls only its own connection task;
* one refusal path: a handler refuses a frame by raising
  :class:`~repro.errors.ProtocolError`, :class:`~repro.errors.ServerError`
  or :class:`~repro.errors.SessionError`, and the read loop answers it
  with an error frame that echoes the frame's string ``id``; tasks that
  answer later call the same :meth:`~WireEndpoint._refuse`. Every
  refusal counts once, as ``rejects.<code>`` (a later answer under the
  tally its task names). The checks the server and the router share --
  the frame's id, an id already in flight, a drain under way, a spent
  ``deadline_s`` -- raise from here;
* graceful drain (:meth:`~WireEndpoint.begin_drain`, also on
  SIGTERM/SIGINT under :meth:`~WireEndpoint.run`), and a frame-type ->
  handler table that answers ``shutdown``, ``stats``, a repeated
  ``hello`` and unknown frame types in one place.

A subclass supplies its hello and bye frames, its ``stats`` frame, the
body of its drain, and one handler per frame type it serves.

:class:`Listener` is the lifecycle under it, shared with the chaos
proxy (:class:`~repro.netchaos.proxy.ChaosProxy`): bind, serve until
a drain completes (SIGTERM/SIGINT start one under :meth:`~Listener.run`),
and a drain that stops accepting, runs the subclass's drain body and
closes every connection left. :class:`EndpointThread` runs any
listener on a background thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from ..errors import ProtocolError, ServerError, SessionError
from ..log import get_logger
from . import protocol
from .stats import ServerStats

__all__ = ["Conn", "Listener", "WireEndpoint", "EndpointThread"]

log = get_logger("server.endpoint")

Handler = Callable[["Conn", Dict[str, Any]], Awaitable[None]]

#: what a handler raises to refuse a frame; each carries a wire ``code``
REFUSALS = (ProtocolError, ServerError, SessionError)


class Conn:
    """One client connection: writer, write lock, outstanding requests.

    Endpoints hang their own per-connection state on it from
    :meth:`WireEndpoint._conn_opened` (the server's rate bucket and
    subscriptions).
    """

    def __init__(self, cid: int, writer: asyncio.StreamWriter) -> None:
        self.cid = cid
        self.writer = writer
        self.write_lock = asyncio.Lock()
        #: client request id -> endpoint job id, for outstanding solves
        self.jobs: Dict[str, str] = {}
        self.tasks: Set[asyncio.Task] = set()
        self.closed = False

    def spawn(self, coro) -> asyncio.Task:
        """Run ``coro`` as a task this connection cancels on teardown."""
        task = asyncio.get_running_loop().create_task(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)
        return task


class Listener:
    """The lifecycle of one asyncio TCP listener.

    :meth:`start` binds, :meth:`serve_until_drained` waits until a
    drain completes, and :meth:`begin_drain` stops accepting, awaits
    :meth:`_drain_body`, then closes every connection left. A subclass
    supplies the address (:meth:`_address`), the per-connection
    coroutine ``_handle_conn`` and how one connection is closed
    (``_close_conn``); it keeps its open connections in ``_conns``.
    """

    #: how the listener names itself in logs and error messages
    role = "listener"

    def __init__(self) -> None:
        self.port: Optional[int] = None  #: bound port, known after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._conns: Set[Any] = set()

    def _address(self) -> Tuple[str, int, int]:
        """``(host, port, stream line limit)`` to bind; port 0 picks one."""
        raise NotImplementedError

    def _started(self) -> None:
        """Called on the loop once the listener is bound."""

    async def _drain_body(self) -> None:
        """The drain between closing the listener and the connections."""

    async def start(self) -> None:
        """Bind the listener; ``self.port`` is valid afterwards."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        host, port, limit = self._address()
        self._server = await asyncio.start_server(
            self._handle_conn, host, port, limit=limit
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("%s listening on %s:%d", self.role, host, self.port)
        self._started()

    async def serve_until_drained(self) -> None:
        """Run until a drain (signal, ``shutdown`` frame, stop) completes."""
        if self._server is None:
            await self.start()
        assert self._done is not None
        await self._done.wait()

    def run(self, install_signal_handlers: bool = True) -> None:
        """Blocking entry point used by the CLI."""

        async def _main() -> None:
            await self.start()
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(NotImplementedError):
                        loop.add_signal_handler(sig, self.begin_drain)
            await self.serve_until_drained()

        asyncio.run(_main())

    def begin_drain(self) -> None:
        """Start a graceful drain; idempotent, must run on the loop."""
        if self._draining:
            return
        self._draining = True
        log.info("%s drain: stopping listener", self.role)
        assert self._loop is not None
        # the loop holds tasks weakly: keep the drain alive until it ends
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        # no wait_closed(): from Python 3.12 it waits for every accepted
        # connection, and those are closed only below
        if self._server is not None:
            self._server.close()
        await self._drain_body()
        for conn in list(self._conns):
            await self._close_conn(conn)
        assert self._done is not None
        self._done.set()
        log.info("%s drain: complete", self.role)


class WireEndpoint(Listener):
    """An asyncio TCP listener speaking ``repro-wire/1`` to its clients.

    ``config`` needs ``host``, ``port``, ``max_conns``,
    ``max_frame_bytes``, ``handshake_timeout_s`` and ``drain_timeout_s``.
    """

    role = "endpoint"

    def __init__(self, config) -> None:
        super().__init__()
        self.config = config
        self.stats = ServerStats()
        self._next_cid = 0
        #: frame type -> handler; subclasses add theirs
        self._handlers: Dict[str, Handler] = {
            "hello": self._on_hello,
            "shutdown": self._on_shutdown,
            "stats": self._on_stats,
        }

    # ------------------------------------------------------------------
    # what a subclass supplies
    # ------------------------------------------------------------------
    async def _hello(self) -> Dict[str, Any]:
        """The hello frame answering a client's hello."""
        raise NotImplementedError

    def _bye_frame(self) -> Dict[str, Any]:
        """The reply to a ``shutdown`` frame."""
        raise NotImplementedError

    def stats_frame(self) -> Dict[str, Any]:
        """The reply to a ``stats`` frame."""
        raise NotImplementedError

    async def _drain_body(self) -> None:
        await self._wait_conn_tasks()

    def _conn_opened(self, conn: Conn) -> None:
        """Called when a connection is admitted (before the handshake)."""

    def _conn_closed(self, conn: Conn) -> None:
        """Called when a connection ends, before its tasks are cancelled."""

    def _address(self) -> Tuple[str, int, int]:
        return self.config.host, self.config.port, self.config.max_frame_bytes

    async def _wait_conn_tasks(self) -> None:
        """Let in-flight replies flush, up to the drain timeout."""
        tasks = [t for conn in list(self._conns) for t in list(conn.tasks)]
        if tasks:
            await asyncio.wait(tasks, timeout=self.config.drain_timeout_s)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.inc("connections.total")
        conn = Conn(self._next_cid, writer)
        self._next_cid += 1
        if self._draining or len(self._conns) >= self.config.max_conns:
            code = "draining" if self._draining else "too_many_connections"
            await self._refuse(
                conn, ServerError(f"connection refused: {code}", code=code)
            )
            writer.close()
            return
        # bound the kernel-side write buffer so a slow reader exerts
        # backpressure on its own drain() instead of growing memory
        with contextlib.suppress(Exception):
            writer.transport.set_write_buffer_limits(high=256 * 1024)
        self._conns.add(conn)
        self._conn_opened(conn)
        try:
            if await self._handshake(conn, reader):
                await self._read_loop(conn, reader)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client went away; cleanup below
        finally:
            self._conn_closed(conn)
            for task in list(conn.tasks):
                task.cancel()
            await self._close_conn(conn)

    async def _handshake(self, conn: Conn, reader: asyncio.StreamReader) -> bool:
        """Answer the client's hello; False once the connection must close."""
        try:
            line = await asyncio.wait_for(
                reader.readline(), self.config.handshake_timeout_s
            )
            if not line:
                return False
            self.stats.inc("frames.in")
            frame = protocol.decode_frame(line)
            if frame.get("type") != "hello":
                raise ProtocolError(
                    f"first frame must be hello, got {frame.get('type')!r}",
                    code="handshake_required",
                )
            if frame.get("protocol") != protocol.PROTOCOL:
                raise ProtocolError(
                    f"{self.role} speaks {protocol.PROTOCOL}, "
                    f"client offered {frame.get('protocol')!r}",
                    code="unsupported_protocol",
                )
        except asyncio.TimeoutError:
            await self._refuse(
                conn,
                ProtocolError(
                    "no hello frame before timeout", code="handshake_required"
                ),
            )
            return False
        except ProtocolError as exc:
            await self._refuse(conn, exc)
            return False
        except ValueError:
            await self._oversized(conn)
            return False
        await self._send(conn, await self._hello())
        return True

    async def _read_loop(self, conn: Conn, reader: asyncio.StreamReader) -> None:
        while not conn.closed:
            try:
                line = await reader.readline()
            except ValueError:
                # the stream buffer overflowed: an oversized frame (or
                # newline-free garbage); framing is unrecoverable
                await self._oversized(conn)
                return
            if not line:
                return  # EOF
            self.stats.inc("frames.in")
            rid = None
            try:
                frame = protocol.decode_frame(line)
                rid = frame.get("id")
                handler = self._handlers.get(frame["type"])
                if handler is None:
                    raise ProtocolError(
                        f"unknown frame type {frame['type']!r}", code="unknown_type"
                    )
                await handler(conn, frame)
            except REFUSALS as exc:
                # newline framing is still intact after a refused line,
                # so answer and keep the connection
                echo = rid if isinstance(rid, str) else None
                await self._refuse(conn, exc, echo)

    async def _on_hello(self, conn: Conn, frame: Dict[str, Any]) -> None:
        # a redundant hello is harmless; answer it again
        await self._send(conn, await self._hello())

    async def _on_shutdown(self, conn: Conn, frame: Dict[str, Any]) -> None:
        await self._send(conn, self._bye_frame())
        self.begin_drain()

    async def _on_stats(self, conn: Conn, frame: Dict[str, Any]) -> None:
        await self._send(conn, self.stats_frame())

    # ------------------------------------------------------------------
    # checks the handlers share; each raises the refusal
    # ------------------------------------------------------------------
    @staticmethod
    def _frame_id(frame: Dict[str, Any], required: bool = False) -> Optional[str]:
        """The frame's ``id``: a string, or None when absent and not ``required``.

        A ``subscribe`` id must also be non-empty: its update frames
        are stamped with it.
        """
        rid = frame.get("id")
        if rid is None and not required:
            return None
        if isinstance(rid, str) and (rid or frame["type"] != "subscribe"):
            return rid
        raise ProtocolError(
            f"{frame['type']} needs an 'id' string"
            if required else "'id' must be a string",
            code="bad_request",
        )

    @staticmethod
    def _check_id_free(conn: Conn, rid: Optional[str]) -> None:
        """Refuse a request id still in flight on this connection."""
        if rid is not None and rid in conn.jobs:
            raise ProtocolError(
                f"request id {rid!r} is already in flight on this connection",
                code="bad_request",
            )

    def _check_not_draining(self) -> None:
        """Refuse new work once a drain has begun."""
        if self._draining:
            raise ServerError(f"{self.role} is draining", code="draining")

    @staticmethod
    def _check_deadline(request, when: str) -> None:
        """Refuse a request whose ``deadline_s`` budget is already spent:
        nobody is waiting for its answer any more."""
        if request.deadline is not None and request.deadline.expired:
            raise ServerError(
                f"request deadline expired {when}", code="deadline_exceeded"
            )

    # ------------------------------------------------------------------
    # writing and closing
    # ------------------------------------------------------------------
    async def _send(self, conn: Conn, frame: Dict[str, Any]) -> None:
        if conn.closed:
            return
        data = protocol.encode_frame(frame)
        try:
            async with conn.write_lock:
                conn.writer.write(data)
                # backpressure point: a slow client stalls only this
                # coroutine, never the loop or other connections
                await conn.writer.drain()
            self.stats.inc("frames.out")
        except (ConnectionError, OSError):
            conn.closed = True

    async def _refuse(
        self,
        conn: Conn,
        exc,
        rid: Optional[str] = None,
        tally: Optional[str] = "rejects",
    ) -> None:
        """Answer a refused request with ``exc``'s error frame, echoing ``rid``.

        ``exc`` is one of :data:`REFUSALS`; a :class:`ServerError` keeps
        the retriable flag and exit code it carries (a backend's relayed
        error), the others take their code's. Counted as
        ``<tally>.<code>`` unless ``tally`` is None.
        """
        if tally is not None:
            self.stats.inc(f"{tally}.{exc.code}")
        frame = protocol.error_frame(
            exc.code, str(exc), rid, getattr(exc, "retry_after_s", None)
        )
        if isinstance(exc, ServerError):
            frame.update(retriable=exc.retriable, exit_code=exc.exit_code)
        self.stats.inc("errors.sent")
        await self._send(conn, frame)

    async def _oversized(self, conn: Conn) -> None:
        await self._refuse(
            conn,
            ProtocolError(
                f"frame exceeds max_frame_bytes={self.config.max_frame_bytes}",
                code="frame_too_large",
            ),
        )
        await self._close_conn(conn)

    async def _close_conn(self, conn: Conn) -> None:
        self._conns.discard(conn)
        if conn.closed:
            return
        conn.closed = True
        with contextlib.suppress(ConnectionError, OSError):
            conn.writer.close()


class EndpointThread:
    """Run an endpoint's event loop on a background daemon thread.

    The in-process harness of the test suite and the benchmarks:
    :meth:`start` returns once the port is bound (or raises if binding
    failed), :meth:`stop` drains the endpoint and joins the thread.
    Work is only ever scheduled on the loop while the endpoint runs, so
    :meth:`stop` is safe after a failed :meth:`start` and after the
    endpoint drained on its own.
    """

    def __init__(self, endpoint, name: str) -> None:
        self.endpoint = endpoint
        self._ready = threading.Event()
        self._lock = threading.Lock()
        #: the running loop; None before the endpoint starts and once
        #: it finished (asyncio.run closes the loop right after)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self) -> None:
        async def _main() -> None:
            with self._lock:
                self._loop = asyncio.get_running_loop()
            try:
                await self.endpoint.start()
                self._ready.set()
                await self.endpoint.serve_until_drained()
            finally:
                with self._lock:
                    self._loop = None

        try:
            asyncio.run(_main())
        except Exception as exc:
            self._error = exc
            log.exception("%s stopped with an error", self._thread.name)
        finally:
            self._ready.set()  # unblock start() even on bind failure

    def start(self, timeout_s: float = 10.0) -> "EndpointThread":
        name = self._thread.name
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError(f"{name} thread failed to start in time")
        if self.endpoint.port is None:
            raise RuntimeError(f"{name} failed to bind: {self._error}")
        return self

    @property
    def port(self) -> int:
        assert self.endpoint.port is not None
        return self.endpoint.port

    def _call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` on the endpoint's loop if it is still running."""
        with self._lock:
            if self._loop is not None:
                self._loop.call_soon_threadsafe(fn)

    def stop(self, timeout_s: float = 30.0) -> None:
        self._call_soon(self.endpoint.begin_drain)
        self._thread.join(timeout_s)
