"""One router-side connection to one backend SolveServer.

A :class:`BackendLink` owns a single ``repro-wire/1`` client
connection and multiplexes the router's concurrent requests over it: a
dedicated reader task dispatches every incoming frame to the awaiting
:meth:`request` call, matched by ``(id, frame type)`` -- the pair is
needed because one in-flight solve id legitimately answers ``status``,
``checkpoint``, *and* ``result`` frames. Frames without an id
(``stats`` replies, ``bye``) match the oldest request that expects
that type.

The link is the router's failure detector for live traffic: when the
connection drops -- EOF, reset, or an aborted transport from a
SIGKILL'd backend -- every pending :meth:`request` future fails with
:class:`BackendLostError` and the ``on_lost`` callback fires. The
router's per-solve driver catches that error and re-routes the solve
(with its last shipped checkpoint) to the next backend in the ring
preference list; the health probe loop keeps calling
:meth:`ensure_connected` until the backend comes back.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from ..errors import ProtocolError, ServerError
from ..log import get_logger
from ..server import protocol

__all__ = ["BackendLink", "BackendLostError"]

log = get_logger("cluster.backend")


class BackendLostError(ConnectionError):
    """The backend connection dropped before this request was answered."""


class BackendLink:
    """A multiplexing ``repro-wire/1`` client connection to one backend."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        connect_timeout_s: float = 5.0,
        on_lost=None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.connect_timeout_s = connect_timeout_s
        self.on_lost = on_lost
        #: the backend's hello frame (capability advert), once connected
        self.hello: Optional[Dict[str, Any]] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._connect_lock = asyncio.Lock()
        self._pending: Dict[Tuple[str, str], asyncio.Future] = {}
        self._anon: Dict[str, Deque[asyncio.Future]] = {}
        self._closing = False

    @property
    def connected(self) -> bool:
        return self._writer is not None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    async def ensure_connected(self) -> Dict[str, Any]:
        """Connect and handshake if needed; returns the backend hello.

        Raises :class:`BackendLostError` when the backend is
        unreachable or fails the handshake -- the probe loop turns
        that into a health failure.
        """
        async with self._connect_lock:
            if self._writer is not None:
                assert self.hello is not None
                return self.hello
            reader, writer, hello = await self.dial(self.connect_timeout_s)
            self._reader, self._writer = reader, writer
            self.hello = hello
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )
            log.info(
                "link up: %s (%s)", self.name, hello.get("server", "?")
            )
            return hello

    async def dial(self, timeout_s: float):
        """Open a fresh connection and exchange hellos.

        Returns ``(reader, writer, hello)``; each step gets
        ``timeout_s``. Raises :class:`BackendLostError` when the backend
        is unreachable, refuses, or fails the handshake. The router's
        subscription pipes dial their own connection this way too.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    self.host, self.port, limit=self.max_frame_bytes
                ),
                timeout_s,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise BackendLostError(
                f"backend {self.name} unreachable: {exc}"
            ) from exc
        try:
            writer.write(protocol.encode_frame(protocol.client_hello("repro-router")))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout_s)
            if not line:
                raise BackendLostError(
                    f"backend {self.name} closed during handshake"
                )
            hello = protocol.check_hello(protocol.decode_frame(line))
        except (OSError, asyncio.TimeoutError, ProtocolError, ServerError) as exc:
            writer.close()
            raise BackendLostError(
                f"backend {self.name} handshake failed: {exc}"
            ) from exc
        return reader, writer, hello

    async def close(self) -> None:
        """Close the connection deliberately (router drain, not a fault)."""
        self._closing = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
            self._reader_task = None
        self._drop_connection(BackendLostError(f"link to {self.name} closed"))

    # ------------------------------------------------------------------
    # request/reply multiplexing
    # ------------------------------------------------------------------
    async def request(
        self,
        frame: Dict[str, Any],
        reply_types: Tuple[str, ...],
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Send one frame and await its reply.

        ``reply_types`` names the frame type(s) that answer this
        request (e.g. ``("result",)`` for a solve). An ``error`` frame
        carrying the same id -- or, for id-less requests, an unclaimed
        one -- resolves the future too and is raised as a
        :class:`~repro.errors.ServerError`. Raises
        :class:`BackendLostError` if the connection drops first.
        """
        await self.ensure_connected()
        assert self._writer is not None
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        fid = frame.get("id")
        keys = []
        if isinstance(fid, str):
            for rtype in reply_types:
                key = (fid, rtype)
                if key in self._pending:
                    raise ProtocolError(
                        f"request id {fid!r} already awaits a "
                        f"{rtype} frame on link {self.name}"
                    )
                keys.append(key)
            for key in keys:
                self._pending[key] = fut
        else:
            for rtype in (*reply_types, "error"):
                self._anon.setdefault(rtype, deque()).append(fut)
        try:
            data = protocol.encode_frame(frame)
            self._writer.write(data)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._drop_connection(
                BackendLostError(f"write to {self.name} failed: {exc}")
            )
        try:
            reply = await asyncio.wait_for(asyncio.shield(fut), timeout_s)
        finally:
            for key in keys:
                if self._pending.get(key) is fut:
                    del self._pending[key]
            for queue in self._anon.values():
                with contextlib.suppress(ValueError):
                    queue.remove(fut)
        if reply.get("type") == "error":
            raise protocol.error_from_frame(reply)
        return reply

    # ------------------------------------------------------------------
    # reader task
    # ------------------------------------------------------------------
    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        why: Exception
        try:
            while True:
                line = await reader.readline()
                if not line:
                    why = BackendLostError(
                        f"backend {self.name} closed the connection"
                    )
                    break
                if len(line) > self.max_frame_bytes:
                    why = BackendLostError(
                        f"backend {self.name} sent an oversized frame"
                    )
                    break
                try:
                    frame = protocol.decode_frame(line)
                except ProtocolError:
                    log.warning("undecodable frame from %s dropped", self.name)
                    continue
                self._dispatch(frame)
        except ValueError:
            why = BackendLostError(
                f"backend {self.name} overflowed the frame buffer"
            )
        except (ConnectionError, OSError) as exc:
            why = BackendLostError(f"backend {self.name} dropped: {exc}")
        except asyncio.CancelledError:
            raise
        self._reader_task = None
        self._drop_connection(why)

    def _dispatch(self, frame: Dict[str, Any]) -> None:
        ftype = frame.get("type")
        fid = frame.get("id")
        fut: Optional[asyncio.Future] = None
        if isinstance(fid, str):
            if ftype == "error":
                # an error answers whichever request used this id
                for (pid, _), candidate in list(self._pending.items()):
                    if pid == fid:
                        fut = candidate
                        break
            else:
                fut = self._pending.get((fid, str(ftype)))
        else:
            queue = self._anon.get(str(ftype))
            while queue:
                candidate = queue.popleft()
                if not candidate.done():
                    fut = candidate
                    break
        if fut is None or fut.done():
            log.debug(
                "unmatched %s frame (id=%r) from %s", ftype, fid, self.name
            )
            return
        fut.set_result(frame)

    # ------------------------------------------------------------------
    # failure propagation
    # ------------------------------------------------------------------
    def _drop_connection(self, why: BackendLostError) -> None:
        """Tear down the socket and fail every pending request."""
        writer, self._writer, self._reader = self._writer, None, None
        self.hello = None
        if writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
        pending = set(self._pending.values())
        self._pending.clear()
        for queue in self._anon.values():
            pending.update(queue)
        self._anon.clear()
        for fut in pending:
            if not fut.done():
                fut.set_exception(why)
        if writer is not None and not self._closing:
            log.warning("link lost: %s (%s)", self.name, why)
            if self.on_lost is not None:
                self.on_lost(self)
