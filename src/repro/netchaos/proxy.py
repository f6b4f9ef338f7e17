"""The seeded chaos proxy: a wire-fault injector for ``repro-wire/1``.

:class:`ChaosProxy` is an asyncio TCP proxy that sits between any
client and any ``repro serve`` / ``repro router`` endpoint and damages
the byte stream exactly as its :class:`~repro.netchaos.plan.NetFaultPlan`
dictates -- nothing else. It never parses frame *contents*; it only
splits the stream on newlines (the ``repro-wire/1`` frame boundary),
counts frames per connection and direction, and applies the planned
fault when a stream address matches. Connections are numbered in
accept order, so the same plan against the same traffic damages the
same bytes -- the determinism the parity harness relies on.

The proxy is intentionally protocol-dumb: it can truncate a frame in
the middle of a JSON object or cut the socket between two bytes of a
base64 graph payload, which is precisely the class of failure the
retry-safety machinery (``request_id`` dedup, ``deadline_s`` budgets,
jittered backoff) must survive. See docs/ROBUSTNESS.md for the fault
model and ``repro chaos-proxy`` for the CLI front-end.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Dict, Optional, Tuple

from ..log import get_logger
from ..server import protocol
from ..server.endpoint import EndpointThread, Listener
from ..trace import CounterTracer
from .plan import (
    KIND_DELAY,
    KIND_DUPLICATE,
    KIND_STALL,
    KIND_TRUNCATE,
    DIR_C2S,
    DIR_S2C,
    NetFaultPlan,
)

__all__ = ["ChaosProxy", "ChaosProxyThread"]

log = get_logger("netchaos.proxy")


class _ProxyConn:
    """One proxied connection: both transports plus its ordinal."""

    def __init__(self, ordinal: int) -> None:
        self.ordinal = ordinal
        self.writers: list = []
        self.closed = False

    def abort(self) -> None:
        """RST both directions (mid-frame cut / partition)."""
        self.closed = True
        for writer in self.writers:
            with contextlib.suppress(Exception):
                writer.transport.abort()

    def close(self) -> None:
        """FIN both directions (clean truncation close)."""
        self.closed = True
        for writer in self.writers:
            with contextlib.suppress(Exception):
                writer.close()


class ChaosProxy(Listener):
    """Deterministic fault-injecting TCP proxy for one upstream.

    Runs on the :class:`~repro.server.endpoint.Listener` lifecycle the
    server and router share: :meth:`run` serves until SIGTERM/SIGINT,
    and a drain closes the listener, stops the partition watchdog and
    aborts every proxied connection.

    Parameters
    ----------
    upstream:
        ``(host, port)`` of the endpoint to front.
    plan:
        The :class:`NetFaultPlan` to apply; an empty plan makes the
        proxy a transparent byte pipe (the pass-through parity case).
    host / port:
        Listen address; port 0 picks an ephemeral port.
    max_frame_bytes:
        Stream-reader line limit; must be at least the endpoint's
        frame limit or the proxy would fault traffic the plan did not.
    """

    role = "chaos proxy"

    def __init__(
        self,
        upstream: Tuple[str, int],
        plan: Optional[NetFaultPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        super().__init__()
        self.upstream = (str(upstream[0]), int(upstream[1]))
        self.plan = plan if plan is not None else NetFaultPlan()
        self.host = host
        self.listen_port = port
        self.max_frame_bytes = max_frame_bytes
        self._tally = CounterTracer()
        self._t0: float = 0.0
        self._watchdog: Optional[asyncio.Task] = None
        self._next_conn = 0

    @property
    def counters(self) -> Dict[str, int]:
        """Injected-fault and traffic tally (``injected.<kind>``, ...)."""
        return self._tally.counters

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _address(self) -> Tuple[str, int, int]:
        return self.host, self.listen_port, self.max_frame_bytes

    def _started(self) -> None:
        assert self._loop is not None
        self._t0 = self._loop.time()
        if self.plan.partitions:
            self._watchdog = self._loop.create_task(self._watch_partitions())
        log.info(
            "relaying to %s:%d (%d event(s), %d partition(s))",
            self.upstream[0], self.upstream[1],
            len(self.plan), len(self.plan.partitions),
        )

    async def _drain_body(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()

    async def _close_conn(self, conn: _ProxyConn) -> None:
        self._conns.discard(conn)
        conn.abort()

    @property
    def elapsed_s(self) -> float:
        assert self._loop is not None
        return self._loop.time() - self._t0

    def _partitioned(self) -> bool:
        return self.plan.partition_at(self.elapsed_s) is not None

    async def _watch_partitions(self) -> None:
        """Sever live connections the instant each partition opens."""
        for p in self.plan.partitions:
            delay = self._t0 + p.start_s - self._loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            dropped = 0
            for conn in list(self._conns):
                if not conn.closed:
                    conn.abort()
                    dropped += 1
            self._tally.counter("partitions.opened")
            self._tally.counter("partitions.dropped_conns", dropped)
            log.info(
                "partition open for %.2fs (%d conn(s) severed)",
                p.duration_s, dropped,
            )
            remaining = self._t0 + p.end_s - self._loop.time()
            if remaining > 0:
                await asyncio.sleep(remaining)

    # ------------------------------------------------------------------
    # proxying
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, creader: asyncio.StreamReader, cwriter: asyncio.StreamWriter
    ) -> None:
        ordinal = self._next_conn
        self._next_conn += 1
        self._tally.counter("conns.total")
        conn = _ProxyConn(ordinal)
        conn.writers.append(cwriter)
        if self._partitioned():
            self._tally.counter("partitions.refused_conns")
            conn.abort()
            return
        try:
            ureader, uwriter = await asyncio.open_connection(
                *self.upstream, limit=self.max_frame_bytes
            )
        except OSError:
            self._tally.counter("conns.upstream_refused")
            conn.abort()
            return
        conn.writers.append(uwriter)
        self._conns.add(conn)
        try:
            await asyncio.gather(
                self._pump(conn, creader, uwriter, DIR_C2S),
                self._pump(conn, ureader, cwriter, DIR_S2C),
            )
        finally:
            conn.close()
            self._conns.discard(conn)

    async def _pump(
        self,
        conn: _ProxyConn,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        direction: str,
    ) -> None:
        """Forward one direction frame by frame, applying planned faults."""
        frame_idx = 0
        try:
            while not conn.closed:
                try:
                    line = await reader.readline()
                except ValueError:
                    # oversized frame relative to our own limit; the
                    # plan cannot address it -- sever, like a cut
                    self._tally.counter("conns.oversized")
                    conn.abort()
                    return
                if not line:
                    # clean EOF: forward the half-close downstream
                    with contextlib.suppress(Exception):
                        if writer.can_write_eof():
                            writer.write_eof()
                    return
                if self._partitioned():
                    self._tally.counter("partitions.dropped_frames")
                    conn.abort()
                    return
                event = self.plan.event_for(conn.ordinal, direction, frame_idx)
                frame_idx += 1
                self._tally.counter(f"frames.{direction}")
                if event is None:
                    writer.write(line)
                    await writer.drain()
                    continue
                self._tally.counter(f"injected.{event.kind}")
                self._tally.counter("injected.total")
                log.debug(
                    "conn %d %s frame %d: injecting %s",
                    conn.ordinal, direction, frame_idx - 1, event.kind,
                )
                if event.kind == KIND_DELAY:
                    await asyncio.sleep(event.delay_s)
                    writer.write(line)
                    await writer.drain()
                elif event.kind == KIND_DUPLICATE:
                    writer.write(line + line)
                    await writer.drain()
                elif event.kind == KIND_STALL:
                    split = max(1, min(event.at_byte, len(line) - 1))
                    writer.write(line[:split])
                    await writer.drain()
                    await asyncio.sleep(event.delay_s)
                    writer.write(line[split:])
                    await writer.drain()
                elif event.kind == KIND_TRUNCATE:
                    split = max(0, min(event.at_byte, len(line) - 1))
                    if split:
                        writer.write(line[:split])
                        await writer.drain()
                    conn.close()
                    return
                else:  # KIND_CUT
                    split = max(0, min(event.at_byte, len(line) - 1))
                    if split:
                        writer.write(line[:split])
                        await writer.drain()
                    conn.abort()
                    return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            conn.abort()


class ChaosProxyThread(EndpointThread):
    """Run a :class:`ChaosProxy` on a background thread (tests, benches).

    The same harness as :class:`~repro.server.server.ServerThread`:
    starts the proxy's event loop on a daemon thread, waits for the
    port, stops on demand.

    >>> proxy = ChaosProxyThread(("127.0.0.1", server.port), plan)
    >>> proxy.start()
    >>> client = SolveClient(port=proxy.port)
    ...
    >>> proxy.stop()
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        plan: Optional[NetFaultPlan] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self.proxy = ChaosProxy(
            upstream, plan, port=0, max_frame_bytes=max_frame_bytes
        )
        super().__init__(self.proxy, "chaos-proxy")

    @property
    def counters(self) -> Dict[str, int]:
        return self.proxy.counters

    def stop(self, timeout_s: float = 10.0) -> None:
        super().stop(timeout_s)
