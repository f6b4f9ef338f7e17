"""Synchronous ``repro-wire/1`` client with retry and backoff.

:class:`SolveClient` is the blocking counterpart of the asyncio
server: plain sockets, one request at a time, used by the ``repro
client`` CLI verbs, the test suite, and the latency benchmark. Two
failure classes retry automatically with exponential backoff:

* **connection failures** (refused, reset, server restarting) --
  the client reconnects and replays the handshake;
* **retriable error frames** (``rate_limited``, ``server_busy``,
  ``draining``, ``deadline_exceeded``) -- the client sleeps
  ``retry_after_s`` when the frame names one (clamped to
  ``backoff_max_s``), else the current backoff, and resends the
  request.

Non-retriable error frames raise :class:`~repro.errors.ServerError`
immediately. Every retry sleep is multiplied by seeded jitter in
``[0.5, 1.0)`` so a fleet of clients knocked over by the same fault
does not thunder back in lockstep.

Retried ``solve`` frames are *idempotent at the server*: each carries
a client-generated ``request_id`` that is reused verbatim across
resends, so a retry after an ambiguous failure (reply lost on the
wire) joins or replays the original execution instead of computing it
again -- see docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import contextlib
import random
import socket
import time
import uuid
from typing import Any, Dict, Optional

from ..errors import ProtocolError, ServerError
from ..log import get_logger
from . import protocol

__all__ = ["SolveClient"]

log = get_logger("server.client")


def _parse_address(addr) -> "tuple":
    """Normalise ``"host:port"`` / ``(host, port)`` into a tuple."""
    if isinstance(addr, (tuple, list)) and len(addr) == 2:
        return str(addr[0]), int(addr[1])
    if isinstance(addr, str):
        host, sep, port = addr.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"address {addr!r} is not of the form host:port"
            )
        return host or "127.0.0.1", int(port)
    raise TypeError(f"cannot parse {addr!r} as a server address")


def _config_spec(config, config_kwargs) -> Dict[str, Any]:
    """One request's config: a dict or keyword options, not both."""
    if config is not None and config_kwargs:
        raise ValueError("pass either a config dict or keyword options, not both")
    return dict(config) if config is not None else dict(config_kwargs)


class SolveClient:
    """Blocking client for one solve server -- or a rotation of several.

    Parameters
    ----------
    host / port:
        Server address (``repro serve`` defaults). Ignored when
        ``addresses`` is given.
    addresses:
        Optional list of server addresses (``"host:port"`` strings or
        ``(host, port)`` tuples). The client talks to one at a time
        and rotates to the next on a connection failure or a
        ``draining`` reject -- the building block the cluster router's
        clients and ``repro client --addr`` use. A single-entry list
        behaves exactly like ``host``/``port``.
    timeout_s:
        Socket timeout applied to every read: a solve must answer
        within this budget (set it above your largest expected solve).
    retries:
        How many times a retriable failure (connection error or
        retriable error frame) is retried before giving up.
    backoff_s / backoff_max_s:
        Initial and maximum sleep between retries; doubles each
        attempt, and a server-supplied ``retry_after_s`` overrides it
        (clamped to ``backoff_max_s`` so a confused server cannot
        park the client for minutes).
    jitter_seed:
        Seeds the backoff jitter stream (every retry sleep is scaled
        by a draw from ``[0.5, 1.0)``). None seeds from the OS --
        pass an int for reproducible retry timing in tests.

    Usable as a context manager; :meth:`connect` is implicit on first
    use.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        timeout_s: float = 120.0,
        retries: int = 5,
        backoff_s: float = 0.2,
        backoff_max_s: float = 3.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        addresses: Optional[list] = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        if addresses:
            self.addresses = [_parse_address(a) for a in addresses]
        else:
            self.addresses = [(host, int(port))]
        self._addr_index = 0
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.max_frame_bytes = max_frame_bytes
        self.server_hello: Optional[Dict[str, Any]] = None
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._seq = 0
        self._rng = random.Random(jitter_seed)
        #: per-instance prefix keeping request_ids globally unique even
        #: when several clients share one server's dedup table
        self._client_tag = uuid.uuid4().hex[:10]

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def host(self) -> str:
        """Host of the address currently targeted."""
        return self.addresses[self._addr_index][0]

    @property
    def port(self) -> int:
        """Port of the address currently targeted."""
        return self.addresses[self._addr_index][1]

    def _rotate(self) -> bool:
        """Advance to the next configured address; True when it moved."""
        if len(self.addresses) < 2:
            return False
        self.close()
        self._addr_index = (self._addr_index + 1) % len(self.addresses)
        log.debug("rotated to %s:%d", self.host, self.port)
        return True

    def connect(self) -> Dict[str, Any]:
        """Connect and complete the handshake; returns the server's hello.

        Retried like any request: with several addresses configured,
        each failed attempt rotates to the next one before backing off,
        so a single dead server never exhausts the retry budget.
        """
        return self._retrying(lambda remaining: self._open())

    def _open(self) -> Dict[str, Any]:
        """One connection attempt and handshake (no-op when connected)."""
        if self._sock is not None:
            return self.server_hello
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            self._file = self._sock.makefile("rb")
            self._send(protocol.client_hello("repro-client"))
            hello = protocol.check_hello(self._recv())
        except BaseException:
            self.close()
            raise
        self.server_hello = hello
        return hello

    def close(self) -> None:
        for handle in (self._file, self._sock):
            if handle is not None:
                with contextlib.suppress(OSError):
                    handle.close()
        self._file = self._sock = None
        self.server_hello = None

    def __enter__(self) -> "SolveClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # wire primitives
    # ------------------------------------------------------------------
    def _send(self, frame: Dict[str, Any]) -> None:
        assert self._sock is not None
        data = protocol.encode_frame(frame)
        if len(data) > self.max_frame_bytes:
            raise ProtocolError(
                f"frame of {len(data)} B exceeds the "
                f"{self.max_frame_bytes} B limit",
                code="frame_too_large",
            )
        self._sock.sendall(data)

    def _recv(self, expect_id: Optional[str] = None) -> Dict[str, Any]:
        """Read the next frame addressed to us.

        With ``expect_id`` set, frames whose ``id`` differs are
        *skipped*, not errors: a flaky network may deliver a frame
        twice (the chaos proxy does so on purpose), and a duplicated
        reply to an earlier request must not be mistaken for the
        answer to this one.
        """
        assert self._file is not None
        while True:
            line = self._file.readline(self.max_frame_bytes + 1)
            if not line:
                raise ConnectionError("server closed the connection")
            if not line.endswith(b"\n"):
                if len(line) > self.max_frame_bytes:
                    raise ProtocolError(
                        "server sent an oversized frame", code="frame_too_large"
                    )
                # a partial line at EOF: the connection died mid-frame
                # (wire cut / truncation); retriable, not a protocol bug
                raise ConnectionError("connection lost mid-frame")
            frame = protocol.decode_frame(line)
            if expect_id is not None and frame.get("id") != expect_id:
                log.debug(
                    "skipping stale frame id=%r (awaiting %r)",
                    frame.get("id"), expect_id,
                )
                continue
            if frame.get("type") == "error":
                raise protocol.error_from_frame(frame)
            return frame

    def _jitter(self, delay: float) -> float:
        """Scale a retry sleep by a seeded draw from ``[0.5, 1.0)``."""
        return delay * (0.5 + 0.5 * self._rng.random())

    def _request(
        self,
        ftype: str,
        reply: str,
        deadline_s: Optional[float] = None,
        key: bool = False,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Send one request, retrying retriable failures; its reply frame.

        Every verb but :meth:`subscribe` comes through here. The frame
        gets a fresh ``id`` unless ``fields`` names one (``status`` and
        ``cancel`` ask about an earlier solve's id; ``stats`` and
        ``shutdown`` pass None, as their replies carry none). ``key``
        adds the idempotency ``request_id`` that every retry of this
        call reuses verbatim, so resends dedup server-side instead of
        executing twice. Fields that are None are left out. A reply of
        another type than ``reply`` raises
        :class:`~repro.errors.ProtocolError`.

        ``deadline_s`` bounds the whole exchange, retries included:
        each attempt ships the *remaining* budget as the frame's
        ``deadline_s`` so every hop downstream knows how long the
        answer is still wanted, and once the budget is spent the
        client fails locally instead of sending a doomed request.
        """
        self._seq += 1
        frame = {
            "type": ftype,
            "id": f"req-{self._seq}",
            "request_id": f"{self._client_tag}-{self._seq}" if key else None,
            **fields,
        }
        frame = {k: v for k, v in frame.items() if v is not None}

        def exchange(remaining: Optional[float]) -> Dict[str, Any]:
            if remaining is not None:
                frame["deadline_s"] = round(remaining, 6)
            self._open()
            self._send(frame)
            answer = self._recv(expect_id=frame.get("id"))
            if answer.get("type") != reply:
                raise ProtocolError(
                    f"expected a {reply} frame, got {answer.get('type')!r}"
                )
            return answer

        deadline_at = None
        if deadline_s is not None:
            deadline_at = time.perf_counter() + float(deadline_s)
        return self._retrying(exchange, deadline_at)

    def _retrying(self, exchange, deadline_at: Optional[float] = None):
        """Run ``exchange(remaining_budget)`` under the retry policy.

        Connection failures and ``draining`` rejects rotate to the
        next configured address (when there is one) before retrying;
        other retriable error frames (``server_busy``,
        ``rate_limited``) stay on the same server, which asked for
        patience rather than a different replica. ``deadline_at`` (a
        ``time.perf_counter()`` instant) caps the whole loop.
        """
        backoff = self.backoff_s
        for attempt in range(self.retries + 1):
            remaining = None
            if deadline_at is not None:
                remaining = deadline_at - time.perf_counter()
                if remaining <= 0:
                    raise ServerError(
                        "client deadline budget exhausted before "
                        f"attempt {attempt + 1}",
                        code="deadline_exceeded",
                    )
            try:
                return exchange(remaining)
            except (ConnectionError, socket.timeout, OSError) as exc:
                # refused, reset, or severed mid-frame: all retriable
                self.close()
                if attempt >= self.retries:
                    targets = ", ".join(f"{h}:{p}" for h, p in self.addresses)
                    raise ServerError(
                        f"cannot connect to {targets}: {exc}",
                        code="unreachable",
                        retriable=True,
                    ) from exc
                self._rotate()
                delay = self._jitter(backoff)
            except ServerError as exc:
                if not exc.retriable or attempt >= self.retries:
                    raise
                retry_after = getattr(exc, "retry_after_s", None)
                if retry_after is not None:
                    # trust but bound: a server hint never parks the
                    # client longer than its own configured ceiling.
                    # No jitter here -- the hint says when capacity
                    # exists; retrying *earlier* would only burn an
                    # attempt on a guaranteed second reject
                    delay = min(float(retry_after), self.backoff_max_s)
                else:
                    delay = self._jitter(backoff)
                if exc.code == "draining" and self._rotate():
                    delay = 0.0
            if deadline_at is not None:
                delay = min(delay, max(deadline_at - time.perf_counter(), 0.0))
            log.debug(
                "request retrying in %.2fs (attempt %d/%d)",
                delay, attempt + 1, self.retries,
            )
            time.sleep(delay)
            backoff = min(backoff * 2, self.backoff_max_s)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def solve(
        self,
        graph,
        config: Optional[Dict[str, Any]] = None,
        problem: Optional[str] = None,
        timeout_s: Optional[float] = None,
        label: str = "",
        max_report: Optional[int] = None,
        checkpoint: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
        **config_kwargs: Any,
    ) -> Dict[str, Any]:
        """Solve one graph remotely; returns the ``result`` frame.

        ``graph`` is a :class:`~repro.graph.csr.CSRGraph` (shipped
        gzip-compressed inline) or a string the *server* resolves (a
        suite dataset name or a server-side path). ``config`` /
        ``config_kwargs`` mirror
        :meth:`repro.service.SolveService.submit_graph`. ``problem``
        selects the problem kind (``"max-clique"``,
        ``"k-clique-count"`` -- pair it with ``k=...`` --
        ``"maximal-enum"``); it is checked against the kinds the
        server's hello advertised, so asking for one the server lacks
        raises a non-retriable ``unsupported_problem``
        :class:`~repro.errors.ServerError` without a round trip.

        ``checkpoint`` optionally ships a serialised
        ``repro-checkpoint/1`` dict for the server to resume the
        windowed max-clique search from (the cluster router's failover
        path; also handy for tests).

        ``deadline_s`` is an end-to-end budget in seconds for the
        whole exchange, retries included. The remaining budget rides
        on the wire as ``deadline_s`` (re-computed per attempt), so
        the router, server queue, and solver all stop working on the
        request the moment nobody is waiting for the answer; a spent
        budget raises a retriable ``deadline_exceeded``
        :class:`~repro.errors.ServerError`.

        The returned frame's ``record`` is the JSON job record,
        ``cliques`` the clique membership rows (absent for counting
        kinds), and ``exit_code`` the suggested CLI status. A
        non-``ok`` record does *not* raise -- callers inspect the
        record just as batch callers do.
        """
        spec = _config_spec(config, config_kwargs)
        if problem is not None:
            hello = self.connect()
            advertised = hello.get("problems")
            if isinstance(advertised, list) and problem not in advertised:
                raise ServerError(
                    f"server does not solve problem kind {problem!r} "
                    f"(advertised: {advertised})",
                    code="unsupported_problem",
                )
        return self._request(
            "solve",
            "result",
            deadline_s,
            key=True,
            graph=protocol.encode_graph(graph),
            problem=problem,
            config=spec or None,
            timeout_s=timeout_s,
            label=label or None,
            max_report=max_report,
            checkpoint=checkpoint,
        )

    # ------------------------------------------------------------------
    # streaming sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        graph,
        session: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        deadline_s: Optional[float] = None,
        **config_kwargs: Any,
    ) -> Dict[str, Any]:
        """Open a resident graph session; returns the ``session-opened`` frame.

        The session id is client-chosen (the cluster router pins the
        session to a backend by hashing it); one is generated when not
        given -- read it back from the returned frame's ``session``.
        The open carries a ``request_id``, so a retry after an
        ambiguous failure re-attaches to the session the first
        delivery created instead of failing with ``session_exists``.
        """
        spec = _config_spec(config, config_kwargs)
        hello = self.connect()
        if not hello.get("streaming"):
            raise ServerError(
                "server does not speak streaming sessions",
                code="unsupported_protocol",
            )
        if session is None:
            # named after the request_id this call is about to stamp
            session = f"sess-{self._client_tag}-{self._seq + 1}"
        return self._request(
            "open-session",
            "session-opened",
            deadline_s,
            key=True,
            session=session,
            graph=protocol.encode_graph(graph),
            config=spec or None,
        )

    def mutate(
        self,
        session: str,
        insert=(),
        delete=(),
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Apply one edge mutation batch; returns the ``mutated`` frame.

        Each call stamps a fresh ``request_id`` reused verbatim by
        every retry, so resends replay the recorded epoch view instead
        of mutating twice (the session-level idempotency the chaos
        suite exercises).
        """
        return self._request(
            "mutate",
            "mutated",
            deadline_s,
            key=True,
            session=session,
            insert=[[int(u), int(v)] for u, v in insert] or None,
            delete=[[int(u), int(v)] for u, v in delete] or None,
        )

    def close_session(self, session: str) -> Dict[str, Any]:
        """Close a session; returns the ``session-closed`` frame."""
        return self._request("close-session", "session-closed", session=session)

    def subscribe(self, session: str):
        """Generator of epoch-stamped ``update`` frames for one session.

        The first yielded frame is the current-state snapshot; each
        later one reflects a newer epoch (delivery is monotone per
        subscriber). Ends after a frame with ``closed: true`` (the
        session was closed server-side).

        Subscribe on a **dedicated client instance**: updates arrive
        unsolicited, and any other request's reply matching on this
        connection would discard them. The generator blocks in the
        socket read between updates (bounded by ``timeout_s``).
        """
        self.connect()
        self._seq += 1
        sub_id = f"req-{self._seq}"
        self._send({"type": "subscribe", "id": sub_id, "session": session})
        while True:
            frame = self._recv(expect_id=sub_id)
            if frame.get("type") != "update":
                raise ProtocolError(
                    f"expected an update frame, got {frame.get('type')!r}"
                )
            yield frame
            if frame.get("closed"):
                return

    def stats(self) -> Dict[str, Any]:
        """The server's ``stats`` frame (server gauges + service snapshot)."""
        return self._request("stats", "stats", id=None)

    def status(self, request_id: str) -> Dict[str, Any]:
        return self._request("status", "status", id=request_id)

    def cancel(self, request_id: str) -> Dict[str, Any]:
        return self._request("cancel", "status", id=request_id)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain; returns its ``bye`` frame."""
        return self._request("shutdown", "bye", id=None)
