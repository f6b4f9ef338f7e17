"""Shared fixtures for the network server tests.

Every test server binds an ephemeral port (``ServerConfig(port=0)``)
on a background :class:`ServerThread`, so the suite is parallel-safe
and never collides with a real ``repro serve``. ``make_endpoints``
builds a server and a router side by side, for the connection-layer
tests both endpoints must pass. ``RawConn`` is a
deliberately low-level socket wrapper for the protocol-abuse tests:
it can send partial frames, garbage bytes, and pipelined requests the
well-behaved :class:`SolveClient` never would.
"""

import base64
import gzip
import json
import socket

import pytest

from repro.cluster import RouterConfig, RouterThread
from repro.graph import generators as gen
from repro.server import ServerConfig, ServerThread, SolveClient
from repro.server import protocol
from repro.service import SolveService

#: a triangle plus a pendant vertex: decodes fast, omega == 3
TRIANGLE_EDGES = [[0, 1], [1, 2], [0, 2], [2, 3]]


def gz_payload(text):
    """An ``edgelist-gz`` graph payload carrying ``text`` verbatim."""
    data = base64.b64encode(gzip.compress(text.encode())).decode()
    return {"kind": "edgelist-gz", "data": data}


@pytest.fixture(scope="module")
def community():
    """Small community graph solved comfortably at any sane budget."""
    return gen.caveman_social(6, 40, p_in=0.35, seed=3)


@pytest.fixture
def make_server():
    """Factory for background servers; every handle is stopped at teardown."""
    handles = []

    def _make(service=None, config=None, **service_kwargs):
        if service is None:
            service = SolveService(**service_kwargs)
        if config is None:
            config = ServerConfig(port=0)
        handle = ServerThread(service, config)
        handles.append(handle)
        return handle.start()

    yield _make
    for handle in handles:
        handle.stop()


@pytest.fixture
def server(make_server):
    """A default server over a fresh single-device SolveService."""
    return make_server()


@pytest.fixture
def make_endpoints(make_server):
    """Factory for ``[server, router]`` with the same client-facing knobs.

    The router fronts one backend server of its own. ``make_service``
    builds each server's service; ``wire`` sets the connection-layer knobs
    (``max_conns``, ``max_frame_bytes``, ...) of the server and the
    router. Routers stop before the servers behind them.
    """
    routers = []

    def _make(make_service=SolveService, **wire):
        server = make_server(make_service(), ServerConfig(port=0, **wire))
        backend = make_server(make_service())
        router = RouterThread(
            RouterConfig(backends=[("127.0.0.1", backend.port)], port=0, **wire)
        )
        routers.append(router)
        return [server, router.start()]

    yield _make
    for router in routers:
        router.stop()


@pytest.fixture
def make_client():
    """Factory for clients; every client is closed at teardown."""
    clients = []

    def _make(handle, **kwargs):
        kwargs.setdefault("retries", 2)
        kwargs.setdefault("timeout_s", 30.0)
        kwargs.setdefault("backoff_s", 0.05)
        client = SolveClient(port=handle.port, **kwargs)
        clients.append(client)
        return client

    yield _make
    for client in clients:
        client.close()


class RawConn:
    """A bare socket speaking (or abusing) ``repro-wire/1``."""

    def __init__(self, port, host="127.0.0.1", timeout=15.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.file = self.sock.makefile("rb")

    def send(self, frame):
        self.sock.sendall(protocol.encode_frame(frame))

    def send_bytes(self, data):
        self.sock.sendall(data)

    def recv(self):
        """One frame, or None on EOF."""
        line = self.file.readline()
        if not line:
            return None
        return json.loads(line.decode("utf-8"))

    def hello(self):
        self.send({"type": "hello", "protocol": protocol.PROTOCOL, "client": "raw"})
        reply = self.recv()
        assert reply is not None and reply["type"] == "hello", reply
        return reply

    def close(self):
        try:
            self.file.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def raw_conn():
    """Factory for RawConns; every socket is closed at teardown."""
    conns = []

    def _make(handle_or_port, **kwargs):
        port = getattr(handle_or_port, "port", handle_or_port)
        conn = RawConn(port, **kwargs)
        conns.append(conn)
        return conn

    yield _make
    for conn in conns:
        conn.close()
