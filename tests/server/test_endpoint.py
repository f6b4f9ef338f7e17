"""The endpoint thread harness: a failed start must leave a stoppable handle."""

import socket

import pytest

from repro.cluster import RouterConfig, RouterThread
from repro.netchaos import ChaosProxyThread
from repro.server import ServerConfig, ServerThread
from repro.service import SolveService


def _server(port):
    return ServerThread(SolveService(), ServerConfig(port=port))


def _router(port):
    return RouterThread(RouterConfig(backends=[("127.0.0.1", 1)], port=port))


def _proxy(port):
    handle = ChaosProxyThread(("127.0.0.1", 1))
    handle.proxy.listen_port = port
    return handle


@pytest.mark.parametrize(
    "make", [_server, _router, _proxy], ids=["server", "router", "proxy"]
)
def test_stop_after_failed_bind_returns(make):
    """``stop()`` after a bind failure used to schedule the drain on an
    event loop that had already closed (``RuntimeError: Event loop is
    closed``) in most runs; several rounds make the race show."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        for _ in range(5):
            handle = make(port)
            with pytest.raises(RuntimeError, match="failed to bind"):
                handle.start()
            handle.stop(timeout_s=5.0)
            assert not handle._thread.is_alive()
