"""Network solve server: the ``repro-wire/1`` front-end over the service.

The subsystem that turns the batched :class:`~repro.service.SolveService`
into a long-lived network daemon (``repro serve``) plus the matching
synchronous client library (``repro client``):

* :mod:`repro.server.protocol` -- the versioned newline-delimited JSON
  wire format, error frames, hello checks, and graph payload codecs;
* :mod:`repro.server.bridge` -- the micro-batching worker-thread
  bridge that keeps solves off the event loop;
* :mod:`repro.server.endpoint` -- the connection layer and thread
  harness the server shares with the cluster router, and the one place
  a refused frame is answered;
* :mod:`repro.server.server` -- the asyncio TCP server (framing,
  backpressure, rate limiting, graceful drain);
* :mod:`repro.server.client` -- the blocking client with retry and
  backoff;
* :mod:`repro.server.limiter` / :mod:`repro.server.stats` --
  per-connection token buckets and server-level gauges/latency
  percentiles.

See docs/SERVER.md for the protocol spec and operational semantics.
"""

from .bridge import BridgeQueueFull, SolveBridge
from .client import SolveClient
from .limiter import TokenBucket
from .protocol import DEFAULT_PORT, MAX_FRAME_BYTES, PROTOCOL
from .server import ServerConfig, ServerThread, SolveServer
from .stats import LatencyWindow, ServerStats

__all__ = [
    "PROTOCOL",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "SolveServer",
    "ServerConfig",
    "ServerThread",
    "SolveClient",
    "SolveBridge",
    "BridgeQueueFull",
    "TokenBucket",
    "ServerStats",
    "LatencyWindow",
]
