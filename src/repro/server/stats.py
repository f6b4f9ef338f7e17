"""Server-level gauges and latency percentiles for the ``stats`` frame.

The service layer already accounts for everything *about solves*
(cache, admission, outcomes, faults -- see
:meth:`repro.service.SolveService.stats_snapshot`); this module keeps
the figures only the network front-end can know: connection and frame
counts, rejects by wire error code, queue depth, and end-to-end
request latency (submit-to-result, host wall clock) summarised as
p50/p99 over a rolling window.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict

from ..trace import CounterTracer

__all__ = ["LatencyWindow", "ServerStats"]


class LatencyWindow:
    """Rolling window of recent latencies with percentile queries.

    A bounded deque (default: the last 1024 samples) keeps memory flat
    on a long-lived server while still tracking the current regime --
    a serving percentile should describe *recent* traffic, not the
    process's entire history.
    """

    def __init__(self, size: int = 1024) -> None:
        if size < 1:
            raise ValueError("window size must be at least 1")
        self._samples: "deque[float]" = deque(maxlen=size)
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._total += float(seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the window; 0.0 if empty."""
        with self._lock:
            data = sorted(self._samples)
        if not data:
            return 0.0
        rank = max(0, min(len(data) - 1, round(q / 100.0 * (len(data) - 1))))
        return data[rank]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            count, total = self._count, self._total
            window = len(self._samples)
        return {
            "count": count,
            "window": window,
            "mean_ms": (total / count * 1e3) if count else 0.0,
            "p50_ms": self.percentile(50) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
        }


class ServerStats(CounterTracer):
    """Thread-safe counter map plus the solve-latency window."""

    def __init__(self) -> None:
        super().__init__()
        self.latency = LatencyWindow()

    inc = CounterTracer.counter

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, **gauges: Any) -> Dict[str, Any]:
        """Counters + latency summary, with caller-supplied gauges merged.

        The server passes point-in-time gauges (open connections,
        queue depth, in-flight jobs) that only it can read.
        """
        out: Dict[str, Any] = self.counters_snapshot()
        out.update(gauges)
        out["latency"] = self.latency.snapshot()
        return out
