"""Span-based structured tracing over the model clock.

The tracer records three event kinds, all timestamped on the
*deterministic model clock* (device model seconds), so a trace is as
reproducible as the solve it observes:

* **spans** -- named intervals (pipeline stages, baseline phases) with
  nesting tracked through a span stack;
* **kernel events** -- one per :meth:`repro.gpusim.device.Device`
  kernel charge, fed through the device's trace hook and attributed to
  the innermost open span;
* **counters** -- monotonically accumulated named integers (candidates
  generated, pruned, sublists kept, ...).

:class:`NullTracer` is the default everywhere and does nothing, so
tracing is strictly opt-in: a run without a recording tracer performs
the exact same device charges and produces the exact same model-time
numbers. :class:`JsonTracer` records everything and exports either the
native JSON schema (see docs/OBSERVABILITY.md) or the Chrome trace
event format for ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..log import get_logger

__all__ = [
    "SpanRecord",
    "KernelEventRecord",
    "Tracer",
    "NullTracer",
    "JsonTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA",
]

log = get_logger("trace")

#: Schema identifier stamped into every exported trace.
TRACE_SCHEMA = "repro-trace/1"


@dataclass
class SpanRecord:
    """One named interval on the model-clock timeline."""

    name: str
    category: str
    start_model_s: float
    end_model_s: float = 0.0
    start_wall_s: float = 0.0
    end_wall_s: float = 0.0
    depth: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def model_time_s(self) -> float:
        return self.end_model_s - self.start_model_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "start_model_s": self.start_model_s,
            "end_model_s": self.end_model_s,
            "model_time_s": self.model_time_s,
            "wall_time_s": self.end_wall_s - self.start_wall_s,
            "depth": self.depth,
            "attrs": self.attrs,
        }


@dataclass
class KernelEventRecord:
    """One device kernel charge, attributed to the enclosing span."""

    name: str
    span: str  # innermost open span name ("" outside any span)
    threads: int
    useful_ops: float
    effective_ops: float
    model_time_s: float
    end_model_s: float

    @property
    def start_model_s(self) -> float:
        return self.end_model_s - self.model_time_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span": self.span,
            "threads": self.threads,
            "useful_ops": self.useful_ops,
            "effective_ops": self.effective_ops,
            "model_time_s": self.model_time_s,
            "start_model_s": self.start_model_s,
            "end_model_s": self.end_model_s,
        }


class Tracer:
    """No-op tracing interface (also the base class of real tracers).

    ``enabled`` is False on the base class; hot paths may check it to
    skip building event payloads entirely.
    """

    enabled: bool = False

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "stage",
        model_clock: Optional[Callable[[], float]] = None,
        **attrs: Any,
    ):
        """Open a named span; a context manager closing it on exit.

        ``model_clock`` supplies model-seconds timestamps (e.g.
        ``lambda: device.model_time_s``); spans without one are
        timestamped 0 on the model axis but still record wall time.
        """
        yield self

    def on_kernel(
        self,
        name: str,
        threads: int,
        useful_ops: float,
        effective_ops: float,
        model_time_s: float,
        end_model_s: float,
    ) -> None:
        """Device trace-hook entry point (one call per kernel charge)."""

    def counter(self, name: str, value: int = 1) -> None:
        """Accumulate ``value`` into the named counter."""

    def counters_snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of every accumulated counter."""
        return {}


class NullTracer(Tracer):
    """Explicitly-named alias of the no-op base tracer."""


#: Shared default tracer instance (stateless, safe to share).
NULL_TRACER = NullTracer()


class CounterTracer(Tracer):
    """Thread-safe counters-only tracer for long-lived processes.

    The solve server runs for hours and serves overlapping requests
    from worker threads, which rules out :class:`JsonTracer` there: it
    accumulates every span and kernel event forever, and its
    ``enabled`` flag makes the threaded batch executor fall back to
    the serial executor (interleaved span streams would be observable).
    This tracer keeps only the counter map -- exactly what the server's
    ``stats`` frame reports -- behind a lock, and leaves ``enabled``
    False so span/kernel hot paths and executor parallelism are
    untouched.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    def counter(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def counters(self) -> Dict[str, int]:
        """A copy of every accumulated counter."""
        return self.counters_snapshot()


class JsonTracer(CounterTracer):
    """Recording tracer with JSON and Chrome-trace exports.

    Keeps :class:`CounterTracer`'s counter map beside its spans and
    kernel events, and sets ``enabled``, so instrumented code builds
    its event payloads.
    """

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[SpanRecord] = []
        self.kernels: List[KernelEventRecord] = []
        self._stack: List[SpanRecord] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        category: str = "stage",
        model_clock: Optional[Callable[[], float]] = None,
        **attrs: Any,
    ):
        clock = model_clock if model_clock is not None else (lambda: 0.0)
        rec = SpanRecord(
            name=name,
            category=category,
            start_model_s=clock(),
            start_wall_s=time.perf_counter(),
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._stack.append(rec)
        try:
            yield self
        finally:
            self._stack.pop()
            rec.end_model_s = clock()
            rec.end_wall_s = time.perf_counter()
            self.spans.append(rec)
            log.debug(
                "span %s (%s): %.3f ms model",
                rec.name, rec.category, rec.model_time_s * 1e3,
            )

    def on_kernel(
        self,
        name: str,
        threads: int,
        useful_ops: float,
        effective_ops: float,
        model_time_s: float,
        end_model_s: float,
    ) -> None:
        self.kernels.append(
            KernelEventRecord(
                name=name,
                span=self._stack[-1].name if self._stack else "",
                threads=threads,
                useful_ops=useful_ops,
                effective_ops=effective_ops,
                model_time_s=model_time_s,
                end_model_s=end_model_s,
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def span_names(self) -> List[str]:
        """Names of completed spans in completion order."""
        return [s.name for s in self.spans]

    def stage_spans(self) -> List[SpanRecord]:
        """Completed spans with category ``"stage"``."""
        return [s for s in self.spans if s.category == "stage"]

    def kernel_totals(self) -> Dict[str, float]:
        """Model seconds per kernel name (like the device breakdown)."""
        totals: Dict[str, float] = {}
        for k in self.kernels:
            totals[k.name] = totals.get(k.name, 0.0) + k.model_time_s
        return totals

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The native trace schema (see docs/OBSERVABILITY.md)."""
        return {
            "schema": TRACE_SCHEMA,
            "spans": [s.to_dict() for s in self.spans],
            "kernels": [k.to_dict() for k in self.kernels],
            "counters": self.counters_snapshot(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        log.debug("wrote JSON trace to %s", path)

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace event format (``chrome://tracing`` / Perfetto).

        Model seconds map to microseconds of trace time; spans land on
        tid 0, kernel events on tid 1 of the same process.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro model timeline"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "stages"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": 1,
                "args": {"name": "kernels"},
            },
        ]
        for s in self.spans:
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": s.start_model_s * 1e6,
                    "dur": s.model_time_s * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": dict(s.attrs),
                }
            )
        for k in self.kernels:
            events.append(
                {
                    "name": k.name,
                    "cat": "kernel",
                    "ph": "X",
                    "ts": k.start_model_s * 1e6,
                    "dur": k.model_time_s * 1e6,
                    "pid": 0,
                    "tid": 1,
                    "args": {
                        "span": k.span,
                        "threads": k.threads,
                        "useful_ops": k.useful_ops,
                        "effective_ops": k.effective_ops,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=2)
        log.debug("wrote Chrome trace to %s", path)
