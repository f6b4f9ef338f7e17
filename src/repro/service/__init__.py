"""The batched solve service: scheduling, caching, admission, retry.

This package is the serving layer over the solver pipeline (see
docs/SERVICE.md):

* :class:`~repro.service.service.SolveService` -- submit
  :class:`~repro.service.request.SolveRequest` jobs, run them on a
  pool of simulated devices, get
  :class:`~repro.service.request.JobRecord` accounts back;
* :mod:`~repro.service.scheduler` -- FIFO / shortest-expected-first
  ordering;
* :mod:`~repro.service.pool` -- the self-healing device pool with
  least-loaded placement (how batches *drain* -- serial or threaded --
  is the executor's business, see :mod:`repro.engine.executor`);
* :mod:`~repro.service.cache` -- LRU result cache keyed by graph
  fingerprint + config;
* :mod:`~repro.service.admission` -- memory-aware full / windowed /
  reject decisions before launch;
* :mod:`~repro.service.policy` -- the OOM/timeout degradation ladder;
* :mod:`~repro.service.jobs` -- the ``repro batch`` job-file format.
"""

from ..core.config import config_fingerprint
from .admission import (
    AdmissionController,
    AdmissionDecision,
    MemoryEstimate,
    estimate_memory,
    windowed_variant,
)
from .cache import ResultCache, request_key
from .jobs import load_jobs, parse_jobs, resolve_graph
from .policy import DegradationPolicy
from .pool import DeviceHealth, DevicePool
from .request import JobRecord, SolveRequest
from .scheduler import Scheduler, expected_cost
from .service import ServiceSummary, SolveService

__all__ = [
    "SolveService",
    "ServiceSummary",
    "SolveRequest",
    "JobRecord",
    "Scheduler",
    "DevicePool",
    "DeviceHealth",
    "expected_cost",
    "ResultCache",
    "config_fingerprint",
    "request_key",
    "AdmissionController",
    "AdmissionDecision",
    "MemoryEstimate",
    "estimate_memory",
    "windowed_variant",
    "DegradationPolicy",
    "load_jobs",
    "parse_jobs",
    "resolve_graph",
]
