"""Job types of the solve service: requests in, records out.

A :class:`SolveRequest` is one unit of work submitted to the
:class:`~repro.service.service.SolveService` -- a graph plus a
:class:`~repro.core.config.SolverConfig` and scheduling metadata
(priority, per-job wall-clock budget). A :class:`JobRecord` is the
service's account of what happened to that job: admission decision,
attempt count along the degradation ladder, cache hit, per-stage
model-time breakdown, and the result figures. Records serialise to
JSON (``repro batch --json``); the full
:class:`~repro.core.result.MaxCliqueResult` stays available
programmatically on :attr:`JobRecord.result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from ..core.config import SolverConfig
from ..core.result import SolveResult
from ..graph.csr import CSRGraph

__all__ = ["SolveRequest", "JobRecord"]

#: job terminal states (``JobRecord.status``)
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"


@dataclass
class SolveRequest:
    """One solve job submitted to the service.

    Parameters
    ----------
    graph:
        Input graph.
    config:
        Requested solver configuration (the *cache identity* of the
        job); admission control and the degradation ladder may execute
        a different configuration, which the record reports.
    job_id:
        Caller-chosen identifier; the service assigns ``job-<n>`` when
        omitted.
    priority:
        Higher runs earlier; ties fall back to the scheduling policy.
    timeout_s:
        Per-job wall-clock budget in seconds, merged into the executed
        config's ``time_limit_s`` (the tighter of the two wins).
    label:
        Free-form annotation carried into the record (e.g. the graph's
        file or dataset name).
    checkpoint:
        Optional :class:`~repro.core.checkpoint.SearchCheckpoint` to
        resume the windowed max-clique search from (checkpoint-shipped
        failover: the cluster router attaches one fetched from a dying
        backend). Ignored whenever the executed configuration is not
        :attr:`~repro.core.config.SolverConfig.resumable` -- those
        restart cleanly.
    checkpoint_sink:
        Optional callback invoked with a stamped checkpoint after
        every completed window, so callers (the server bridge) can
        expose the latest resumable state of an in-flight job.
    deadline:
        Optional absolute :class:`~repro.core.deadline.Deadline` by
        which the *caller* still wants the answer (the wire
        ``deadline_s`` budget, stamped at receipt). Layers between
        here and the device honour it: the server rejects an
        already-expired request before dispatch, the bridge fails
        expired jobs at batch pickup, and the service folds the
        remaining budget into the executed config's ``time_limit_s``
        (the tighter of the two wins) so the solver's own deadline
        checks enforce it mid-search.
    """

    graph: CSRGraph
    config: SolverConfig = field(default_factory=SolverConfig)
    job_id: Optional[str] = None
    priority: int = 0
    timeout_s: Optional[float] = None
    label: str = ""
    checkpoint: Optional[Any] = field(default=None, repr=False, compare=False)
    checkpoint_sink: Optional[Any] = field(
        default=None, repr=False, compare=False
    )
    deadline: Optional[Any] = field(default=None, repr=False, compare=False)

    #: submission sequence number, assigned by the service (FIFO key)
    seq: int = field(default=0, repr=False, compare=False)


@dataclass
class JobRecord:
    """Everything the service can say about one finished job.

    ``status`` is ``"ok"`` (a result was produced, possibly degraded),
    ``"rejected"`` (admission refused to launch it), or ``"failed"``
    (every rung of the degradation ladder was exhausted).
    """

    job_id: str
    status: str
    label: str = ""
    #: problem kind of the request's config (result field selector)
    problem: str = "max-clique"
    #: the counted clique size (k-clique-count jobs only)
    k: Optional[int] = None
    clique_number: Optional[int] = None
    num_maximum_cliques: Optional[int] = None
    #: exact k-clique count (k-clique-count jobs only)
    k_clique_count: Optional[int] = None
    #: exact maximal clique count (maximal-enum jobs only)
    num_maximal_cliques: Optional[int] = None
    enumerated_all: Optional[bool] = None
    cache_hit: bool = False
    attempts: int = 0
    admission: str = ""  # "full" | "windowed" | "reject" | "cache"
    admission_reason: str = ""
    degraded: bool = False
    #: same-config retries after transient device faults
    transient_retries: int = 0
    #: device migrations after device loss (final device in ``device``)
    migrations: int = 0
    device: Optional[int] = None
    model_time_s: float = 0.0
    wall_time_s: float = 0.0
    stage_model_times: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: full result object (not serialised); None for rejected/failed
    result: Optional[SolveResult] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation: every field but ``result``, in order
        (``stage_model_times`` as ``stage_model_times_s``)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "stage_model_times":
                out["stage_model_times_s"] = dict(value)
            elif f.name != "result":
                out[f.name] = value
        return out
