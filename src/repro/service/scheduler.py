"""Job ordering policies.

Scheduling policy -- not the kernel alone -- decides throughput on
real multi-request workloads (cf. Almasri et al.; Pattabiraman et
al.). The service keeps the two scheduling levers explicit and
deterministic:

* **ordering** (:class:`Scheduler`, this module): ``"fifo"`` preserves
  submission order; ``"sef"`` (shortest-expected-first) orders by a
  cheap structural cost estimate so small jobs are not stuck behind
  monsters -- the classic mean-latency optimisation. Priority always
  dominates: higher-priority jobs run first under either policy.
* **placement** (:class:`~repro.service.pool.DevicePool`): jobs go to the least-loaded of a pool of
  simulated devices (least accumulated model time, i.e. greedy
  longest-processing-time balancing); ``makespan_model_s`` reports
  what a multi-GPU deployment's makespan would be. How many jobs run
  *concurrently on the host* is the executor's business
  (:mod:`repro.engine.executor`), not the scheduler's.

The cost estimate is the dominant work term of the paper's Algorithm
2: every candidate check binary-searches an adjacency list, so
expected work scales with ``edges x log2(max_degree)``, scaled up by
the Moon-Moser expansion of the average sublist tail for dense,
hard-to-prune inputs (Section V-B2).
"""

from __future__ import annotations

import math
from typing import List

from ..graph.csr import CSRGraph
from .request import SolveRequest

__all__ = ["Scheduler", "expected_cost"]

#: valid ordering policies
POLICIES = ("fifo", "sef")


def expected_cost(graph: CSRGraph) -> float:
    """Cheap structural proxy for a solve's expected model time.

    ``m * log2(max_degree + 2)`` is the binary-search work of scanning
    the 2-clique list once; the Moon-Moser factor of the average
    sublist tail accounts for candidate-set expansion on dense graphs.
    Only O(1) CSR properties are read -- scheduling must stay far
    cheaper than solving.
    """
    n = max(graph.num_vertices, 1)
    m = graph.num_edges
    avg_tail = max(m / n - 1.0, 0.0)
    expansion = 3.0 ** (min(avg_tail, 48.0) / 3.0)
    return m * math.log2(graph.max_degree + 2.0) * expansion


class Scheduler:
    """Orders submitted jobs for execution.

    Parameters
    ----------
    policy:
        ``"fifo"`` (submission order) or ``"sef"``
        (shortest-expected-first by :func:`expected_cost`). Priority
        sorts before either key; submission order breaks all ties, so
        schedules are fully deterministic.
    """

    def __init__(self, policy: str = "fifo") -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; expected one of {POLICIES}"
            )
        self.policy = policy

    def order(self, requests: List[SolveRequest]) -> List[SolveRequest]:
        """Return the execution order of ``requests`` (stable, pure)."""
        if self.policy == "fifo":
            return sorted(requests, key=lambda r: (-r.priority, r.seq))
        return sorted(
            requests,
            key=lambda r: (-r.priority, expected_cost(r.graph), r.seq),
        )
