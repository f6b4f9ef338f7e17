"""Top-level maximum clique solver (public API).

Assembles and runs the paper's full pipeline (Section IV) as a list of
composable stages over one shared execution context (see
:mod:`repro.pipeline`):

1. ``csr_upload`` -- the CSR arrays move to device global memory,
2. ``preprocess`` -- rank values (k-core decomposition when a
   core-number variant is configured),
3. ``heuristic`` -- greedy heuristic lower bound ω̄,
4. ``setup`` -- 2-clique list formation with orientation, pre-pruning,
   and within-sublist ordering,
5. ``bfs`` / ``windowed`` -- the breadth-first search: full
   (enumerating every maximum clique) or windowed (one maximum clique
   under a memory budget). All three search flavours (full, windowed,
   concurrent-fanout) are configurations of the single level loop in
   :class:`repro.engine.driver.LevelDriver` (docs/ARCHITECTURE.md).

Pass a recording tracer (:class:`repro.trace.JsonTracer`) to observe
per-stage spans and per-kernel events; the default no-op tracer leaves
model-time numbers untouched.

Quickstart
----------
>>> from repro import find_maximum_cliques
>>> from repro.graph import generators
>>> g = generators.planted_clique(500, 8, avg_degree=4.0, seed=7)
>>> result = find_maximum_cliques(g)
>>> result.clique_number
8
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..gpusim.device import Device
from ..graph.csr import CSRGraph
from ..trace import NULL_TRACER, Tracer
from ..errors import SolverConfigError
from .config import SolverConfig
from .result import HeuristicReport, MaxCliqueResult, SolveResult

if TYPE_CHECKING:  # pipeline imports this module's package: keep lazy
    from ..pipeline.context import ExecutionContext
    from ..pipeline.stages import Stage

__all__ = ["MaxCliqueSolver", "find_maximum_cliques"]


class MaxCliqueSolver:
    """Configurable maximum clique solver on a simulated device.

    Parameters
    ----------
    graph:
        Input graph (undirected, simple, CSR form).
    config:
        Solver options; defaults follow the paper's recommended
        configuration (multi-run degree heuristic, degree orientation,
        degree-sorted sublists, full breadth-first search).
    device:
        Simulated device; a fresh default device is created when
        omitted. Pass a shared device to accumulate statistics across
        solves or to model a specific memory budget.
    tracer:
        Structured tracer receiving per-stage spans, per-kernel
        events, and counters (see :mod:`repro.trace`); the default
        no-op tracer records nothing and changes nothing.
    checkpoint:
        Resume a windowed search from a
        :class:`~repro.core.checkpoint.SearchCheckpoint`; validated
        against the graph and configuration before any window runs.
        Requires a :attr:`~repro.core.config.SolverConfig.resumable`
        config.
    checkpoint_sink:
        Callback invoked with a stamped checkpoint after every
        completed window of a windowed search; use it to persist
        resumable state (the CLI writes it to ``--checkpoint PATH``).
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[SolverConfig] = None,
        device: Optional[Device] = None,
        tracer: Tracer = NULL_TRACER,
        checkpoint=None,
        checkpoint_sink=None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else SolverConfig()
        self.device = device if device is not None else Device()
        self.tracer = tracer
        self.checkpoint = checkpoint
        self.checkpoint_sink = checkpoint_sink

    def stages(self) -> List[Stage]:
        """The stage list :meth:`solve` will run (assembly point).

        Override or monkey-patch to observe, reorder, or extend the
        pipeline; the default is the paper's pipeline for the current
        configuration.
        """
        from ..pipeline.stages import default_stages

        return default_stages(self.config)

    def solve(self) -> SolveResult:
        """Run the full pipeline and return the result.

        The result type is the kind-tagged variant matching
        ``config.problem``: :class:`~repro.core.result.MaxCliqueResult`
        (the default),
        :class:`~repro.core.result.KCliqueCountResult`, or
        :class:`~repro.core.result.MaximalEnumResult`.

        Raises
        ------
        repro.errors.DeviceOOMError
            When the candidate set exceeds the device memory budget
            (the experiment harness records these as OOM outcomes).
        """
        from ..pipeline.context import ExecutionContext
        from ..pipeline.runner import run_pipeline

        ctx = ExecutionContext.begin(
            self.graph,
            self.config,
            self.device,
            self.tracer,
            checkpoint=self.checkpoint,
            checkpoint_sink=self.checkpoint_sink,
        )
        trivial = self._trivial_result(ctx)
        if trivial is not None:
            return trivial
        run_pipeline(self.stages(), ctx)
        return ctx.result

    # ------------------------------------------------------------------
    def _trivial_result(self, ctx: "ExecutionContext"):
        """Handle cases solved without a pipeline run.

        A kind's closed forms (``ProblemKind.closed_form``), and empty
        and edgeless graphs for max-clique.
        """
        from ..engine.problems import resolve_kind
        from ..pipeline.stages import _telemetry, build_result

        graph, config = self.graph, self.config
        kind = resolve_kind(config)
        state = kind.closed_form(graph)
        if state is not None:
            return kind.result(graph, config, state, "trivial", **_telemetry(ctx))
        if graph.num_edges > 0:
            return None
        # every vertex (if any) is a maximum clique of size 1
        n = graph.num_vertices
        omega = min(n, 1)
        cap = min(n, config.max_cliques_report)
        ctx.heuristic = HeuristicReport("none", omega, np.zeros(0, dtype=np.int32))
        return build_result(
            ctx,
            omega=omega,
            count=n,
            cliques=np.arange(cap, dtype=np.int32).reshape(cap, omega),
            found_by="trivial",
        )


def find_maximum_cliques(
    graph: CSRGraph,
    config: Optional[SolverConfig] = None,
    device: Optional[Device] = None,
    tracer: Tracer = NULL_TRACER,
    **config_kwargs,
) -> MaxCliqueResult:
    """Convenience wrapper: solve with a fresh solver.

    Extra keyword arguments construct a :class:`SolverConfig`, e.g.
    ``find_maximum_cliques(g, heuristic="multi-core", window_size=1024)``.
    """
    if config is not None and config_kwargs:
        raise ValueError("pass either a config object or keyword options, not both")
    if config is None:
        config = SolverConfig(**config_kwargs)
    if config.problem != "max-clique":
        raise SolverConfigError(
            "find_maximum_cliques solves max-clique only; use "
            "MaxCliqueSolver (or the service/CLI) for problem="
            f"{config.problem!r}"
        )
    return MaxCliqueSolver(graph, config, device, tracer=tracer).solve()
