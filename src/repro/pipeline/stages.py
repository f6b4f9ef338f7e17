"""The solve pipeline's composable stages.

Each stage wraps one phase of the paper's pipeline (Section IV) and
communicates only through the shared
:class:`~repro.pipeline.context.ExecutionContext`:

==============  =====================================================
stage name      phase
==============  =====================================================
``csr_upload``  copy the CSR arrays into device global memory
``preprocess``  rank values (k-core decomposition for core variants)
``heuristic``   greedy lower bound ω̄ (Section IV-A, Algorithm 1)
``setup``       the pruned, ordered 2-clique list (Section IV-C)
``bfs``         full breadth-first enumeration (Section IV-D)
``windowed``    windowed single-clique search (Section IV-E)
==============  =====================================================

Each search stage makes one search call for every problem kind: it
passes the :mod:`repro.core` adapter the config's
:class:`~repro.engine.problems.ProblemKind` and the heuristic clique
(an empty one for kinds that skip the heuristic stage). The adapters
all configure the one level loop in
:class:`repro.engine.driver.LevelDriver` (see docs/ARCHITECTURE.md);
deadlines are uniform :class:`~repro.core.deadline.Deadline` checks
relabelled per search flavour by the adapters. A kind that does not
prune assembles its own result from the search's accumulator
(``ProblemKind.result``); :func:`build_result` assembles max-clique's.
"""

from __future__ import annotations

import time
from typing import List, Protocol, runtime_checkable

import numpy as np

from ..core.bfs import bfs_search
from ..core.concurrent import concurrent_windowed_search
from ..core.config import Heuristic, RankKey
from ..core.config import config_fingerprint as _config_fingerprint
from ..core.heuristics import run_heuristic
from ..core.result import MaxCliqueResult, SetupStats
from ..core.setup import build_two_clique_list
from ..core.windowed import windowed_search
from ..engine.problems import resolve_kind
from ..errors import CheckpointError, DeviceLostError
from ..graph.kcore import core_numbers
from ..log import get_logger
from .context import ExecutionContext

__all__ = [
    "Stage",
    "CSRResidencyStage",
    "PreprocessStage",
    "HeuristicStage",
    "TwoCliqueSetupStage",
    "FullSearchStage",
    "WindowedSearchStage",
    "build_result",
    "default_stages",
]

log = get_logger("pipeline")


@runtime_checkable
class Stage(Protocol):
    """One composable phase of the solve pipeline.

    A stage reads its inputs from the context, performs its device
    work, and writes its outputs back; it must not assume which stages
    ran before it beyond the context fields it consumes.
    """

    #: stable identifier used for spans, breakdowns, and docs
    name: str

    def run(self, ctx: ExecutionContext) -> None:
        """Execute the stage against the shared context."""
        ...


class CSRResidencyStage:
    """Copy the CSR arrays into device global memory.

    The graph stays resident for the whole computation (every kernel
    binary-searches adjacency rows); the buffers are freed by the
    runner's cleanup pass when the pipeline finishes.
    """

    name = "csr_upload"

    def run(self, ctx: ExecutionContext) -> None:
        rows = ctx.device.from_host(ctx.graph.row_offsets, label="csr.row_offsets")
        cols = ctx.device.from_host(ctx.graph.col_indices, label="csr.col_indices")
        ctx.defer(cols.free)
        ctx.defer(rows.free)


class PreprocessStage:
    """Rank values: k-core decomposition for core variants, else degrees."""

    name = "preprocess"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        if config.heuristic.uses_core_numbers or (
            config.orientation_key is RankKey.CORE
        ):
            ctx.ranks = core_numbers(ctx.graph, ctx.device)
        else:
            ctx.ranks = ctx.graph.degrees


class HeuristicStage:
    """Greedy heuristic lower bound ω̄ (paper Section IV-A)."""

    name = "heuristic"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        ctx.heuristic = run_heuristic(
            ctx.graph,
            config.heuristic,
            ctx.device,
            h=config.heuristic_runs,
            ranks=ctx.ranks if config.heuristic is not Heuristic.NONE else None,
        )
        # config.omega_floor carries outside knowledge (streaming
        # sessions: the previous epoch's ω after inserts); anything
        # below the floor may be pruned, so callers setting a floor
        # must discard results whose clique_number falls under it
        ctx.omega_bar = max(
            ctx.heuristic.lower_bound, 2, config.omega_floor
        )
        ctx.tracer.counter("heuristic.lower_bound", ctx.heuristic.lower_bound)


class TwoCliqueSetupStage:
    """Build the pruned, ordered 2-clique list (paper Section IV-C)."""

    name = "setup"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        ctx.src, ctx.dst, ctx.setup_stats = build_two_clique_list(
            ctx.graph,
            ctx.omega_bar,
            ctx.device,
            ranks=ctx.ranks,
            orientation_key=config.orientation_key,
            sublist_order=config.sublist_order,
            coloring_preprune=config.coloring_preprune,
        )
        stats = ctx.setup_stats
        ctx.tracer.counter("setup.prepruned_vertices", stats.prepruned_vertices)
        ctx.tracer.counter("setup.pruned_sublists", stats.pruned_sublists)
        ctx.tracer.counter("setup.pruned_2cliques", stats.pruned_2cliques)
        ctx.tracer.counter("setup.kept_2cliques", stats.kept_2cliques)


class FullSearchStage:
    """Full breadth-first enumeration of all maximum cliques."""

    name = "bfs"

    def run(self, ctx: ExecutionContext) -> None:
        config, kind = ctx.config, resolve_kind(ctx.config)
        if kind.prunes:
            shortcut = self._single_sublist_shortcut(ctx)
            if shortcut is not None:
                ctx.result = shortcut
                return
        clique = _heuristic_clique(ctx)
        outcome = bfs_search(
            ctx.graph,
            ctx.src,
            ctx.dst,
            ctx.omega_bar,
            ctx.device,
            chunk_pairs=config.chunk_pairs,
            early_exit_heuristic=config.early_exit_heuristic
            and not config.enumerate_all
            and clique.size >= 2,
            deadline=ctx.deadline,
            kind=kind,
        )
        try:
            _record_counters(ctx, outcome)
            if not kind.prunes:
                ctx.result = kind.result(
                    ctx.graph, config, outcome.state, "search",
                    **_telemetry(
                        ctx, outcome.levels, stored=outcome.candidates_stored,
                        search_mem=outcome.clique_list.total_bytes,
                    ),
                )
                return
            if outcome.omega == 0:
                # everything <omega_bar was pruned away: the heuristic
                # clique is the unique maximum (setup proved it)
                clique = np.sort(clique)
                ctx.result = build_result(
                    ctx,
                    omega=int(clique.size),
                    count=1,
                    cliques=clique.reshape(1, -1),
                    found_by="heuristic",
                    levels=outcome.levels,
                )
                return
            count = outcome.clique_list.head.size
            if outcome.stopped_by_heuristic:
                cliques = np.sort(clique).reshape(1, -1)
                count = 1
                found_by = "heuristic"
                omega = ctx.heuristic.lower_bound
            else:
                cliques = outcome.clique_list.read_cliques(
                    limit=config.max_cliques_report
                )
                cliques = np.sort(cliques, axis=1)
                found_by = "search"
                omega = outcome.omega
            ctx.omega_bar = max(ctx.omega_bar, int(omega))
            ctx.result = build_result(
                ctx,
                omega=omega,
                count=count,
                cliques=cliques,
                found_by=found_by,
                levels=outcome.levels,
                stored=outcome.candidates_stored,
                pruned=outcome.candidates_pruned
                + ctx.setup_stats.pruned_2cliques,
                search_mem=outcome.clique_list.total_bytes,
            )
        finally:
            outcome.clique_list.free_all()

    def _single_sublist_shortcut(self, ctx: ExecutionContext):
        """Paper Section IV-C: skip the exact search when pruning left
        exactly one sublist of length ω̄ - 1.

        Every surviving candidate clique lives inside that sublist, and
        an ω̄-clique needs *all* of it plus the source -- so if that
        vertex set is a clique (it contains the heuristic's own clique
        of the same size, so it is), it is the unique maximum clique.
        Only kinds that prune by ω̄ may take it.
        """
        src, dst, omega_bar = ctx.src, ctx.dst, ctx.omega_bar
        if src.size == 0 or src.size != omega_bar - 1:
            return None
        if np.unique(src).size != 1:
            return None
        members = np.concatenate([[src[0]], dst]).astype(np.int64)
        iu, iv = np.triu_indices(members.size, k=1)
        ctx.device.launch(
            ctx.graph.lookup_cost[members[iu]].astype(np.float64),
            name="shortcut_verify",
        )
        if not ctx.graph.batch_has_edge(members[iu], members[iv]).all():
            return None  # not a clique: fall through to the exact search
        clique = np.sort(members).astype(np.int32)
        return build_result(
            ctx,
            omega=int(clique.size),
            count=1,
            cliques=clique.reshape(1, -1),
            found_by="heuristic",
            pruned=ctx.setup_stats.pruned_2cliques,
            stored=int(src.size),
        )


class WindowedSearchStage:
    """Windowed search for a single maximum clique (Section IV-E).

    For the counting and enumeration kinds every window's accumulator
    is merged by the sweep, so the union over windows is exact (each
    clique is rooted in exactly one window).
    """

    name = "windowed"

    def run(self, ctx: ExecutionContext) -> None:
        config, kind = ctx.config, resolve_kind(ctx.config)
        user_sink = ctx.checkpoint_sink
        checkpointing = ctx.checkpoint is not None or user_sink is not None
        if checkpointing and not config.resumable:
            raise CheckpointError(
                "checkpoint/resume requires a max-clique windowed search "
                f"with window_fanout == 1 (got problem={config.problem!r}, "
                f"window_fanout={config.window_fanout})"
            )
        if ctx.checkpoint is not None:
            ctx.checkpoint.validate_for(
                ctx.graph.fingerprint(), _config_fingerprint(config)
            )
            ctx.tracer.counter("search.checkpoint.resumed")
        search_args = (
            ctx.graph,
            ctx.src,
            ctx.dst,
            ctx.omega_bar,
            _heuristic_clique(ctx),
            ctx.device,
        )
        shared = dict(
            window_size=config.window_size,
            window_order=config.window_order,
            chunk_pairs=config.chunk_pairs,
            deadline=ctx.deadline,
            kind=kind,
        )
        if config.window_fanout > 1:
            outcome = concurrent_windowed_search(
                *search_args, fanout=config.window_fanout, **shared
            )
        else:
            sink = None
            if user_sink is not None:

                def sink(ckpt) -> None:
                    user_sink(_stamp(ctx, ckpt))

            try:
                outcome = windowed_search(
                    *search_args,
                    early_exit_heuristic=config.early_exit_heuristic,
                    adaptive=config.adaptive_windowing,
                    checkpoint=ctx.checkpoint,
                    checkpoint_sink=sink,
                    **shared,
                )
            except DeviceLostError as exc:
                # stamp the escaping checkpoint so the service (or a
                # --checkpoint file) can verify identity on resume
                if exc.checkpoint is not None:
                    _stamp(ctx, exc.checkpoint)
                raise
        _record_counters(ctx, outcome)
        ctx.tracer.counter("search.windows", len(outcome.windows))
        telemetry = dict(
            levels=outcome.levels,
            windows=outcome.windows,
            stored=outcome.candidates_stored,
            search_mem=outcome.peak_window_bytes,
        )
        if not kind.prunes:
            ctx.result = kind.result(
                ctx.graph, config, outcome.state, "search",
                **_telemetry(ctx, **telemetry),
            )
            return
        # the windows carried ω̄ forward internally; persist the final
        # (possibly raised) bound in the context
        ctx.omega_bar = max(ctx.omega_bar, int(outcome.omega))
        clique = np.sort(outcome.best_clique)
        ctx.result = build_result(
            ctx,
            omega=outcome.omega,
            count=1,
            cliques=clique.reshape(1, -1),
            found_by=(
                "heuristic"
                if outcome.omega == ctx.heuristic.lower_bound
                else "search"
            ),
            pruned=outcome.candidates_pruned + ctx.setup_stats.pruned_2cliques,
            **telemetry,
        )


def _heuristic_clique(ctx: ExecutionContext) -> np.ndarray:
    """The heuristic's clique; empty for kinds that skip the heuristic."""
    if ctx.heuristic is None:
        return np.zeros(0, dtype=np.int32)
    return ctx.heuristic.clique


def _record_counters(ctx: ExecutionContext, outcome) -> None:
    ctx.tracer.counter(
        "search.candidates_generated",
        sum(s.generated for s in outcome.levels),
    )
    ctx.tracer.counter("search.candidates_stored", outcome.candidates_stored)
    ctx.tracer.counter("search.candidates_pruned", outcome.candidates_pruned)


def _stamp(ctx: ExecutionContext, ckpt):
    """Stamp the graph and config fingerprints onto a checkpoint.

    The core search layer has no notion of fingerprints; every
    checkpoint that leaves the pipeline carries them so resume can
    verify identity.
    """
    ckpt.graph_fingerprint = ctx.graph.fingerprint()
    ckpt.config_fingerprint = _config_fingerprint(ctx.config)
    return ckpt


def _telemetry(
    ctx, levels=None, windows=None, stored=0, pruned=0, search_mem=0
) -> dict:
    """The telemetry fields every result kind shares.

    ``stage_times`` is attached *by reference*: the runner finishes
    filling it (the search stage's own entry lands after the stage
    returns), so the result sees the complete breakdown. Peak memory
    and model time are per-solve deltas from the context's baselines.
    """
    device = ctx.device
    return dict(
        setup=ctx.setup_stats if ctx.setup_stats is not None else SetupStats(),
        levels=levels if levels is not None else [],
        windows=windows if windows is not None else [],
        candidates_stored=int(stored),
        candidates_pruned=int(pruned),
        peak_memory_bytes=device.pool.peak_bytes - ctx.base_mem,
        search_memory_bytes=int(search_mem),
        device_stats=device.stats(),
        model_time_s=device.model_time_s - ctx.m0,
        wall_time_s=time.perf_counter() - ctx.t0,
        stage_times=ctx.stage_times,
    )


def build_result(
    ctx: ExecutionContext, omega, count, cliques, found_by, **search
) -> MaxCliqueResult:
    """Assemble a :class:`MaxCliqueResult` from the context's state
    and the search's :func:`_telemetry` figures."""
    return MaxCliqueResult(
        clique_number=int(omega),
        num_maximum_cliques=int(count),
        cliques=cliques,
        found_by=found_by,
        enumerated_all=ctx.config.enumerate_all,
        heuristic=ctx.heuristic,
        **_telemetry(ctx, **search),
    )


def default_stages(config) -> List[Stage]:
    """The pipeline for the given configuration.

    The heuristic stage exists to raise the ω̄ pruning bound, which
    only a kind that ``prunes`` may use -- the counting and enumeration
    kinds must visit every clique, so their pipelines skip it (the
    setup stage then builds the 2-clique list at the ω̄ = 2 floor,
    pruning nothing).
    """
    search: Stage = WindowedSearchStage() if config.windowed else FullSearchStage()
    stages: List[Stage] = [CSRResidencyStage(), PreprocessStage()]
    if resolve_kind(config).prunes:
        stages.append(HeuristicStage())
    stages.append(TwoCliqueSetupStage())
    stages.append(search)
    return stages
