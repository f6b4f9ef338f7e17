"""The search engine: one level loop, pluggable batch executors.

This layer owns the two mechanisms the rest of the repo configures
rather than reimplements (see docs/ARCHITECTURE.md):

* :mod:`~repro.engine.driver` -- :class:`LevelDriver`, the single
  implementation of the paper's count / scan / output breadth-first
  level loop (Algorithm 2), run over a list of lanes (one
  :class:`BFSOutcome` per root) on the isolated or the fused launch
  schedule. :mod:`~repro.engine.sweep` adds the one window sweep
  (splitting, ordering, groups of ``fanout`` windows, adaptive retry,
  checkpointing). The full, windowed, and concurrent-fanout searches
  in :mod:`repro.core` are thin adapters over the two.
* :mod:`~repro.engine.executor` -- the :class:`Executor` protocol the
  solve service drains batches through: :class:`SerialExecutor` (the
  reference order) and :class:`ThreadedExecutor` (one worker per
  pooled device, deterministic ticket-ordered commits, byte-identical
  records to serial).

``engine`` sits between :mod:`repro.gpusim` (which it charges) and
:mod:`repro.core` (which configures it); it must never import from
``core.bfs`` / ``core.windowed`` / ``core.concurrent`` or anything
above them.
"""

from .driver import BFSOutcome, LevelDriver
from .executor import (
    BatchPlan,
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    resolve_executor,
)
from .passes import chunk_slices, count_pass, output_pass, pair_partners
from .problems import (
    MAX_CLIQUE,
    KCliqueCountKind,
    KindState,
    MaximalEnumKind,
    ProblemKind,
    merge_state,
    resolve_kind,
)
from .sweep import WindowedOutcome, window_sweep

__all__ = [
    "LevelDriver",
    "BFSOutcome",
    "WindowedOutcome",
    "window_sweep",
    "ProblemKind",
    "KindState",
    "KCliqueCountKind",
    "MaximalEnumKind",
    "MAX_CLIQUE",
    "resolve_kind",
    "merge_state",
    "chunk_slices",
    "pair_partners",
    "count_pass",
    "output_pass",
    "Executor",
    "BatchPlan",
    "SerialExecutor",
    "ThreadedExecutor",
    "resolve_executor",
]
