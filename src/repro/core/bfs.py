"""Breadth-first maximum clique search (paper Section IV-D, Algorithm 2).

This module is the public entry point of the *full* breadth-first
enumeration; the level loop itself lives in
:class:`repro.engine.driver.LevelDriver` (shared with the windowed and
concurrent searches -- see docs/ARCHITECTURE.md). ``bfs_search``
configures the driver on the isolated launch schedule: one search,
every kernel charged for it alone, exactly the schedule the paper's
Algorithm 2 describes.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..engine.driver import BFSOutcome, LevelDriver
from ..engine.problems import ProblemKind
from ..gpusim.device import Device
from ..graph.csr import CSRGraph
from .deadline import Deadline, as_deadline

__all__ = ["BFSOutcome", "bfs_search"]


def bfs_search(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    omega_bar: int,
    device: Device,
    chunk_pairs: int = 1 << 22,
    early_exit_heuristic: bool = False,
    deadline: Union[None, float, Deadline] = None,
    kind: Optional[ProblemKind] = None,
) -> BFSOutcome:
    """Run Algorithm 2 from a prepared 2-clique list.

    Parameters
    ----------
    graph:
        Input graph (CSR with sorted adjacency).
    src, dst:
        The pruned, ordered 2-clique arrays (grouped by source).
    omega_bar:
        Heuristic lower bound ω̄.
    device:
        Device charged for all kernels; clique-list nodes allocate
        from its memory pool (may raise
        :class:`~repro.errors.DeviceOOMError`).
    chunk_pairs:
        Host-side pair-batch size (wall-time knob only).
    early_exit_heuristic:
        Enable the early termination of Algorithm 2 line 36. The
        paper's literal condition (candidate count collapses to
        ``ω̄ - k + 1``) is unsound -- a single surviving chain can
        still extend past ω̄ when the heuristic undershot (our
        property tests found concrete counterexamples) -- so the
        driver implements the sound variant: stop once **every**
        surviving branch satisfies ``count + k == ω̄``, at which point
        no branch can beat the heuristic clique and ω = ω̄. Only
        meaningful when a single maximum clique is wanted.
    deadline:
        Absolute ``time.perf_counter()`` instant (or a
        :class:`~repro.core.deadline.Deadline`) after which the search
        raises :class:`~repro.errors.SolveTimeoutError` (checked once
        per level).
    kind:
        The :class:`~repro.engine.problems.ProblemKind` being solved
        (default: max-clique).
    """
    driver = LevelDriver(
        graph,
        device,
        chunk_pairs=chunk_pairs,
        deadline=as_deadline(deadline, "breadth-first search"),
    )
    (outcome,) = driver.run(
        [(src, dst)], omega_bar, early_exit_heuristic=early_exit_heuristic,
        kind=kind,
    )
    return outcome
