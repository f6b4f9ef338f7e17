"""Concurrent windowed search (paper Section V-C3 future work).

The paper observes that windowing's runtime cost comes from running
windows *sequentially*, and sketches the fix: "multiple windows could
be explored simultaneously by different thread blocks in order to
increase parallelism". ``concurrent_windowed_search`` configures the
shared :func:`repro.engine.sweep.window_sweep` at ``fanout > 1``:
each group of that many windows runs as one lane per window of the
one level loop of :class:`repro.engine.driver.LevelDriver`, on its
*fused* launch schedule -- each level's CountCliques / scan /
OutputNewCliques work across the whole group is charged as *one*
merged kernel launch (shared launch overhead, higher occupancy,
exactly the mechanism the paper predicts).

The trade-offs the paper also predicts are preserved:

* **memory** -- the group's clique lists are simultaneously live, so
  peak memory grows roughly ``fanout`` times over sequential
  windowing ("managing the memory resources is challenging");
* **bounds** -- windows in one group run concurrently, so they share
  the lower bound from *group start*; improvements found inside a
  group only help later groups (same staleness as the GPU-DFS
  baseline, but at a far coarser granularity).

``fanout=1`` degenerates to the literal sequential sweep: the same
code path as :func:`repro.core.windowed.windowed_search`, isolated
launches and all. The early exit, adaptive splitting and
checkpoint/resume need that sequential sweep, so the concurrent
search offers none of them.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..engine.problems import ProblemKind
from ..engine.sweep import WindowedOutcome, window_sweep
from ..gpusim.device import Device
from ..graph.csr import CSRGraph
from .config import WindowOrder
from .deadline import Deadline

__all__ = ["concurrent_windowed_search"]


def concurrent_windowed_search(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    omega_bar: int,
    heuristic_clique: np.ndarray,
    device: Device,
    window_size: Union[int, str],
    fanout: int = 4,
    window_order: WindowOrder = WindowOrder.NATURAL,
    chunk_pairs: int = 1 << 22,
    deadline: Union[None, float, Deadline] = None,
    kind: Optional[ProblemKind] = None,
) -> WindowedOutcome:
    """Windowed search with ``fanout`` windows in flight at once.

    Semantically identical to
    :func:`repro.core.windowed.windowed_search` (finds one maximum
    clique); differs only in scheduling and therefore in model time
    and peak memory. ``fanout=1`` degenerates to the sequential sweep.
    """
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    return window_sweep(
        graph,
        src,
        dst,
        omega_bar,
        heuristic_clique,
        device,
        window_size=window_size,
        fanout=fanout,
        window_order=window_order,
        chunk_pairs=chunk_pairs,
        deadline=deadline,
        label="concurrent windowed search",
        kind=kind,
    )
