"""The 58-graph surrogate evaluation suite.

The paper evaluates on the 58 largest real-world datasets of Rossi et
al.'s study (Network Repository; 10k-106M edges) spanning six
categories. Offline, we substitute a deterministic synthetic suite
with the same categorical mix and -- crucially -- the same *regime
diversity* the paper's findings hinge on:

========== ===== ==========================================================
category   count regime reproduced
========== ===== ==========================================================
road          8  very low average degree, tiny ω  (paper's best case)
collab       10  low degree, ω from team cliques well above degree
bio           8  heavy-tailed moderate degree, planted complexes
tech          8  heavy-tailed low degree
web          10  hub-dominated skewed degrees (R-MAT)
social       14  dense communities, average degree near/above ω
                 (paper's hard-to-prune Facebook regime; includes two
                 "monster" entries expected to OOM even windowed,
                 mirroring friendster/flickr in the paper)
========== ===== ==========================================================

Sizes are scaled down ~1000x from the paper (≈3k-300k edges) together
with the evaluation device's memory budget (40 GB -> 32 MiB), so
memory behaviour (Table I OOM rates, Figure 6 reductions) reproduces
in shape. Every graph gets its vertex ids randomised, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.build import graph_union, relabel_random
from ..graph.csr import CSRGraph
from ..graph import generators as gen

__all__ = ["DatasetSpec", "SUITE", "load", "names", "iter_suite", "categories"]


@dataclass(frozen=True)
class DatasetSpec:
    """One suite entry: a named, seeded synthetic graph."""

    name: str
    category: str
    builder: Callable[[], CSRGraph]
    seed: int
    notes: str = ""

    def build(self) -> CSRGraph:
        """Generate (deterministic) and randomise vertex ids."""
        return relabel_random(self.builder(), seed=self.seed + 7919)


def _road(name: str, w: int, h: int, seed: int, **kw) -> DatasetSpec:
    return DatasetSpec(
        name, "road", lambda: gen.road_grid(w, h, seed=seed, **kw), seed,
        notes=f"{w}x{h} grid",
    )


def _collab(name: str, n: int, teams: int, hi: int, seed: int) -> DatasetSpec:
    return DatasetSpec(
        name,
        "collab",
        lambda: gen.team_collaboration(n, teams, team_size_range=(2, hi), seed=seed),
        seed,
        notes=f"n={n}, {teams} teams, max team {hi}",
    )


def _bio(name: str, n: int, avg: float, hi: int, seed: int, planted: int = 0) -> DatasetSpec:
    """Heavy-tailed backbone + protein-complex cliques (team overlay)."""
    if planted:
        return DatasetSpec(
            name, "bio",
            lambda: gen.planted_clique(n, planted, avg_degree=avg, seed=seed),
            seed, notes=f"n={n}, planted K{planted}",
        )
    return DatasetSpec(
        name, "bio",
        lambda: graph_union(
            gen.chung_lu_power_law(n, avg, exponent=2.2, seed=seed),
            gen.team_collaboration(n, n // 8, team_size_range=(3, hi), seed=seed + 1),
        ),
        seed, notes=f"n={n}, Chung-Lu 2.2 + complexes<= {hi}",
    )


def _tech(name: str, n: int, avg: float, hi: int, seed: int) -> DatasetSpec:
    """Heavy-tailed backbone + small motif cliques."""
    return DatasetSpec(
        name, "tech",
        lambda: graph_union(
            gen.chung_lu_power_law(n, avg, exponent=2.5, seed=seed),
            gen.team_collaboration(n, n // 10, team_size_range=(3, hi), seed=seed + 1),
        ),
        seed, notes=f"n={n}, Chung-Lu 2.5 + motifs<= {hi}",
    )


def _web(name: str, scale: int, ef: int, hi: int, seed: int) -> DatasetSpec:
    """R-MAT hub backbone + link-farm cliques.

    Bare R-MAT is nearly clique-free; real web graphs are heavily
    clustered. The overlay also separates degree from core number
    (hubs have huge degree but low core), which is what makes the
    single-run core heuristic much more accurate than the single-run
    degree heuristic here, as in the paper's Table I.
    """
    n = 1 << scale
    return DatasetSpec(
        name, "web",
        lambda: graph_union(
            gen.rmat(scale, ef, seed=seed),
            gen.team_collaboration(n, n // 6, team_size_range=(3, hi), seed=seed + 1),
        ),
        seed, notes=f"RMAT scale {scale}, ef {ef} + farms<= {hi}",
    )


def _soc(
    name: str, comms: int, size: int, p_in: float, seed: int, p_out: float = 2.0
) -> DatasetSpec:
    return DatasetSpec(
        name, "social",
        lambda: gen.caveman_social(comms, size, p_in=p_in, p_out_degree=p_out, seed=seed),
        seed, notes=f"{comms}x{size} communities, p_in={p_in}",
    )


#: The full 58-graph suite (names: category prefix + shape hint).
SUITE: List[DatasetSpec] = [
    # -- road: 8 (avg degree ~3-4, omega 3-4) --------------------------------
    _road("road-grid-60", 60, 60, 101),
    _road("road-grid-90", 90, 90, 102),
    _road("road-grid-130", 130, 130, 103),
    _road("road-grid-170", 170, 170, 104),
    _road("road-grid-210", 210, 210, 105),
    _road("road-grid-250", 250, 250, 106),
    _road("road-grid-300", 300, 300, 107),
    _road("road-grid-360", 360, 360, 108, diagonal_p=0.08),
    # -- collab: 10 (low degree, clique-heavy) -------------------------------
    _collab("ca-team-1k", 1_000, 700, 9, 201),
    _collab("ca-team-2k", 2_000, 1_500, 9, 202),
    _collab("ca-team-4k", 4_000, 3_000, 11, 203),
    _collab("ca-team-8k", 8_000, 6_000, 11, 204),
    _collab("ca-team-12k", 12_000, 9_000, 13, 205),
    _collab("ca-team-16k", 16_000, 12_000, 13, 206),
    _collab("ca-team-24k", 24_000, 18_000, 15, 207),
    _collab("ca-team-32k", 32_000, 24_000, 17, 208),
    _collab("ca-team-48k", 48_000, 36_000, 19, 209),
    _collab("ca-team-64k", 64_000, 48_000, 21, 210),
    # -- bio: 8 (heavy tail + protein complexes) ------------------------------
    _bio("bio-cl-1k", 1_000, 6.0, 10, 301),
    _bio("bio-cl-2k", 2_000, 7.0, 12, 302),
    _bio("bio-cl-4k", 4_000, 8.0, 14, 303),
    _bio("bio-cl-8k", 8_000, 8.0, 16, 304),
    _bio("bio-plant-3k", 3_000, 5.0, 0, 305, planted=12),
    _bio("bio-plant-6k", 6_000, 5.0, 0, 306, planted=14),
    _bio("bio-plant-12k", 12_000, 6.0, 0, 307, planted=16),
    _bio("bio-cl-16k", 16_000, 9.0, 20, 308),
    # -- tech: 8 (heavy tail + motifs, lower degree) ---------------------------
    _tech("tech-cl-2k", 2_000, 4.0, 6, 401),
    _tech("tech-cl-4k", 4_000, 4.0, 7, 402),
    _tech("tech-cl-8k", 8_000, 5.0, 8, 403),
    _tech("tech-cl-12k", 12_000, 5.0, 9, 404),
    _tech("tech-cl-20k", 20_000, 5.0, 10, 405),
    _tech("tech-cl-28k", 28_000, 6.0, 11, 406),
    _tech("tech-cl-40k", 40_000, 6.0, 12, 407),
    _tech("tech-cl-56k", 56_000, 6.0, 13, 408),
    # -- web: 10 (R-MAT hubs + link farms) -------------------------------------
    _web("web-rmat-10", 10, 6, 8, 501),
    _web("web-rmat-11", 11, 6, 9, 502),
    _web("web-rmat-12a", 12, 6, 10, 503),
    _web("web-rmat-12b", 12, 10, 12, 504),
    _web("web-rmat-13a", 13, 6, 12, 505),
    _web("web-rmat-13b", 13, 10, 14, 506),
    _web("web-rmat-14a", 14, 6, 14, 507),
    _web("web-rmat-14b", 14, 8, 16, 508),
    _web("web-rmat-15", 15, 6, 16, 509),
    _web("web-rmat-16", 16, 4, 18, 510),
    # -- social: 14 (dense communities; hardest to prune) ----------------------
    _soc("soc-comm-10x50", 10, 50, 0.45, 601),
    _soc("soc-comm-20x60", 20, 60, 0.44, 602),
    _soc("soc-comm-30x70", 30, 70, 0.44, 603),
    _soc("soc-comm-60x80", 60, 80, 0.42, 604, p_out=4.0),
    _soc("fb-comm-30x100", 30, 100, 0.44, 605, p_out=4.0),
    _soc("fb-comm-30x110", 30, 110, 0.46, 606, p_out=4.0),
    _soc("fb-comm-40x120", 40, 120, 0.44, 607, p_out=5.0),
    _soc("fb-comm-20x130", 20, 130, 0.48, 608, p_out=5.0),
    _soc("fb-comm-24x120", 24, 120, 0.46, 609, p_out=5.0),
    _soc("soc-comm-50x90", 50, 90, 0.46, 611, p_out=4.0),
    # hard to prune: average degree far above omega; full BF expected OOM,
    # windowed expected to succeed (the paper's "+4 graphs" group)
    _soc("fb-hard-30x150", 30, 150, 0.48, 612, p_out=5.0),
    _soc("fb-hard-40x150", 40, 150, 0.50, 615, p_out=5.0),
    # two "monsters" expected OOM even windowed (friendster/flickr analogue)
    _soc("fb-monster-40x250", 40, 250, 0.55, 613, p_out=6.0),
    _soc("fb-monster-50x280", 50, 280, 0.58, 614, p_out=6.0),
]

_BY_NAME: Dict[str, DatasetSpec] = {spec.name: spec for spec in SUITE}
assert len(_BY_NAME) == len(SUITE), "duplicate dataset names"

#: names of the two datasets expected to exceed memory even windowed
MONSTERS: Tuple[str, str] = ("fb-monster-40x250", "fb-monster-50x280")


def names() -> List[str]:
    """All dataset names, suite order."""
    return [spec.name for spec in SUITE]


def categories() -> List[str]:
    """Distinct categories, suite order."""
    seen: List[str] = []
    for spec in SUITE:
        if spec.category not in seen:
            seen.append(spec.category)
    return seen


@lru_cache(maxsize=None)
def load(name: str) -> CSRGraph:
    """Build (and memoise) one suite graph by name."""
    try:
        spec = _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; see repro.datasets.names()"
        ) from None
    return spec.build()


def iter_suite(
    categories: Optional[Sequence[str]] = None,
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[DatasetSpec, CSRGraph]]:
    """Yield ``(spec, graph)`` pairs, optionally filtered.

    ``max_edges`` filters *after* generation (graphs are memoised, so
    repeated sweeps are cheap); ``limit`` caps the yielded count --
    handy for smoke tests and scaled-down benchmark runs.
    """
    count = 0
    for spec in SUITE:
        if categories is not None and spec.category not in categories:
            continue
        graph = load(spec.name)
        if max_edges is not None and graph.num_edges > max_edges:
            continue
        yield spec, graph
        count += 1
        if limit is not None and count >= limit:
            return
