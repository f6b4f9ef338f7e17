"""Ablation: degree orientation vs index orientation (Section IV-C).

The paper argues degree orientation improves pruning because
low-degree sources make the initial sublists shorter, so more fall
below the heuristic bound. This bench measures 2-clique pruning and
total stored candidates under both orientations.
"""

from repro.core.config import RankKey, SolverConfig
from repro.datasets.suite import iter_suite
from repro.experiments.harness import EVAL_SPEC, run_config
from repro.experiments.report import geometric_mean, render_table

from conftest import BENCH_SCALE, run_once


def _compare():
    rows = []
    for spec, graph in iter_suite(
        max_edges=BENCH_SCALE["max_edges"], limit=24
    ):
        recs = {}
        for key in (RankKey.DEGREE, RankKey.INDEX):
            config = SolverConfig(orientation_key=key)
            recs[key.value] = run_config(
                spec, graph, config, EVAL_SPEC, BENCH_SCALE["timeout_s"]
            )
        rows.append((spec.name, recs["degree"], recs["index"]))
    return rows


def test_orientation_ablation(benchmark):
    rows = run_once(benchmark, _compare)
    print()
    print(
        render_table(
            ["dataset", "deg pruned", "idx pruned", "deg stored", "idx stored"],
            [
                (
                    name,
                    f"{d.pruned_fraction:.1%}" if d.ok else "OOM",
                    f"{i.pruned_fraction:.1%}" if i.ok else "OOM",
                    d.search_memory_bytes if d.ok else "-",
                    i.search_memory_bytes if i.ok else "-",
                )
                for name, d, i in rows
            ],
            title="Ablation: degree vs index orientation",
        )
    )
    both_ok = [(d, i) for _, d, i in rows if d.ok and i.ok]
    assert len(both_ok) >= 10
    # identical answers regardless of orientation
    for d, i in both_ok:
        assert d.omega == i.omega
        assert d.num_max_cliques == i.num_max_cliques
    # degree orientation prunes at least as well on average
    ratio = geometric_mean(
        [
            max(d.pruned_fraction, 1e-6) / max(i.pruned_fraction, 1e-6)
            for d, i in both_ok
        ]
    )
    assert ratio >= 0.95
