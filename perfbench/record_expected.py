"""Recompute the answers the benchmark checks against.

The benchmark compares every batch and wire answer with ω from the
independent PMC branch and bound (``repro.baselines.pmc``) and the one
k-clique count with the combinatorial reference counter
(``repro.baselines.kclique``). Both oracles take about ten seconds over
the thirteen graphs, too long to repeat in every run, so their answers
are recorded once in ``expected.json`` beside this file.

    python3 perfbench/record_expected.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.baselines.kclique import count_k_cliques_reference  # noqa: E402
from repro.baselines.pmc import pmc_max_clique  # noqa: E402
from repro.datasets import load  # noqa: E402

from graphs import DENSE, SPARSE, WIRE  # noqa: E402


def main() -> None:
    names = sorted({name for name, _ in DENSE + SPARSE} | set(WIRE))
    doc = {
        "omega": {
            name: int(pmc_max_clique(load(name)).clique_number) for name in names
        },
        "k_clique_count": {
            f"{name}/k={cfg['k']}": count_k_cliques_reference(load(name), cfg["k"])
            for name, cfg in DENSE
            if cfg.get("problem") == "k-clique-count"
        },
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
