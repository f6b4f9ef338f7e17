"""Graph substrate: CSR structure, builders, IO, generators, k-core.

Plays the role of the Gunrock graph stack in the paper's pipeline.
"""

from .build import (
    from_adjacency,
    from_edge_array,
    from_edge_list,
    induced_subgraph,
    relabel_random,
    run_positions,
)
from .coloring import (
    coloring_upper_bound,
    degeneracy_order,
    greedy_coloring,
)
from .csr import CSRGraph
from .io import (
    load_graph,
    parse_edge_list_text,
    read_dimacs,
    read_edge_list,
    read_mtx,
    write_dimacs,
    write_edge_list,
    write_mtx,
)
from .kcore import core_numbers, degeneracy, kcore_subgraph_vertices
from .orientation import orient_edges, orientation_rank
from .stats import GraphStats, analyze, degree_histogram, triangle_count
from . import generators

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "from_edge_array",
    "from_adjacency",
    "relabel_random",
    "induced_subgraph",
    "run_positions",
    "load_graph",
    "parse_edge_list_text",
    "read_edge_list",
    "write_edge_list",
    "read_mtx",
    "write_mtx",
    "read_dimacs",
    "write_dimacs",
    "core_numbers",
    "degeneracy",
    "kcore_subgraph_vertices",
    "greedy_coloring",
    "coloring_upper_bound",
    "degeneracy_order",
    "orient_edges",
    "orientation_rank",
    "GraphStats",
    "analyze",
    "triangle_count",
    "degree_histogram",
    "generators",
]
