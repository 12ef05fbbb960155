"""Graph substrate: topologies, generators, and shortest-path machinery.

Everything above this package (protocols, simulators, experiments) talks to
graphs exclusively through :class:`repro.graphs.Topology` and the functions in
:mod:`repro.graphs.shortest_paths`.  Those functions are thin wrappers over
the flat-array CSR kernels in :mod:`repro.graphs.csr` (generation-stamped
scratch arrays, a BFS fast path for unit-weight graphs, batched multi-source
drivers).  The seed's dict-based implementation is the differential oracle
under ``tests/oracles/``; ``networkx`` is a second cross-check oracle, also
used only in the test suite.
"""

from repro.graphs.topology import Topology, TopologyBuilder
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    grid_graph,
    internet_as_level,
    internet_router_level,
    line_graph,
    ring_graph,
    star_graph,
    two_level_tree,
)
from repro.graphs.shortest_paths import (
    all_pairs_sampled_distances,
    dijkstra,
    dijkstra_k_nearest,
    dijkstra_radius,
    extract_path,
    path_length,
    shortest_path,
    shortest_path_tree,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.sampling import sample_nodes, sample_pairs

__all__ = [
    "CSRGraph",
    "Topology",
    "TopologyBuilder",
    "all_pairs_sampled_distances",
    "dijkstra",
    "dijkstra_k_nearest",
    "dijkstra_radius",
    "extract_path",
    "geometric_random_graph",
    "gnm_random_graph",
    "grid_graph",
    "internet_as_level",
    "internet_router_level",
    "line_graph",
    "path_length",
    "read_edge_list",
    "ring_graph",
    "sample_nodes",
    "sample_pairs",
    "shortest_path",
    "shortest_path_tree",
    "star_graph",
    "two_level_tree",
    "write_edge_list",
]
