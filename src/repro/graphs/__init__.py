"""Graph substrate: topologies, generators, and shortest-path machinery.

Everything above this package (protocols, simulators, experiments) talks to
graphs through :class:`repro.graphs.Topology` and the flat-array CSR kernels
its :meth:`~repro.graphs.Topology.csr` snapshot carries
(:mod:`repro.graphs.csr`: generation-stamped scratch arrays, a BFS fast path
for unit-weight graphs, batched multi-source drivers); every search result
is a row.  The seed's dict-based implementation is the differential oracle
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
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.sampling import sample_nodes, sample_pairs

__all__ = [
    "CSRGraph",
    "Topology",
    "TopologyBuilder",
    "geometric_random_graph",
    "gnm_random_graph",
    "grid_graph",
    "internet_as_level",
    "internet_router_level",
    "line_graph",
    "read_edge_list",
    "ring_graph",
    "sample_nodes",
    "sample_pairs",
    "star_graph",
    "two_level_tree",
    "write_edge_list",
]
