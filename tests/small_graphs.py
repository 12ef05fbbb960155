"""Hand-shaped fixture graphs: a path, a grid and a star.

Tests use them where a topology's shape makes the expected answer obvious
(a path's distances, a star's single hub).  No experiment runs on them, so
they live here and not among ``repro.graphs.generators``.
"""

from __future__ import annotations

from repro.graphs.topology import Topology, TopologyBuilder
from repro.utils.validation import require_positive

__all__ = ["grid_graph", "line_graph", "star_graph"]


def line_graph(num_nodes: int, *, weight: float = 1.0) -> Topology:
    """Return a path graph of ``num_nodes`` nodes."""
    require_positive("num_nodes", num_nodes)
    topology = TopologyBuilder(num_nodes, name=f"line-{num_nodes}")
    for node in range(num_nodes - 1):
        topology.add_edge(node, node + 1, weight)
    return topology.freeze()


def grid_graph(rows: int, cols: int, *, weight: float = 1.0) -> Topology:
    """Return a ``rows x cols`` grid graph with uniform edge weights."""
    require_positive("rows", rows)
    require_positive("cols", cols)
    topology = TopologyBuilder(rows * cols, name=f"grid-{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                topology.add_edge(node, node + 1, weight)
            if r + 1 < rows:
                topology.add_edge(node, node + cols, weight)
    return topology.freeze()


def star_graph(num_leaves: int, *, weight: float = 1.0) -> Topology:
    """Return a star: node 0 is the hub, nodes 1..num_leaves are leaves."""
    require_positive("num_leaves", num_leaves)
    topology = TopologyBuilder(num_leaves + 1, name=f"star-{num_leaves}")
    for leaf in range(1, num_leaves + 1):
        topology.add_edge(0, leaf, weight)
    return topology.freeze()
