"""Vicinities: the Θ(√(n log n)) nodes closest to each node (§4.2).

"Each node v learns shortest paths to every node in its vicinity V(v): the
Θ(√(n log n)) nodes closest to v.  These sizes ensure that each node has a
landmark within its vicinity w.h.p."

A :class:`VicinityTable` stores, for one node, the members of its vicinity
with their distances and the predecessor tree of the truncated shortest-path
search, so that the routing code can both test membership (O(1)) and extract
the actual shortest path to any member (for forwarding, shortcutting, and
congestion accounting).

Unlike S4's clusters, the vicinity size is *fixed* by n alone -- "S4 expands
its cluster until it reaches a landmark, while NDDisco and Disco have
vicinities which are fixed at Θ(√(n log n)) nodes" (§5.2) -- which is what
enforces the per-node state bound on any topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graphs.shortest_paths import extract_path
from repro.graphs.topology import Topology
from repro.utils.validation import require_positive

__all__ = ["vicinity_size", "VicinityTable", "compute_vicinities"]


def vicinity_size(num_nodes: int, *, scale: float = 1.0) -> int:
    """Return the target vicinity size ceil(scale * sqrt(n * ln n)).

    ``scale`` is the constant hidden in the Θ; 1.0 reproduces the paper's
    sizing (with natural log), and the experiments keep it at 1.0.  The size
    is clamped to ``num_nodes`` (a node's vicinity can never exceed the whole
    network) and is at least 1 (the node itself).
    """
    require_positive("num_nodes", num_nodes)
    require_positive("scale", scale)
    if num_nodes == 1:
        return 1
    size = math.ceil(scale * math.sqrt(num_nodes * math.log(num_nodes)))
    return max(1, min(num_nodes, size))


@dataclass(frozen=True)
class VicinityTable:
    """The vicinity of one node: members, distances, and shortest paths.

    Attributes
    ----------
    node:
        The vicinity's owner v.
    distances:
        Mapping member -> shortest distance d(v, member).  Includes v itself
        at distance 0.
    predecessors:
        Predecessor map of the truncated Dijkstra rooted at ``node``; paths
        to members are reconstructed from it on demand.
    """

    node: int
    distances: dict[int, float]
    predecessors: dict[int, int]

    def __contains__(self, other: int) -> bool:
        return other in self.distances

    def __len__(self) -> int:
        return len(self.distances)

    @property
    def members(self) -> set[int]:
        """The member node ids (including the owner)."""
        return set(self.distances)

    def distance_to(self, member: int) -> float:
        """Shortest distance from the owner to ``member``.

        Raises
        ------
        KeyError
            If ``member`` is not in the vicinity.
        """
        return self.distances[member]

    def path_to(self, member: int) -> list[int]:
        """Shortest path from the owner to ``member`` (owner first)."""
        if member not in self.distances:
            raise KeyError(
                f"node {member} is not in the vicinity of {self.node}"
            )
        return extract_path(self.predecessors, self.node, member)

    def radius(self) -> float:
        """Distance to the farthest vicinity member (0.0 for a lone node)."""
        return max(self.distances.values()) if self.distances else 0.0


def compute_vicinities(
    topology: Topology,
    *,
    size: int | None = None,
    scale: float = 1.0,
) -> list[VicinityTable]:
    """Compute every node's vicinity.

    Parameters
    ----------
    size:
        Explicit vicinity size; defaults to :func:`vicinity_size` for the
        topology's node count.
    scale:
        Passed to :func:`vicinity_size` when ``size`` is not given.

    Returns
    -------
    list
        :class:`VicinityTable` objects indexed by node id.
    """
    if size is None:
        size = vicinity_size(topology.num_nodes, scale=scale)
    require_positive("size", size)
    csr = topology.csr()
    return [
        VicinityTable(node, *csr.dijkstra_k_nearest(node, size))
        for node in range(topology.num_nodes)
    ]
