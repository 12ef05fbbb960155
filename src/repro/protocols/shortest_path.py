"""Shortest-path routing: the stretch-1, Ω(n)-state baseline.

Traditional routing protocols (link state, distance vector, path vector) all
converge to shortest paths and all store Ω(n) entries per node (§1).  This
scheme is the stretch/congestion baseline in Figs. 4, 5 and 10, and the state
baseline everywhere: every node holds one entry per destination.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

from repro.graphs.csr import tree_path
from repro.graphs.topology import Topology
from repro.protocols.base import RouteResult, RoutingScheme

__all__ = ["ShortestPathRouting"]


class ShortestPathRouting(RoutingScheme):
    """Converged shortest-path routing (one entry per destination per node).

    Each source's shortest-path tree is computed lazily as one dense
    ``(dist, parent)`` row pair and cached, since the congestion workload
    routes from every node exactly once.
    """

    name = "Shortest-Path"

    def __init__(self, topology: Topology, *, seed: int = 0) -> None:
        super().__init__(topology)
        # The seed is accepted for interface uniformity; shortest-path
        # routing has no randomized choices.
        self._seed = seed
        self._cache: dict[int, tuple[array, array]] = {}

    def _tree(self, source: int) -> tuple[array, array]:
        """``source``'s SPT rows; unreachable nodes hold ``inf`` / ``-1``."""
        tree = self._cache.get(source)
        if tree is None:
            n = self._topology.num_nodes
            tree = (array("d", bytes(8 * n)), array("q", bytes(8 * n)))
            self._topology.csr().spt_rows_batch_into(
                (source,), *tree, fill=math.inf, threads=1
            )
            self._cache[source] = tree
        return tree

    def state_profile(
        self, nodes: Sequence[int]
    ) -> tuple[list[int], list[float], list[float]]:
        """One entry per other destination: its name plus a one-byte next hop."""
        self._check_nodes(nodes)
        others = self._topology.num_nodes - 1
        count = len(nodes)
        return [others] * count, [float(others)] * count, [float(others)] * count

    def shortest_path(self, source: int, target: int) -> list[int]:
        """Return one shortest path from ``source`` to ``target``."""
        self._check_endpoints(source, target)
        if source == target:
            return [source]
        return tree_path(self._tree(source)[1], source, target)

    def distance(self, source: int, target: int) -> float:
        """Return the shortest-path distance (``inf`` if unreachable)."""
        self._check_endpoints(source, target)
        if source == target:
            return 0.0
        return self._tree(source)[0][target]

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """All packets follow the shortest path."""
        return RouteResult(
            path=tuple(self.shortest_path(source, target)), mechanism="shortest-path"
        )

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """All packets follow the shortest path."""
        return self.first_packet_route(source, target)
