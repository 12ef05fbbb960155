"""Shortest-path routing: the stretch-1, Ω(n)-state baseline.

Traditional routing protocols (link state, distance vector, path vector) all
converge to shortest paths and all store Ω(n) entries per node (§1).  This
scheme is the stretch/congestion baseline in Figs. 4, 5 and 10, and the state
baseline everywhere: every node holds one entry per destination.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.shortest_paths import dijkstra, extract_path
from repro.graphs.topology import Topology
from repro.protocols.base import RouteResult, RoutingScheme

__all__ = ["ShortestPathRouting"]


class ShortestPathRouting(RoutingScheme):
    """Converged shortest-path routing (one entry per destination per node).

    Routes are computed lazily with Dijkstra and cached per source, since the
    congestion workload routes from every node exactly once.
    """

    name = "Shortest-Path"

    def __init__(self, topology: Topology, *, seed: int = 0) -> None:
        super().__init__(topology)
        # The seed is accepted for interface uniformity; shortest-path
        # routing has no randomized choices.
        self._seed = seed
        self._cache: dict[int, tuple[dict[int, float], dict[int, int]]] = {}

    def _tree(self, source: int) -> tuple[dict[int, float], dict[int, int]]:
        if source not in self._cache:
            self._cache[source] = dijkstra(self._topology, source)
        return self._cache[source]

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
        _, predecessors = self._tree(source)
        return extract_path(predecessors, source, target)

    def distance(self, source: int, target: int) -> float:
        """Return the shortest-path distance between the endpoints."""
        self._check_endpoints(source, target)
        if source == target:
            return 0.0
        distances, _ = self._tree(source)
        return distances[target]

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """All packets follow the shortest path."""
        return RouteResult(
            path=tuple(self.shortest_path(source, target)), mechanism="shortest-path"
        )

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """All packets follow the shortest path."""
        return self.first_packet_route(source, target)
