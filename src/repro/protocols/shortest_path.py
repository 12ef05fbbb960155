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
from repro.protocols.base import PairRouter, RouteResult, RoutingScheme

__all__ = ["ShortestPathRouting"]


class ShortestPathRouting(RoutingScheme):
    """Converged shortest-path routing (one entry per destination per node).

    A route walks its source's shortest-path tree, one dense ``(dist,
    parent)`` row pair searched on demand.  The scheme keeps none: its
    :meth:`router` holds the rows of the source it routed last, so a pair's
    first- and later-packet routes share them, and a batch that routes
    each source once (the congestion workload) holds one pair at a time.
    """

    name = "Shortest-Path"

    def __init__(self, topology: Topology, *, seed: int = 0) -> None:
        super().__init__(topology)
        # The seed is accepted for interface uniformity; shortest-path
        # routing has no randomized choices.
        self._seed = seed

    def router(self) -> "_ShortestPathRouter":
        """A router holding the SPT rows of the last source it routed."""
        return _ShortestPathRouter(self)

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
        return self.router().path(source, target)

    def distance(self, source: int, target: int) -> float:
        """Return the shortest-path distance (``inf`` if unreachable)."""
        self._check_endpoints(source, target)
        return 0.0 if source == target else self.router().rows(source)[0][target]

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """All packets follow the shortest path."""
        return RouteResult(
            path=tuple(self.shortest_path(source, target)), mechanism="shortest-path"
        )

    later_packet_route = first_packet_route


class _ShortestPathRouter(PairRouter):
    """Routes on the SPT rows of one source at a time, searched when the
    source changes; they die with the router."""

    _source = -1

    def rows(self, source: int) -> tuple[array, array]:
        """``source``'s SPT rows; unreachable nodes hold ``inf`` / ``-1``."""
        if source != self._source:
            n = self.scheme.topology.num_nodes
            self._rows = (array("d", bytes(8 * n)), array("q", bytes(8 * n)))
            self.scheme.topology.csr().spt_rows_batch_into(
                (source,), *self._rows, fill=math.inf, threads=1
            )
            self._source = source
        return self._rows

    def path(self, source: int, target: int) -> list[int]:
        """One shortest path ``source .. target`` (endpoints unchecked)."""
        if source == target:
            return [source]
        return tree_path(self.rows(source)[1], source, target)

    def _first(self, source: int, target: int) -> RouteResult:
        return RouteResult(
            path=tuple(self.path(source, target)), mechanism="shortest-path"
        )

    _later = _first
