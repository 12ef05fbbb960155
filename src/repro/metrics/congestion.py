"""Congestion measurement (Figs. 4, 5, 10).

"To compute congestion, we have each node route to a random destination and
count the number of times each edge is used" (§5.2).  The metric of interest
is the distribution of paths-per-edge -- in particular its tail, where routing
through landmarks could in principle concentrate load.

All flows are routed on one ``scheme.router()`` into one flat array of
ids, counted in one :meth:`~repro.graphs.csr.CSRGraph.route_walks` call
(one C call on the C tier), whose per-edge counts are written over every
topology edge at 0.  A route with a hop that is not an edge raises the
``KeyError`` :func:`~repro.metrics.stretch.measure_stretch` raises for it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from repro.graphs.sampling import one_destination_per_node
from repro.protocols.base import RoutingScheme
from repro.utils.distributions import Summary, summarize

__all__ = ["CongestionReport", "measure_congestion"]


@dataclass(frozen=True)
class CongestionReport:
    """Edge-usage counts for one protocol under the one-flow-per-node workload.

    Attributes
    ----------
    scheme:
        Protocol name.
    edge_usage:
        Mapping (u, v) with u < v -> number of routed paths using the edge.
        Every topology edge appears, including unused ones (count 0), because
        the paper's CDFs are taken over *all* edges.
    flows:
        Number of routed flows.
    use_later_packets:
        Whether later-packet routes (True) or first-packet routes were used.
    """

    scheme: str
    edge_usage: dict[tuple[int, int], int]
    flows: int
    use_later_packets: bool

    @property
    def usage_values(self) -> list[int]:
        """Paths-per-edge values over all edges."""
        return list(self.edge_usage.values())

    @property
    def summary(self) -> Summary:
        """Summary statistics of paths-per-edge."""
        return summarize(self.usage_values)

    def max_usage(self) -> int:
        """The most heavily used edge's path count."""
        return max(self.usage_values) if self.edge_usage else 0

    def fraction_above(self, threshold: int) -> float:
        """Fraction of edges carrying more than ``threshold`` paths (tail mass)."""
        if not self.edge_usage:
            return 0.0
        above = sum(1 for value in self.usage_values if value > threshold)
        return above / len(self.edge_usage)


def measure_congestion(
    scheme: RoutingScheme,
    *,
    pairs: Sequence[tuple[int, int]] | None = None,
    seed: int = 0,
    use_later_packets: bool = True,
) -> CongestionReport:
    """Measure paths-per-edge for ``scheme``.

    Parameters
    ----------
    pairs:
        The flows to route; defaults to the paper's workload of one random
        destination per node.
    seed:
        Workload sampling seed.
    use_later_packets:
        Route flows with later-packet routes (default, matching steady-state
        traffic) or with first-packet routes.

    Raises
    ------
    KeyError
        If a route takes a hop that is not an edge of the topology.
    """
    topology = scheme.topology
    flows = list(pairs) if pairs is not None else one_destination_per_node(
        topology, seed=seed
    )
    router = scheme.router()
    router.prefetch(
        flows, first=not use_later_packets, later=use_later_packets
    )
    route = router.later if use_later_packets else router.first
    nodes, ends = array("q"), array("q")
    for source, target in flows:
        if source != target:
            nodes.extend(route(source, target).path)
            ends.append(len(nodes))
    _, used, status = topology.csr().route_walks(nodes, ends)
    for start, end, code in zip(chain((0,), ends), ends, status):
        if code:  # a hop that is no edge: the rule raises its KeyError
            router.route_length(nodes[start:end])
    usage: dict[tuple[int, int], int] = {
        (u, v): 0 for u, v, _ in topology.edges()
    }
    triples = iter(used)
    for lo, hi, uses in zip(triples, triples, triples):
        usage[(lo, hi)] = uses
    return CongestionReport(
        scheme=scheme.name,
        edge_usage=usage,
        flows=len(flows),
        use_later_packets=use_later_packets,
    )
