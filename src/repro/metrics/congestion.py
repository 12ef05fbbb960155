"""Congestion measurement (Figs. 4, 5, 10).

"To compute congestion, we have each node route to a random destination and
count the number of times each edge is used" (§5.2).  The metric of interest
is the distribution of paths-per-edge -- in particular its tail, where routing
through landmarks could in principle concentrate load.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """
    topology = scheme.topology
    flows = list(pairs) if pairs is not None else one_destination_per_node(
        topology, seed=seed
    )
    router = scheme.router()
    route = router.later if use_later_packets else router.first
    usage: dict[tuple[int, int], int] = {
        (u, v): 0 for u, v, _ in topology.edges()
    }
    for source, target in flows:
        if source == target:
            continue
        result = route(source, target)
        for a, b in zip(result.path, result.path[1:]):
            key = (a, b) if a < b else (b, a)
            usage[key] = usage.get(key, 0) + 1
    return CongestionReport(
        scheme=scheme.name,
        edge_usage=usage,
        flows=len(flows),
        use_later_packets=use_later_packets,
    )
