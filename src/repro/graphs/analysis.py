"""Structural analysis helpers for topologies.

Used by the examples and the reporting layer to characterise generated
topologies (degree distribution, estimated diameter, path-length statistics)
so that readers can compare the synthetic Internet-like graphs against the
published properties of the CAIDA maps they substitute for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.sampling import sample_nodes, sample_pairs
from repro.graphs.topology import Topology
from repro.utils.distributions import Summary, summarize

__all__ = ["TopologyProfile", "profile_topology", "estimate_diameter"]


@dataclass(frozen=True)
class TopologyProfile:
    """Summary of a topology's structure.

    Attributes
    ----------
    name, num_nodes, num_edges, average_degree, max_degree:
        Basic size/degree facts.
    degree_summary:
        Summary statistics of the degree sequence.
    path_length_summary:
        Summary of shortest-path distances over sampled pairs.
    estimated_diameter:
        Lower bound on the diameter from a double-sweep heuristic.
    """

    name: str
    num_nodes: int
    num_edges: int
    average_degree: float
    max_degree: int
    degree_summary: Summary
    path_length_summary: Summary
    estimated_diameter: float


def estimate_diameter(topology: Topology, *, sweeps: int = 4, seed: int = 0) -> float:
    """Estimate the (weighted) diameter with repeated double sweeps.

    Runs Dijkstra from a sampled node, jumps to the farthest node found, and
    repeats; the largest eccentricity seen is a lower bound that is usually
    tight on Internet-like graphs.
    """
    if topology.num_nodes == 0:
        return 0.0
    start_nodes = sample_nodes(topology, min(sweeps, topology.num_nodes), seed=seed)
    csr = topology.csr()
    best = 0.0
    for start in start_nodes:
        # Unreached nodes hold -1.0, below every distance; the first maximum
        # in id order is the first in (distance, id) settle order.
        dist, _ = csr.spt_rows(start, fill=-1.0)
        eccentricity = max(dist)
        best = max(best, eccentricity)
        dist, _ = csr.spt_rows(dist.index(eccentricity), fill=-1.0)
        best = max(best, max(dist))
    return best


def profile_topology(
    topology: Topology, *, pair_samples: int = 500, seed: int = 0
) -> TopologyProfile:
    """Return a :class:`TopologyProfile` for ``topology``.

    ``pair_samples`` source-destination pairs are sampled to estimate the
    path-length distribution; all other statistics are exact.
    """
    degrees = topology.degree_sequence()
    if topology.num_nodes >= 2:
        pairs = sample_pairs(topology, pair_samples, seed=seed)
        distances = topology.csr().batched_target_distances(pairs)
        path_summary = summarize(distances.values())
    else:
        path_summary = Summary(
            count=0, mean=0.0, minimum=0.0, maximum=0.0,
            median=0.0, p95=0.0, p99=0.0, stdev=0.0,
        )
    return TopologyProfile(
        name=topology.name,
        num_nodes=topology.num_nodes,
        num_edges=topology.num_edges,
        average_degree=topology.average_degree(),
        max_degree=topology.max_degree(),
        degree_summary=summarize(degrees) if degrees else Summary(
            count=0, mean=0.0, minimum=0.0, maximum=0.0,
            median=0.0, p95=0.0, p99=0.0, stdev=0.0,
        ),
        path_length_summary=path_summary,
        estimated_diameter=estimate_diameter(topology, seed=seed),
    )
