"""The two dict-shaped search names the frozen ``bench/`` workloads import.

Nothing under ``src/`` imports this module: every search result in the
package is a row (:meth:`repro.graphs.csr.CSRGraph.spt_rows` and the batch
drivers beside it).  Both names leave with ROADMAP item 2, the one PR that
unfreezes ``bench/``.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.graphs.topology import Topology

__all__ = ["dijkstra", "all_pairs_sampled_distances"]


def dijkstra(
    topology: Topology, source: int
) -> tuple[dict[int, float], dict[int, int]]:
    """``(distances, predecessors)`` dicts over the nodes ``source`` reaches.

    Built from one ``spt_rows(source, fill=inf)`` row, in node-id order;
    ``predecessors`` has no entry for ``source``.
    """
    dist, parent = topology.csr().spt_rows(source, fill=math.inf)
    distances = {node: d for node, d in enumerate(dist) if d != math.inf}
    predecessors = {node: parent[node] for node in distances if node != source}
    return distances, predecessors


def all_pairs_sampled_distances(
    topology: Topology,
    pairs: Iterable[tuple[int, int]],
    *,
    threads: int | None = None,
) -> dict[tuple[int, int], float]:
    """Shortest distances for source-destination pairs: one
    :meth:`~repro.graphs.csr.CSRGraph.batched_target_distances` call."""
    return topology.csr().batched_target_distances(pairs, threads=threads)
