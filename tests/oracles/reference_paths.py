"""Reference dict-based Dijkstra kernels (the pre-CSR implementation).

This is the original heapq-over-dicts engine the repository started with,
preserved as the **differential oracle**: ``tests/test_graphs_csr.py``,
``tests/test_graphs_kernels_weighted.py`` and
``tests/test_substrate_tables.py`` assert that the CSR kernels, and the
converged state the schemes build from them, are bit-identical to what these
functions return across topology families.  Nothing under ``src/`` imports
it.

The only deliberate change from the seed code: ``dijkstra_k_nearest`` and
``dijkstra_radius`` now apply the same equal-distance smaller-predecessor
tie-break that ``dijkstra`` always had, so every variant resolves tied
shortest paths to the same predecessor map (previously the truncated variants
kept whichever predecessor was pushed first).  Distances are unaffected.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.graphs.topology import Topology

__all__ = [
    "dijkstra",
    "dijkstra_k_nearest",
    "dijkstra_radius",
    "all_pairs_sampled_distances",
]


def dijkstra(
    topology: Topology,
    source: int,
    *,
    targets: Iterable[int] | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest paths from ``source`` (dict-based engine)."""
    adjacency = topology.adjacency
    distances: dict[int, float] = {}
    predecessors: dict[int, int] = {}
    remaining = set(targets) if targets is not None else None
    # Heap entries are (distance, node, predecessor); the node-id tie-break
    # comes from pushing candidates in neighbor order and relying on the
    # strict-improvement test below.
    heap: list[tuple[float, int, int]] = [(0.0, source, -1)]
    best_seen: dict[int, float] = {source: 0.0}
    best_pred: dict[int, int] = {}
    while heap:
        dist, node, pred = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = dist
        if pred >= 0:
            predecessors[node] = pred
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for neighbor, weight in adjacency[node]:
            if neighbor in distances:
                continue
            candidate = dist + weight
            seen = best_seen.get(neighbor)
            if (
                seen is None
                or candidate < seen
                or (candidate == seen and node < best_pred.get(neighbor, node + 1))
            ):
                best_seen[neighbor] = candidate
                best_pred[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor, node))
    return distances, predecessors


def dijkstra_k_nearest(
    topology: Topology,
    source: int,
    k: int,
) -> tuple[dict[int, float], dict[int, int]]:
    """The ``k`` nodes nearest ``source`` (dict-based engine)."""
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    adjacency = topology.adjacency
    distances: dict[int, float] = {}
    predecessors: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, source, -1)]
    best_seen: dict[int, float] = {source: 0.0}
    best_pred: dict[int, int] = {}
    while heap and len(distances) < k:
        dist, node, pred = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = dist
        if pred >= 0:
            predecessors[node] = pred
        for neighbor, weight in adjacency[node]:
            if neighbor in distances:
                continue
            candidate = dist + weight
            seen = best_seen.get(neighbor)
            if (
                seen is None
                or candidate < seen
                or (candidate == seen and node < best_pred.get(neighbor, node + 1))
            ):
                best_seen[neighbor] = candidate
                best_pred[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor, node))
    return distances, predecessors


def dijkstra_radius(
    topology: Topology,
    source: int,
    radius: float,
    *,
    inclusive: bool = False,
) -> tuple[dict[int, float], dict[int, int]]:
    """All nodes within ``radius`` of ``source`` (dict-based engine)."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    adjacency = topology.adjacency
    distances: dict[int, float] = {}
    predecessors: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, source, -1)]
    best_seen: dict[int, float] = {source: 0.0}
    best_pred: dict[int, int] = {}
    while heap:
        dist, node, pred = heapq.heappop(heap)
        if node in distances:
            continue
        if inclusive:
            if dist > radius:
                break
        elif dist >= radius and node != source:
            break
        distances[node] = dist
        if pred >= 0:
            predecessors[node] = pred
        for neighbor, weight in adjacency[node]:
            if neighbor in distances:
                continue
            candidate = dist + weight
            seen = best_seen.get(neighbor)
            if (
                seen is None
                or candidate < seen
                or (candidate == seen and node < best_pred.get(neighbor, node + 1))
            ):
                best_seen[neighbor] = candidate
                best_pred[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor, node))
    return distances, predecessors


def all_pairs_sampled_distances(
    topology: Topology, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], float]:
    """Shortest distances for source-destination pairs (dict-based engine)."""
    by_source: dict[int, set[int]] = {}
    for source, target in pairs:
        by_source.setdefault(source, set()).add(target)
    result: dict[tuple[int, int], float] = {}
    for source, targets in by_source.items():
        distances, _ = dijkstra(topology, source, targets=targets)
        for target in targets:
            if target not in distances:
                raise ValueError(
                    f"node {target} unreachable from {source}; "
                    "topology must be connected"
                )
            result[(source, target)] = distances[target]
    return result
