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

It also keeps the seed's dict-side path helpers (:func:`extract_path`,
:func:`shortest_path`, :func:`path_length`) and reads the production row
drivers back into the dict shape the kernels above return
(:func:`spt_search`, :func:`k_nearest_search`, :func:`radius_search`), so a
differential compares like with like, and hands a topology to networkx
(:func:`to_networkx`) for a second, independent reference.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping, Sequence

from repro.graphs.topology import Topology

__all__ = [
    "dijkstra",
    "dijkstra_k_nearest",
    "dijkstra_radius",
    "all_pairs_sampled_distances",
    "extract_path",
    "path_length",
    "shortest_path",
    "spt_search",
    "k_nearest_search",
    "radius_search",
    "to_networkx",
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


def extract_path(
    predecessors: Mapping[int, int], source: int, target: int
) -> list[int]:
    """The path ``source .. target`` from a predecessor map rooted at
    ``source``; ``ValueError`` if ``target`` is not in it."""
    if target == source:
        return [source]
    path = [target]
    node = target
    visited = {target}
    while node != source:
        if node not in predecessors:
            raise ValueError(
                f"target {target} not reachable from {source} in predecessor map"
            )
        node = predecessors[node]
        if node in visited:
            raise ValueError("cycle detected in predecessor map")
        visited.add(node)
        path.append(node)
    path.reverse()
    return path


def shortest_path(topology: Topology, source: int, target: int) -> list[int]:
    """One shortest path ``source .. target`` as a node list."""
    _, predecessors = dijkstra(topology, source, targets=[target])
    return extract_path(predecessors, source, target)


def path_length(topology: Topology, path: Sequence[int]) -> float:
    """The total weight of ``path``, summed left to right; ``ValueError`` if
    it is empty or uses a non-existent edge."""
    if not path:
        raise ValueError("path must contain at least one node")
    total = 0.0
    for u, v in zip(path, path[1:]):
        weight = topology.get_edge_weight(u, v)
        if weight is None:
            raise ValueError(f"path uses non-existent edge ({u}, {v})")
        total += weight
    return total


# -- the production row drivers, read back as (distances, predecessors) ----


def _row_dicts(members, dists, parents) -> tuple[dict, dict]:
    """One settle-order row as dicts; the first member is the source."""
    distances = dict(zip(members, dists))
    predecessors = dict(zip(members[1:], parents[1:]))
    return distances, predecessors


def spt_search(csr, source: int) -> tuple[dict, dict]:
    """``csr.spt_rows(source)`` over the nodes it reaches, in id order."""
    dist, parent = csr.spt_rows(source, fill=math.inf)
    distances = {node: d for node, d in enumerate(dist) if d != math.inf}
    predecessors = {node: parent[node] for node in distances if node != source}
    return distances, predecessors


def k_nearest_search(csr, source: int, k: int) -> tuple[dict, dict]:
    """One ``k_nearest_batch_flat`` row, in settle order."""
    _, members, dists, parents = csr.k_nearest_batch_flat(k, [source])
    return _row_dicts(members, dists, parents)


def radius_search(
    csr, source: int, radius: float, *, inclusive: bool = False
) -> tuple[dict, dict]:
    """One ``radius_batch_flat`` row, in settle order."""
    _, members, dists, parents = csr.radius_batch_flat(
        [radius], [source], inclusive=inclusive
    )
    return _row_dicts(members, dists, parents)


def to_networkx(topology: Topology):
    """An equivalent ``networkx.Graph`` (weights on ``"weight"``): networkx's
    own algorithms are a second reference for the kernels."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_nodes))
    for u, v, weight in topology.edges():
        graph.add_edge(u, v, weight=weight)
    return graph
