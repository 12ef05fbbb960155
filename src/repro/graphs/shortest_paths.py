"""Dijkstra variants tuned for compact routing (stable public API).

The compact-routing protocols need several flavors of shortest-path search:

* Full single-source Dijkstra (landmark shortest-path trees, stretch
  denominators).
* *k-nearest* truncated Dijkstra -- "the Θ(√(n log n)) nodes closest to v"
  that define a node's vicinity (§4.2).
* *Radius-bounded* Dijkstra -- used to build S4 clusters, where node ``w``
  belongs to ``v``'s cluster iff ``d(v, w) < d(w, ℓ_w)``; we run a search
  from ``w`` bounded by that radius.
* Path extraction from predecessor maps and path-length evaluation, used by
  the stretch and congestion metrics.

Determinism guarantees
----------------------
All functions operate on :class:`repro.graphs.Topology` and apply one shared
rule in every variant: nodes settle in ``(distance, node id)`` order, and
equal-distance predecessor ties resolve toward the smaller predecessor id.
The guarantee holds across the CSR kernels (BFS / Dial bucket queue /
indexed 4-ary heap) and across the compiled-C and pure-Python tiers, and
the seed's dict-based implementation (the oracle under ``tests/oracles/``)
obeys the same rule, which is what lets the differential tests compare
them bit for bit -- and what makes every experiment reproducible from its
seed alone.

The engine
----------
These functions are thin wrappers over the flat-array engine in
:mod:`repro.graphs.csr`, cached per topology via :meth:`Topology.csr` (the
cache also holds the scratch arena, which lives as long as the snapshot --
results returned here are fresh dicts and never alias it).  The kernel is
chosen per graph from the cached :meth:`Topology.weight_profile`; see the
decision table in ``docs/ARCHITECTURE.md``.

Examples
--------
>>> from repro.graphs.topology import Topology
>>> diamond = Topology.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
>>> distances, predecessors = dijkstra(diamond, 0)
>>> distances[3]
2.0
>>> predecessors[3]  # tie between 1 and 2 resolves to the smaller id
1
>>> shortest_path(diamond, 0, 3)
[0, 1, 3]
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.graphs.topology import Topology

__all__ = [
    "dijkstra",
    "dijkstra_k_nearest",
    "dijkstra_radius",
    "shortest_path_tree",
    "shortest_path",
    "extract_path",
    "path_length",
    "all_pairs_sampled_distances",
]


def dijkstra(
    topology: Topology,
    source: int,
    *,
    targets: Iterable[int] | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest paths from ``source``.

    Parameters
    ----------
    topology:
        The graph to search.
    source:
        Starting node.
    targets:
        Optional set of nodes; if given, the search stops as soon as all of
        them have been settled (distances for other settled nodes are still
        returned).

    Returns
    -------
    (distances, predecessors)
        ``distances[v]`` is the shortest distance from ``source`` to ``v`` for
        every reachable (settled) node; ``predecessors[v]`` is the previous
        hop on one shortest path (ties broken toward smaller node ids).
        ``predecessors`` has no entry for ``source``.
    """
    return topology.csr().dijkstra(source, targets=targets)


def dijkstra_k_nearest(
    topology: Topology,
    source: int,
    k: int,
) -> tuple[dict[int, float], dict[int, int]]:
    """Return the ``k`` nodes nearest to ``source`` (including ``source``).

    This is the vicinity computation of §4.2: the search stops once ``k``
    nodes have been settled.  Ties at the boundary are resolved by distance
    then node id, so the vicinity is deterministic.

    Returns
    -------
    (distances, predecessors)
        As in :func:`dijkstra`, restricted to the settled nodes.  If the
        connected component of ``source`` has fewer than ``k`` nodes, the
        whole component is returned.

    Examples
    --------
    >>> from repro.graphs.topology import Topology
    >>> line = Topology.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    >>> sorted(dijkstra_k_nearest(line, 2, 3)[0])
    [1, 2, 3]
    """
    return topology.csr().dijkstra_k_nearest(source, k)


def dijkstra_radius(
    topology: Topology,
    source: int,
    radius: float,
    *,
    inclusive: bool = False,
) -> tuple[dict[int, float], dict[int, int]]:
    """Return all nodes within ``radius`` of ``source``.

    Parameters
    ----------
    inclusive:
        Controls the exact-boundary behavior.  If False (default) the
        boundary is strict (``d(source, v) < radius``), matching the S4
        cluster definition ``d(v, w) < d(w, ℓ_w)``: a node at *exactly*
        ``radius`` is excluded.  If True the comparison is ``<=`` and
        boundary nodes are included.  The source itself always settles,
        even with ``radius=0.0``.

    Examples
    --------
    A node at exactly the radius is excluded by default and included with
    ``inclusive=True``:

    >>> from repro.graphs.topology import Topology
    >>> path = Topology.from_edges(3, [(0, 1, 1.5), (1, 2, 1.5)])
    >>> sorted(dijkstra_radius(path, 0, 3.0)[0])
    [0, 1]
    >>> sorted(dijkstra_radius(path, 0, 3.0, inclusive=True)[0])
    [0, 1, 2]
    """
    return topology.csr().dijkstra_radius(source, radius, inclusive=inclusive)


def shortest_path_tree(
    topology: Topology, root: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Return the shortest-path tree rooted at ``root``.

    Identical to :func:`dijkstra` over the whole component; named separately
    because landmarks use it to derive the explicit routes embedded in
    addresses (the tree gives, for every node, its parent toward the root).
    """
    return dijkstra(topology, root)


def extract_path(
    predecessors: Mapping[int, int], source: int, target: int
) -> list[int]:
    """Reconstruct the path ``source .. target`` from a predecessor map.

    The predecessor map must come from a search rooted at ``source``.

    Raises
    ------
    ValueError
        If ``target`` is not reachable in the predecessor map.
    """
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
    """Return one shortest path from ``source`` to ``target`` as a node list."""
    _, predecessors = dijkstra(topology, source, targets=[target])
    return extract_path(predecessors, source, target)


def path_length(topology: Topology, path: Sequence[int]) -> float:
    """Return the total weight of ``path`` (a sequence of adjacent nodes).

    Raises
    ------
    ValueError
        If the path is empty or uses a non-existent edge.

    Examples
    --------
    >>> from repro.graphs.topology import Topology
    >>> path = Topology.from_edges(3, [(0, 1, 1.5), (1, 2, 2.0)])
    >>> path_length(path, [0, 1, 2])
    3.5
    """
    if not path:
        raise ValueError("path must contain at least one node")
    total = 0.0
    for u, v in zip(path, path[1:]):
        weight = topology.get_edge_weight(u, v)
        if weight is None:
            raise ValueError(f"path uses non-existent edge ({u}, {v})")
        total += weight
    return total


def all_pairs_sampled_distances(
    topology: Topology,
    pairs: Iterable[tuple[int, int]],
    *,
    threads: int | None = None,
) -> dict[tuple[int, int], float]:
    """Return shortest distances for the given source-destination pairs.

    Sources are grouped so each distinct source runs a single early-stopping
    search; on the C tier the whole grouped batch goes down
    in one ``target_distances_batch`` kernel call, its sources fanned over
    ``threads`` in-kernel threads (:meth:`CSRGraph.batched_target_distances`;
    ``None`` resolves via ``REPRO_KERNEL_THREADS`` / CPU count).  Used as the
    stretch denominator for sampled pairs on large topologies, as in §5.1.

    Raises
    ------
    ValueError
        If any target is unreachable from its source.
    """
    return topology.csr().batched_target_distances(pairs, threads=threads)
