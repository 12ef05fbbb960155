"""Incremental single-source shortest-path-tree repair.

The dynamics engine (:mod:`repro.dynamics.engine`) maintains one dense SPT
row per landmark across topology events.  Rebuilding every row from scratch
per event is what the replay oracle does; this module repairs a row in time
proportional to the *affected region* instead, while staying bit-identical
to a fresh kernel run on the mutated topology.

Bit-identity rests on two properties of the canonical search state (see the
determinism contract in :mod:`repro.graphs.shortest_paths`):

* **Distances** are the unique fixpoint of the Bellman equations evaluated
  in increasing-distance order over IEEE-754 floats.  Every repair here
  relaxes ``dist[u] + w`` with the same single float addition the kernels
  perform, and settles in increasing-distance order, so repaired distances
  are the same bit patterns a full search would produce.
* **Parents** are a pure function of the converged distances: the settled
  predecessor of ``v`` is the *minimum-id* neighbor ``u`` with
  ``dist[u] + w(u, v) == dist[v]`` (ties in the kernels' relaxation always
  resolve toward the smaller node id).  After distances are repaired, every
  node whose support set may have changed is re-canonicalized by a direct
  neighbor scan -- an idempotent operation that reproduces the kernel's
  parent exactly.

Rows use the dynamics convention ``inf / -1`` for unreachable nodes (the
converged-state substrate's dense rows historically use a ``0.0`` fill and
assume connectivity; the dynamics engine must survive partitions, so the
fill is explicit here).

All functions mutate ``dist`` / ``parent`` (dense, node-indexed, mutable
sequences) in place and return ``(dist_changed, parent_changed)`` node
lists, which the maintenance layer uses to refold closest landmarks and
charge update costs without diffing whole rows.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

from repro.graphs.topology import Topology

__all__ = [
    "spt_dense",
    "canonical_parent",
    "repair_after_decrease",
    "repair_after_increase",
    "repair_after_detach",
]

_INF = math.inf


def spt_dense(
    topology: Topology, root: int
) -> tuple[list[float], list[int]]:
    """Full SPT from ``root`` as dense ``(dist, parent)`` rows.

    Unreachable nodes hold ``inf`` / ``-1``; the root holds ``0.0`` / ``-1``.
    Computed through the canonical engine kernels, so repaired rows can be
    compared against this bit for bit.
    """
    return topology.csr().spt_rows(root, fill=_INF)


def canonical_parent(
    topology: Topology, dist, node: int, root: int
) -> int:
    """The kernel-canonical parent of ``node`` given converged ``dist``.

    The minimum-id neighbor on a tight edge (``dist[u] + w == dist[node]``),
    ``-1`` for the root and for unreachable nodes.
    """
    if node == root or dist[node] == _INF:
        return -1
    target = dist[node]
    best = -1
    for neighbor, weight in topology.adjacency[node]:
        if dist[neighbor] + weight == target and (best < 0 or neighbor < best):
            best = neighbor
    return best


def _collect_subtree(adjacency, parent, top: int, top_arcs=None) -> list[int]:
    """Nodes in ``top``'s subtree of the current parent forest (inclusive).

    A node's tree children are exactly its graph neighbours ``c`` with
    ``parent[c] == node``, so the walk reads O(subtree * degree) parent
    entries and never the rest of the row.  ``top_arcs`` stands in for
    ``adjacency[top]`` when ``top``'s arcs are already removed (a detach).
    """
    out = [top]
    for node in out:  # grows while it is walked: breadth-first
        arcs = adjacency[node]
        if node == top and top_arcs is not None:
            arcs = top_arcs
        out.extend(child for child, _ in arcs if parent[child] == node)
    return out


def _recanonicalize(
    topology: Topology, dist, parent, root: int, nodes
) -> list[int]:
    """Re-derive parents for ``nodes``; return those that actually changed."""
    changed: list[int] = []
    for node in nodes:
        canon = canonical_parent(topology, dist, node, root)
        if canon != parent[node]:
            parent[node] = canon
            changed.append(node)
    return changed


def _repair_region(
    topology: Topology, dist, parent, root: int, region: list[int],
    extra_recanon,
) -> tuple[list[int], list[int]]:
    """Recompute distances for ``region`` from its boundary; fix parents.

    ``region`` must be *closed under worsening*: every node whose distance
    could have changed is in it, and every node outside it keeps its exact
    pre-event distance.  Distances inside the region are re-derived by a
    multi-source Dijkstra seeded with the best boundary offer per node.
    """
    adjacency = topology.adjacency
    in_region = set(region)
    old = {node: dist[node] for node in region}
    best: dict[int, float] = {}
    for node in region:
        seed = _INF
        for neighbor, weight in adjacency[node]:
            if neighbor in in_region:
                continue
            candidate = dist[neighbor] + weight
            if candidate < seed:
                seed = candidate
        best[node] = seed
    heap = [(value, node) for node, value in best.items() if value < _INF]
    heapify(heap)
    while heap:
        value, node = heappop(heap)
        if value > best[node]:
            continue
        for neighbor, weight in adjacency[node]:
            if neighbor not in in_region:
                continue
            candidate = value + weight
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                heappush(heap, (candidate, neighbor))
    dist_changed: list[int] = []
    for node in region:
        value = best[node]
        if value != old[node]:
            dist_changed.append(node)
        dist[node] = value

    recanon = set(region)
    recanon.update(extra_recanon)
    for node in dist_changed:
        recanon.update(neighbor for neighbor, _ in adjacency[node])
    parent_changed = _recanonicalize(
        topology, dist, parent, root, sorted(recanon)
    )
    return dist_changed, parent_changed


def repair_after_increase(
    topology: Topology, dist, parent, root: int, u: int, v: int
) -> tuple[list[int], list[int]]:
    """Repair one SPT row after edge ``{u, v}`` was removed or made heavier.

    Call *after* mutating the topology; ``dist`` / ``parent`` still hold the
    pre-event row.  If the edge was not a tree arc of this row, neither
    distances nor parents can change (the parent is the minimum-id tight
    neighbor, and a non-parent edge getting heavier or vanishing never
    alters that minimum) and the repair is O(1).  Otherwise the affected
    subtree is recomputed from its boundary.
    """
    if parent[v] == u:
        top = v
    elif parent[u] == v:
        top = u
    else:
        return [], []
    region = _collect_subtree(topology.adjacency, parent, top)
    return _repair_region(
        topology, dist, parent, root, region, extra_recanon=(u, v)
    )


def repair_after_decrease(
    topology: Topology, dist, parent, root: int, u: int, v: int
) -> tuple[list[int], list[int]]:
    """Repair one SPT row after edge ``{u, v}`` was added or made lighter.

    Call *after* mutating the topology.  Strict improvements propagate
    outward from the endpoints; nodes whose distance ties the new offer
    only need their parent re-canonicalized.
    """
    adjacency = topology.adjacency
    weight = topology.edge_weight(u, v)
    improved: dict[int, float] = {}

    def current(node: int) -> float:
        value = improved.get(node)
        return dist[node] if value is None else value

    heap: list[tuple[float, int]] = []
    for source, target in ((u, v), (v, u)):
        if dist[source] == _INF:
            continue
        candidate = dist[source] + weight
        if candidate < current(target):
            improved[target] = candidate
            heappush(heap, (candidate, target))
    while heap:
        value, node = heappop(heap)
        if value > improved.get(node, _INF):
            continue
        for neighbor, edge_weight in adjacency[node]:
            candidate = value + edge_weight
            if candidate < current(neighbor):
                improved[neighbor] = candidate
                heappush(heap, (candidate, neighbor))

    dist_changed = sorted(improved)
    for node in dist_changed:
        dist[node] = improved[node]
    recanon = set(dist_changed)
    recanon.update((u, v))
    for node in dist_changed:
        recanon.update(neighbor for neighbor, _ in adjacency[node])
    parent_changed = _recanonicalize(
        topology, dist, parent, root, sorted(recanon)
    )
    return dist_changed, parent_changed


def repair_after_detach(
    topology: Topology, dist, parent, root: int, node: int, arcs
) -> tuple[list[int], list[int]]:
    """Repair one SPT row after *all* of ``node``'s edges were removed.

    Call after the mutation, with ``arcs`` the ``(neighbor, weight)`` list
    ``node`` had before it.  The affected region is ``node``'s old subtree
    (the whole reachable row minus the root when the detached node *is* the
    root); an already-unreachable node detaching changes nothing.
    """
    if dist[node] == _INF and node != root:
        return [], []
    region = _collect_subtree(topology.adjacency, parent, node, arcs)
    if node == root:
        del region[0]
        if not region:
            return [], []
    return _repair_region(
        topology, dist, parent, root, region, extra_recanon=(node,)
    )
