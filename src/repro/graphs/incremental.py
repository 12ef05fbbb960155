"""Incremental single-source shortest-path-tree repair.

The dynamics engine (:mod:`repro.dynamics.engine`) maintains one dense SPT
row per landmark across topology events, as two flat ``|L| x n`` slabs.
Rebuilding every row from scratch per event is what the replay oracle does;
this module repairs a row in time proportional to the *affected region*
instead, while staying bit-identical to a fresh kernel run on the mutated
topology.

Bit-identity rests on two properties of the canonical search state (see the
determinism contract in :mod:`repro.graphs.csr`):

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

Neither property depends on the order equal-distance nodes leave the
queue, so the two tiers may (and do) use different heaps.

There are two repair primitives, each over one row:

* **worsen** -- an edge was removed or made heavier
  (:func:`repair_after_increase`), or a node lost all its edges
  (:func:`repair_after_detach`).  Only the subtree hanging under the
  affected tree arc can move; it is re-derived from its boundary.
* **improve** -- a *set* of edges was added or made lighter
  (:func:`repair_after_decrease`).  One multi-source relaxation over all of
  them, so a node join is one repair per row however many edges it
  restores, and a node improved through two of them is reported once.

The ``repair_rows_after_*`` drivers run a primitive over every row of the
slabs and return the per-row change lists flat (:class:`RowChanges`).  On
the C tier that is one ``repair_rows`` call into ``_kernels.c``; the
per-row functions here are the pure-Python tier (``REPRO_NO_CKERNELS=1``
and the compile-failure fallback), run over views of the same slabs.

Every function reads the *mutated* graph, a :class:`CSRGraph`; the per-row
primitives read only its ``adjacency`` rows and ``edge_weight``, so they
take a :class:`~repro.graphs.topology.Topology` as well.

Rows use the dynamics convention ``inf / -1`` for unreachable nodes (the
converged-state substrate's dense rows historically use a ``0.0`` fill and
assume connectivity; the dynamics engine must survive partitions, so the
fill is explicit here).

All functions mutate ``dist`` / ``parent`` (dense, node-indexed, mutable
sequences) in place and return ascending ``(dist_changed, parent_changed)``
node lists, which the maintenance layer uses to refold closest landmarks
and charge update costs without diffing whole rows.
"""

from __future__ import annotations

import ctypes
import math
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, Sequence

from repro.graphs import _ckernels
from repro.graphs.csr import CSRGraph

__all__ = [
    "RowChanges",
    "canonical_parent",
    "repair_after_decrease",
    "repair_after_increase",
    "repair_after_detach",
    "repair_rows_after_decrease",
    "repair_rows_after_increase",
    "repair_rows_after_detach",
]

_INF = math.inf

# ``mode`` of the C entry point (REPAIR_* in _kernels.c).
_WORSEN_EDGE, _WORSEN_DETACH, _IMPROVE = 0, 1, 2


def canonical_parent(graph, dist, node: int, root: int) -> int:
    """The kernel-canonical parent of ``node`` given converged ``dist``.

    The minimum-id neighbor on a tight edge (``dist[u] + w == dist[node]``),
    ``-1`` for the root and for unreachable nodes.
    """
    if node == root or dist[node] == _INF:
        return -1
    target = dist[node]
    best = -1
    for neighbor, weight in graph.adjacency[node]:
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


def _recanonicalize(graph, dist, parent, root: int, nodes) -> list[int]:
    """Re-derive parents for ``nodes``; return those that actually changed."""
    changed: list[int] = []
    for node in nodes:
        canon = canonical_parent(graph, dist, node, root)
        if canon != parent[node]:
            parent[node] = canon
            changed.append(node)
    return changed


def _repair_region(
    graph, dist, parent, root: int, region: list[int],
    extra_recanon,
) -> tuple[list[int], list[int]]:
    """Recompute distances for ``region`` from its boundary; fix parents.

    ``region`` must be *closed under worsening*: every node whose distance
    could have changed is in it, and every node outside it keeps its exact
    pre-event distance.  Distances inside the region are re-derived by a
    multi-source Dijkstra seeded with the best boundary offer per node.
    """
    adjacency = graph.adjacency
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
    dist_changed.sort()

    recanon = set(region)
    recanon.update(extra_recanon)
    for node in dist_changed:
        recanon.update(neighbor for neighbor, _ in adjacency[node])
    parent_changed = _recanonicalize(
        graph, dist, parent, root, sorted(recanon)
    )
    return dist_changed, parent_changed


def repair_after_increase(
    graph, dist, parent, root: int, u: int, v: int
) -> tuple[list[int], list[int]]:
    """Repair one SPT row after edge ``{u, v}`` was removed or made heavier.

    Call *after* mutating the graph; ``dist`` / ``parent`` still hold the
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
    region = _collect_subtree(graph.adjacency, parent, top)
    return _repair_region(
        graph, dist, parent, root, region, extra_recanon=(u, v)
    )


def repair_after_decrease(
    graph, dist, parent, root: int, edges: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """Repair one SPT row after the ``edges`` were added or made lighter.

    Call *after* mutating the graph; ``edges`` are ``(u, v)`` pairs
    whose weights are read from it.  Every edge offers ``dist + w`` across
    itself, strict improvements propagate outward from there, and nodes
    whose distance ties a new offer only need their parent
    re-canonicalized.
    """
    adjacency = graph.adjacency
    improved: dict[int, float] = {}

    def current(node: int) -> float:
        value = improved.get(node)
        return dist[node] if value is None else value

    heap: list[tuple[float, int]] = []
    recanon: set[int] = set()
    for u, v in edges:
        weight = graph.edge_weight(u, v)
        recanon.update((u, v))
        for source, target in ((u, v), (v, u)):
            offer = current(source)
            if offer == _INF:
                continue
            candidate = offer + weight
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
    recanon.update(dist_changed)
    for node in dist_changed:
        recanon.update(neighbor for neighbor, _ in adjacency[node])
    parent_changed = _recanonicalize(
        graph, dist, parent, root, sorted(recanon)
    )
    return dist_changed, parent_changed


def repair_after_detach(
    graph, dist, parent, root: int, node: int, arcs
) -> tuple[list[int], list[int]]:
    """Repair one SPT row after *all* of ``node``'s edges were removed.

    Call after the mutation, with ``arcs`` the ``(neighbor, weight)`` list
    ``node`` had before it.  The affected region is ``node``'s old subtree
    (the whole reachable row minus the root when the detached node *is* the
    root); an already-unreachable node detaching changes nothing.
    """
    if dist[node] == _INF and node != root:
        return [], []
    region = _collect_subtree(graph.adjacency, parent, node, arcs)
    if node == root:
        del region[0]
        if not region:
            return [], []
    return _repair_region(
        graph, dist, parent, root, region, extra_recanon=(node,)
    )


# -- every row of the slabs, one call per event -------------------------------


@dataclass(frozen=True)
class RowChanges:
    """What one ``repair_rows_after_*`` call changed, row by row, flat.

    ``rows`` holds the ascending indices (into the ``roots`` the call was
    given) of the rows with at least one change; entry ``i`` of
    ``dist_ends`` / ``parent_ends`` is the cumulative end of that row's
    ascending id list inside ``dist_changed`` / ``parent_changed``.
    Iterating yields ``(row, dist_ids, parent_ids)`` per changed row, the id
    lists as views.
    """

    rows: array
    dist_ends: array
    dist_changed: array
    parent_ends: array
    parent_changed: array

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, memoryview, memoryview]]:
        dist_ids = memoryview(self.dist_changed)
        parent_ids = memoryview(self.parent_changed)
        dist_lo = parent_lo = 0
        for row, dist_hi, parent_hi in zip(
            self.rows, self.dist_ends, self.parent_ends
        ):
            yield row, dist_ids[dist_lo:dist_hi], parent_ids[parent_lo:parent_hi]
            dist_lo, parent_lo = dist_hi, parent_hi


def _take_ids(clib, pointer, count: int) -> array:
    """Copy a malloc'd id list into an array and release it."""
    ids = array("q")
    try:
        ids.frombytes(ctypes.string_at(pointer, 8 * count))
    finally:
        clib.buffer_free(pointer)
    return ids


def _repair_rows(
    graph: CSRGraph,
    roots: Sequence[int],
    dist_slab,
    parent_slab,
    mode: int,
    ids: Sequence[int],
    repair_row: Callable,
) -> RowChanges:
    """Run one primitive over every ``(dist, parent)`` row of the slabs.

    Row ``i`` (``n`` entries) is rooted at ``roots[i]``.  ``mode`` / ``ids``
    are the event in the C entry point's encoding and ``repair_row(dist,
    parent, root)`` the same event as a call of the Python primitive.
    Buffer typecodes and lengths and every id are checked here, for both
    tiers, before anything is touched.
    """
    n = graph.num_nodes
    roots = roots if isinstance(roots, array) else array("q", roots)
    ids = array("q", ids)
    graph._check_sources(roots)
    graph._check_sources(ids)
    total = len(roots) * n
    p_dist = _ckernels.buffer_arg(dist_slab, "d", total, "dist_slab")
    p_parent = _ckernels.buffer_arg(parent_slab, "q", total, "parent_slab")
    clib = _ckernels.load_kernels()
    if clib is not None and total:
        num_arcs = graph.offsets[n]
        rows = array("q", bytes(8 * len(roots)))
        dist_ends = array("q", bytes(8 * len(roots)))
        parent_ends = array("q", bytes(8 * len(roots)))
        out_dist = ctypes.POINTER(ctypes.c_int64)()
        out_parent = ctypes.POINTER(ctypes.c_int64)()
        count = clib.repair_rows(
            n,
            _ckernels.buffer_arg(graph.offsets, "q", n + 1, "offsets"),
            _ckernels.buffer_arg(graph.neighbors, "q", num_arcs, "neighbors"),
            _ckernels.buffer_arg(graph.weights, "d", num_arcs, "weights"),
            _ckernels.buffer_arg(roots, "q", len(roots), "roots"),
            len(roots),
            p_dist,
            p_parent,
            mode,
            _ckernels.buffer_arg(ids, "q", len(ids), "ids"),
            len(ids),
            _ckernels.buffer_arg(rows, "q", len(roots), "rows"),
            _ckernels.buffer_arg(dist_ends, "q", len(roots), "dist_ends"),
            _ckernels.buffer_arg(parent_ends, "q", len(roots), "parent_ends"),
            ctypes.byref(out_dist),
            ctypes.byref(out_parent),
        )
        _ckernels.check_status(count, "repair_rows")
        del rows[count:], dist_ends[count:], parent_ends[count:]
        return RowChanges(
            rows,
            dist_ends,
            _take_ids(clib, out_dist, dist_ends[-1] if count else 0),
            parent_ends,
            _take_ids(clib, out_parent, parent_ends[-1] if count else 0),
        )
    changes = RowChanges(*(array("q") for _ in range(5)))
    dist_rows = memoryview(dist_slab)
    parent_rows = memoryview(parent_slab)
    for row, root in enumerate(roots):
        dist_changed, parent_changed = repair_row(
            dist_rows[row * n : (row + 1) * n],
            parent_rows[row * n : (row + 1) * n],
            root,
        )
        if dist_changed or parent_changed:
            changes.rows.append(row)
            changes.dist_changed.extend(dist_changed)
            changes.dist_ends.append(len(changes.dist_changed))
            changes.parent_changed.extend(parent_changed)
            changes.parent_ends.append(len(changes.parent_changed))
    return changes


def repair_rows_after_increase(
    graph: CSRGraph, roots, dist_slab, parent_slab, u: int, v: int
) -> RowChanges:
    """:func:`repair_after_increase` over every row of the slabs."""
    return _repair_rows(
        graph, roots, dist_slab, parent_slab, _WORSEN_EDGE, (u, v),
        lambda dist, parent, root: repair_after_increase(
            graph, dist, parent, root, u, v
        ),
    )


def repair_rows_after_detach(
    graph: CSRGraph, roots, dist_slab, parent_slab, node: int, arcs
) -> RowChanges:
    """:func:`repair_after_detach` over every row of the slabs."""
    return _repair_rows(
        graph, roots, dist_slab, parent_slab, _WORSEN_DETACH,
        (node, *(neighbor for neighbor, _ in arcs)),
        lambda dist, parent, root: repair_after_detach(
            graph, dist, parent, root, node, arcs
        ),
    )


def repair_rows_after_decrease(
    graph: CSRGraph, roots, dist_slab, parent_slab, edges
) -> RowChanges:
    """:func:`repair_after_decrease` over every row of the slabs."""
    edges = list(edges)
    for u, v in edges:
        if u == v or not graph.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v} in the graph to improve over")
    return _repair_rows(
        graph, roots, dist_slab, parent_slab, _IMPROVE,
        [node for edge in edges for node in edge],
        lambda dist, parent, root: repair_after_decrease(
            graph, dist, parent, root, edges
        ),
    )
