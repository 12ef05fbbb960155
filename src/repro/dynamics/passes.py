"""The churn engine's per-event passes over its flat slabs.

After the landmark rows of an event are repaired
(:mod:`repro.graphs.incremental`), :class:`~repro.dynamics.engine.ChurnEngine`
runs three more passes, each one call here:

* :func:`refold_closest` -- the closest landmark of every node whose
  distance to some landmark moved, and from it and the rows' parent changes
  the addresses to re-derive;
* :func:`vicinity_candidates` -- the nodes whose vicinity the event may
  change, from the endpoint-rooted distance rows and the radius array;
* :func:`commit_vicinities` -- the recomputed candidate rows compared with
  the stored fixed-stride slabs, the changed ones stored and billed.

Each is one entry point of ``_kernels.c`` (the "churn layer" there) with a
pure-Python twin below it -- ``REPRO_NO_CKERNELS=1`` and the compile-failure
fallback -- and both tiers produce the same bytes and the same lists; the
differential tests in ``tests/test_dynamics_kernels.py`` hold them to that.
The C side indexes every buffer by the sizes it is told, so typecodes and
lengths are checked here first, for both tiers (``TypeError`` /
``ValueError``); ids are range-checked by the C prologue before its first
write, and by the twins as they go.
"""

from __future__ import annotations

import ctypes
from array import array
from math import inf
from typing import Sequence

from repro.graphs._ckernels import buffer_arg, check_status, load_kernels
from repro.graphs.incremental import RowChanges
from repro.graphs.topology import Topology

__all__ = ["refold_closest", "vicinity_candidates", "commit_vicinities"]

#: Relative slack for the vicinity-candidate tests.  Those tests compare
#: *endpoint-rooted* distances (one Dijkstra per event endpoint) against
#: quantities from each node's own *x-rooted* search (its vicinity radius,
#: its view of an edge's tightness).  On irregular-float graphs the two
#: root orders sum the same path's weights in opposite order, so they can
#: disagree by a few ulps; a candidate test with exact comparisons would
#: then wrongly exclude a node whose own search sees the boundary as tight.
#: The margin is ~1e5 times any achievable accumulation error (paths of h
#: hops carry at most ~2*h*2**-52 relative rounding error) while staying
#: far below any genuine slack, and over-inclusion is harmless: an extra
#: candidate recomputes an identical row and bills zero.
#: ``VICINITY_REL_SLACK`` in ``_kernels.c`` is the same number.
_REL_SLACK = 1e-9

_ROW_SLABS = ("members", "dists", "parents")


def _id_array(ids) -> array:
    if isinstance(ids, array) and ids.typecode == "q":
        return ids
    return array("q", ids)


def refold_closest(
    topology: Topology,
    landmarks: Sequence[int],
    dist_slab,
    parent_slab,
    changes: RowChanges,
    closest,
    closest_dist,
) -> tuple[array, array]:
    """Refold closest landmarks after a row repair; find the stale addresses.

    ``dist_slab`` / ``parent_slab`` hold one ``n``-entry row per landmark,
    in the (ascending) order of ``landmarks``, already repaired;
    ``changes`` is what the repair reported and ``topology`` the mutated
    graph.  Two results:

    * the nodes whose closest landmark or distance to it changed.  Only a
      node in some row's ``dist_changed`` can be one; its closest landmark
      is the minimum of its column, taken in landmark order with a strict
      ``<`` -- ties stay on the smaller landmark id, matching
      :func:`repro.core.landmarks.closest_landmarks` -- and ``-1`` / ``inf``
      when no landmark reaches it.  ``closest`` / ``closest_dist`` are
      updated in place; the nodes come back in the order ``changes`` first
      names them.
    * the nodes whose address (closest landmark + path in its tree) must be
      re-derived, ascending: the refolded nodes, plus every new-tree
      descendant of a parent change inside the row of its own closest
      landmark (walking its address path would traverse the changed
      pointer).
    """
    n = len(closest)
    landmarks = _id_array(landmarks)
    total = len(landmarks) * n
    p_dist = buffer_arg(dist_slab, "d", total, "dist_slab")
    p_parent = buffer_arg(parent_slab, "q", total, "parent_slab")
    p_closest = buffer_arg(closest, "q", n, "closest")
    p_closest_dist = buffer_arg(closest_dist, "d", n, "closest_dist")
    num_changed = len(changes.rows)
    dist_total = len(changes.dist_changed)
    parent_total = len(changes.parent_changed)
    p_rows = buffer_arg(changes.rows, "q", num_changed, "changes.rows")
    p_dist_ends = buffer_arg(
        changes.dist_ends, "q", num_changed, "changes.dist_ends"
    )
    p_dist_changed = buffer_arg(
        changes.dist_changed, "q", dist_total, "changes.dist_changed"
    )
    p_parent_ends = buffer_arg(
        changes.parent_ends, "q", num_changed, "changes.parent_ends"
    )
    p_parent_changed = buffer_arg(
        changes.parent_changed, "q", parent_total, "changes.parent_changed"
    )
    csr = topology.csr()
    clib = load_kernels()
    if clib is not None and isinstance(csr.offsets, array):
        num_arcs = csr.offsets[n] if n else 0
        refolded = array("q", bytes(8 * n))
        dirty = array("q", bytes(8 * n))
        num_refolded = ctypes.c_int64(0)
        count = clib.closest_refold(
            n,
            buffer_arg(csr.offsets, "q", n + 1, "offsets"),
            buffer_arg(csr.neighbors, "q", num_arcs, "neighbors"),
            buffer_arg(landmarks, "q", len(landmarks), "landmarks"),
            len(landmarks),
            p_dist,
            p_parent,
            p_rows,
            num_changed,
            p_dist_ends,
            p_dist_changed,
            dist_total,
            p_parent_ends,
            p_parent_changed,
            parent_total,
            p_closest,
            p_closest_dist,
            buffer_arg(refolded, "q", n, "refolded"),
            ctypes.byref(num_refolded),
            buffer_arg(dirty, "q", n, "dirty"),
        )
        check_status(count, "closest_refold")
        del refolded[num_refolded.value :], dirty[count:]
        return refolded, dirty
    refolded = array("q")
    folded: set[int] = set()
    for node in changes.dist_changed:
        if node in folded:
            continue
        if not 0 <= node < n:
            raise ValueError(f"node {node} out of range for {n} nodes")
        folded.add(node)
        best_landmark = -1
        best_distance = inf
        for row, landmark in enumerate(landmarks):
            distance = dist_slab[row * n + node]
            if distance < best_distance:
                best_distance = distance
                best_landmark = landmark
        if (
            best_landmark != closest[node]
            or best_distance != closest_dist[node]
        ):
            closest[node] = best_landmark
            closest_dist[node] = best_distance
            refolded.append(node)
    dirty = set(refolded)
    adjacency = topology.adjacency
    for row, _, parent_changed in changes:
        landmark = landmarks[row]
        base = row * n
        stack = parent_changed.tolist()
        seen = set(stack)
        while stack:
            node = stack.pop()
            if closest[node] == landmark:
                dirty.add(node)
            # Tree children are the graph neighbours pointing back.
            for child, _ in adjacency[node]:
                if parent_slab[base + child] == node and child not in seen:
                    seen.add(child)
                    stack.append(child)
    return refolded, array("q", sorted(dirty))


def vicinity_candidates(
    endpoint_rows: Sequence, radius, *, tight: float | None = None
) -> array:
    """Nodes whose vicinity may change: radius reaches an endpoint.

    ``radius[x]`` is node ``x``'s candidate threshold (its farthest member's
    distance, ``inf`` for a component-limited vicinity).  A node event
    passes one row, the distances from the node in the graph that has it
    attached, and ``x`` is a candidate when that distance is within its
    radius.  An edge event passes the two endpoint rows and ``tight``, the
    edge weight, all in the judged graph (the old graph for increase-type
    events, the new graph for decrease-type), and the filter sharpens in
    two sound ways:

    * the edge must be *tight* from the node's view:
      ``min(d(x,u), d(x,v)) + w == max(d(x,u), d(x,v))``.  A slack edge
      lies on no shortest path from ``x`` and contributes no tight
      predecessor arc, so neither the distance multiset nor the
      canonical predecessors of ``x``'s truncated search can change --
      the only arc whose tightness the event can alter is ``(u, v)``
      itself, and for a slack-arc node it stays slack on both sides of
      the event;
    * the *far* endpoint must lie within the radius:
      ``min(d(x,u), d(x,v)) + w <= R_x``.  Every change to ``x``'s row
      -- a member distance routed through the edge, a membership swap
      it causes, or the ``(u, v)`` arc flipping a canonical
      predecessor -- requires a path from ``x`` through the *whole*
      edge to a node at most ``R_x`` away, and any such path already
      costs ``min(d(x,u), d(x,v)) + w`` to clear the far endpoint.

    Nodes that reach neither endpoint in the judged graph are skipped
    for the same reason: the event happens outside their component.
    Both tests carry a :data:`_REL_SLACK` margin because the endpoint
    rows are root-ordered differently from each node's own search (see
    the constant's note); the margin only ever *adds* candidates.
    Returns the candidates in ascending order.
    """
    n = len(radius)
    if len(endpoint_rows) != (1 if tight is None else 2):
        raise ValueError(
            "a node event takes one endpoint row, an edge event (tight=) two"
        )
    p_rows = [
        buffer_arg(row, "d", n, f"endpoint_rows[{index}]")
        for index, row in enumerate(endpoint_rows)
    ]
    p_radius = buffer_arg(radius, "d", n, "radius")
    clib = load_kernels()
    if clib is not None:
        out = array("q", bytes(8 * n))
        count = clib.vicinity_candidates(
            n,
            p_rows[0],
            p_rows[1] if tight is not None else None,
            0.0 if tight is None else tight,
            p_radius,
            buffer_arg(out, "q", n, "out"),
        )
        del out[count:]
        return out
    candidates = array("q")
    if tight is None:
        (row,) = endpoint_rows
        for node in range(n):
            reach = radius[node]
            if reach < inf:
                reach += _REL_SLACK * reach
            if row[node] <= reach:
                candidates.append(node)
        return candidates
    row_u, row_v = endpoint_rows
    for node in range(n):
        du = row_u[node]
        dv = row_v[node]
        if du <= dv:
            near, far = du, dv
        else:
            near, far = dv, du
        if near == inf or abs(near + tight - far) > _REL_SLACK * far:
            continue
        reach = radius[node]
        if reach < inf:
            reach += _REL_SLACK * reach
        if near + tight <= reach:
            candidates.append(node)
    return candidates


def commit_vicinities(
    candidates, fresh, stored, lengths, radius
) -> tuple[array, int]:
    """Store and bill the candidates' recomputed vicinity rows.

    ``fresh`` is the ``(offsets, members, dists, parents)`` result of
    :meth:`CSRGraph.k_nearest_batch_flat` over ``candidates``; ``stored``
    the engine's ``(members, dists, parents)`` slabs, node ``x``'s row at
    ``x * stride`` with ``lengths[x]`` entries (``stride = len(slab) // n``).
    A row whose members or distances differ from the stored one replaces it
    and is billed the distinct members in the symmetric difference of the
    old and new ``(member, distance)`` pairs; a row that differs in parents
    only replaces it unbilled; an equal row is skipped.  Replacing a row
    also sets ``radius[x]``: its last (farthest) distance when the row is
    full, ``inf`` when the vicinity is component-limited.  Returns the
    nodes whose row was replaced, in candidate order, and the bill.
    """
    n = len(lengths)
    candidates = _id_array(candidates)
    offsets, *fresh_slabs = fresh
    total = len(fresh_slabs[0])
    stride = len(stored[0]) // n if n else 0
    p_offsets = buffer_arg(offsets, "q", len(candidates) + 1, "fresh offsets")
    p_fresh = [
        buffer_arg(slab, code, total, f"fresh {name}")
        for slab, code, name in zip(fresh_slabs, "qdq", _ROW_SLABS)
    ]
    p_stored = [
        buffer_arg(slab, code, n * stride, f"stored {name}")
        for slab, code, name in zip(stored, "qdq", _ROW_SLABS)
    ]
    p_lengths = buffer_arg(lengths, "q", n, "lengths")
    p_radius = buffer_arg(radius, "d", n, "radius")
    clib = load_kernels()
    if clib is not None:
        changed = array("q", bytes(8 * len(candidates)))
        billed = ctypes.c_int64(0)
        count = clib.vicinity_commit(
            n,
            stride,
            buffer_arg(candidates, "q", len(candidates), "candidates"),
            len(candidates),
            p_offsets,
            *p_fresh,
            total,
            *p_stored,
            p_lengths,
            p_radius,
            buffer_arg(changed, "q", len(candidates), "changed"),
            ctypes.byref(billed),
        )
        check_status(count, "vicinity_commit")
        del changed[count:]
        return changed, billed.value
    changed = array("q")
    fresh_views = [memoryview(slab) for slab in fresh_slabs]
    stored_views = [memoryview(slab) for slab in stored]
    billed = 0
    for index, node in enumerate(candidates):
        lo, hi = offsets[index], offsets[index + 1]
        if not (0 <= node < n and 0 <= lo <= hi <= total and hi - lo <= stride):
            raise ValueError(f"candidate {node} or its offsets out of range")
        base = node * stride
        members, dists, parents = (view[lo:hi] for view in fresh_views)
        old_members, old_dists, old_parents = (
            view[base : base + lengths[node]] for view in stored_views
        )
        if members != old_members or dists != old_dists:
            moved = set(zip(old_members, old_dists)).symmetric_difference(
                zip(members, dists)
            )
            billed += len({member for member, _ in moved})
        elif parents == old_parents:
            continue
        for view, row in zip(stored_views, (members, dists, parents)):
            view[base : base + hi - lo] = row
        lengths[node] = hi - lo
        radius[node] = dists[-1] if 0 < hi - lo == stride else inf
        changed.append(node)
    return changed, billed

