"""The churn engine's per-event passes over its flat slabs.

After the landmark rows of an event are repaired
(:mod:`repro.graphs.incremental`), :class:`~repro.dynamics.engine.ChurnEngine`
runs up to four more passes, each one call here:

* :func:`refold_closest` -- the closest landmark of every node whose
  distance to some landmark moved, and from it and the rows' parent changes
  the nodes whose address the event changed;
* :func:`vicinity_candidates` -- the nodes whose vicinity row the event
  changes: the endpoint-rooted distance rows and the radius array pick the
  rows to read, and each row read says itself whether it changes;
* :func:`repair_vicinities` -- after an improving event, the candidates'
  full rows rebuilt from the stored ones without a search (every other
  candidate row goes to the k-nearest kernel);
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
from heapq import heappop, heappush, merge
from itertools import islice
from math import inf
from typing import Sequence

from repro.graphs._ckernels import buffer_arg, check_status, load_kernels
from repro.graphs.csr import CSRGraph
from repro.graphs.incremental import RowChanges

__all__ = [
    "refold_closest",
    "vicinity_candidates",
    "repair_vicinities",
    "commit_vicinities",
]

#: Relative slack for the vicinity-candidate prefilter.  It compares
#: *endpoint-rooted* distances (one Dijkstra per event endpoint) against a
#: quantity from each node's own *x-rooted* search, its vicinity radius.  On
#: irregular-float graphs the two root orders sum the same path's weights in
#: opposite order, so they can disagree by a few ulps; an exact comparison
#: would then wrongly skip a node whose own search sees the endpoint on its
#: boundary.  The margin is ~1e5 times any achievable accumulation error
#: (paths of h hops carry at most ~2*h*2**-52 relative rounding error) while
#: staying far below any genuine slack, and over-inclusion is harmless: an
#: extra row is read and judged by its own, exact, entries.
#: ``VICINITY_REL_SLACK`` in ``_kernels.c`` is the same number.
_REL_SLACK = 1e-9

_ROW_SLABS = ("members", "dists", "parents")


def _id_array(ids) -> array:
    if isinstance(ids, array) and ids.typecode == "q":
        return ids
    return array("q", ids)


def _stored_rows(stored, n: int) -> tuple[int, list]:
    """The stride of the engine's ``(members, dists, parents)`` vicinity
    slabs over ``n`` nodes, and the three as checked C arguments."""
    stride = len(stored[0]) // n if n else 0
    return stride, [
        buffer_arg(slab, code, n * stride, f"stored {name}")
        for slab, code, name in zip(stored, "qdq", _ROW_SLABS)
    ]


def refold_closest(
    graph: CSRGraph,
    landmarks: Sequence[int],
    dist_slab,
    parent_slab,
    changes: RowChanges,
    closest,
    closest_dist,
) -> array:
    """Refold closest landmarks after a row repair; list the nodes whose
    address changed.

    ``dist_slab`` / ``parent_slab`` hold one ``n``-entry row per landmark,
    in the (ascending) order of ``landmarks``, already repaired;
    ``changes`` is what the repair reported and ``graph`` the mutated
    graph.  Only a node in some row's ``dist_changed`` can move closest
    landmark; its closest landmark is the minimum of its column, taken in
    landmark order with a strict ``<`` -- ties stay on the smaller landmark
    id, matching the fold of :meth:`CSRGraph.spt_rows_batch_into` -- and
    ``-1`` / ``inf`` when no landmark reaches it.  ``closest`` /
    ``closest_dist`` are updated in place.

    Returns the nodes whose address (closest landmark + path in its tree)
    changed, ascending: those whose closest landmark changed, plus every
    new-tree descendant of a parent change inside the row of its own
    closest landmark (its path crosses the changed pointer).  A refold that
    moves only the distance keeps the path, and the node is not listed.
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
    clib = load_kernels()
    if clib is not None:
        num_arcs = graph.offsets[n] if n else 0
        changed = array("q", bytes(8 * n))
        count = clib.closest_refold(
            n,
            buffer_arg(graph.offsets, "q", n + 1, "offsets"),
            buffer_arg(graph.neighbors, "q", num_arcs, "neighbors"),
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
            buffer_arg(changed, "q", n, "changed"),
        )
        check_status(count, "closest_refold")
        del changed[count:]
        return changed
    changed: set[int] = set()
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
        if best_landmark != closest[node]:
            changed.add(node)
        closest[node] = best_landmark
        closest_dist[node] = best_distance
    adjacency = graph.adjacency
    for row, _, parent_changed in changes:
        landmark = landmarks[row]
        base = row * n
        stack = parent_changed.tolist()
        seen = set(stack)
        while stack:
            node = stack.pop()
            if closest[node] == landmark:
                changed.add(node)
            # Tree children are the graph neighbours pointing back.
            for child, _ in adjacency[node]:
                if parent_slab[base + child] == node and child not in seen:
                    seen.add(child)
                    stack.append(child)
    return array("q", sorted(changed))


def vicinity_candidates(
    endpoint_rows: Sequence,
    radius,
    arcs: Sequence[tuple[int, int]],
    stored,
    lengths,
    *,
    weights: Sequence[float] | None = None,
) -> array:
    """Nodes whose vicinity row the event changes, ascending.

    The event is the edge set ``arcs`` -- ``(u, v)`` pairs, each tested in
    both directions ``a -> b`` -- *worsened* when ``weights`` is ``None``
    (removed or made heavier: ``edge-down``, ``edge-reweight`` upward, the
    captured arcs of a ``node-leave``) and otherwise *improved* (added or
    made lighter: ``edge-up``, ``edge-reweight`` downward, the restored arcs
    of a ``node-join``) to ``weights[i]`` for pair ``i``.  ``stored`` is the
    engine's ``(members, dists, parents)`` slabs, node ``x``'s row at
    ``x * stride`` with ``lengths[x]`` entries in settle order, as
    :func:`commit_vicinities` takes them.

    **Prefilter.**  ``endpoint_rows`` holds one or two distance rows rooted
    at the event's endpoints (the node of a node event, both ends of an edge
    event) in the graph that has the edges at their lighter weight -- the
    old graph when they worsen, the new one when they improve -- and
    ``radius[x]`` is ``x``'s last member's distance (``inf`` for a
    component-limited vicinity).  Row ``x`` is read only when every endpoint
    is within ``radius[x]``, widened by :data:`_REL_SLACK` because the two
    are rooted at opposite ends: a row the event changes has both ends of
    some event arc inside its radius in that graph.

    **Row test.**  The kernels settle nodes in (distance, id) order, relax
    with one float add ``dist[pred] + w``, and give a node its min-id tight
    neighbour as parent, so a truncated search is a function of the
    relaxations out of its settled nodes, and the first place a search on
    the mutated graph can leave the stored row is a relaxation over an
    event arc ``a -> b`` out of a member ``a``.  With the row's members
    ``M``, distances ``d``, parents ``p``, and ``(R, z)`` the (distance, id)
    of the last member of a full (``stride``-entry) row:

    * *worsen* changes the row only if the arc is one of its tree arcs:
      ``b in M`` and ``p[b] == a``.  A slack arc stays slack, a tight arc
      that is not the min-id one leaves the parent alone, and an arc into a
      non-member only ever moved a tentative distance that never settled.
    * *improve* changes it only if, with ``c = d[a] + w`` (the add the
      kernel would perform), ``b in M`` and ``c < d[b]`` or ``c == d[b]``
      and ``a < p[b]``; or ``b not in M`` and the row is not full or
      ``(c, b) < (R, z)``.

    Every quantity is rooted at ``x``, so the comparisons are exact; the
    rows returned are the rows :func:`commit_vicinities` will store, except
    for a weight change that rounding absorbs (``d + w' == d + w``).
    """
    n = len(radius)
    if len(endpoint_rows) not in (1, 2):
        raise ValueError("an event has one endpoint row or two")
    p_rows = [
        buffer_arg(row, "d", n, f"endpoint_rows[{index}]")
        for index, row in enumerate(endpoint_rows)
    ]
    p_radius = buffer_arg(radius, "d", n, "radius")
    stride, p_stored = _stored_rows(stored, n)
    p_lengths = buffer_arg(lengths, "q", n, "lengths")
    ends = array("q", [node for arc in arcs for node in arc])
    if len(ends) != 2 * len(arcs) or not all(0 <= node < n for node in ends):
        raise ValueError(f"arcs must be pairs of nodes below {n}")
    if weights is not None:
        weights = array("d", weights)
        if len(weights) != len(arcs) or not all(0 < w < inf for w in weights):
            raise ValueError("an improve takes one positive weight per arc")
    clib = load_kernels()
    if clib is not None:
        out = array("q", bytes(8 * n))
        count = clib.vicinity_candidates(
            n,
            p_rows[0],
            p_rows[1] if len(p_rows) == 2 else None,
            p_radius,
            buffer_arg(ends, "q", len(ends), "arcs"),
            len(arcs),
            None if weights is None
            else buffer_arg(weights, "d", len(weights), "weights"),
            stride,
            *p_stored,
            p_lengths,
            buffer_arg(out, "q", n, "out"),
        )
        check_status(count, "vicinity_candidates")
        del out[count:]
        return out
    candidates = array("q")
    members, dists, parents = stored
    directed = [
        (ends[j], ends[j ^ 1], None if weights is None else weights[j >> 1])
        for j in range(len(ends))
    ]
    for node in range(n):
        reach = radius[node]
        if reach < inf:
            reach += _REL_SLACK * reach
        if not all(row[node] <= reach for row in endpoint_rows):
            continue
        base, width = node * stride, lengths[node]
        if not 0 <= width <= stride:
            raise ValueError(f"stored length {width} of node {node}")
        row = members[base : base + width]
        if width and not 0 <= min(row) <= max(row) < n:
            raise ValueError(f"stored member of node {node} out of range")
        at = dict(zip(row, range(base, base + width)))
        last = base + width - 1
        for a, b, weight in directed:
            ja, jb = at.get(a), at.get(b)
            if ja is None:
                continue
            if weight is None:
                changes = jb is not None and parents[jb] == a
            else:
                c = dists[ja] + weight
                if jb is not None:
                    changes = c < dists[jb] or (
                        c == dists[jb] and a < parents[jb]
                    )
                else:
                    changes = width < stride or (c, b) < (
                        dists[last], members[last]
                    )
            if changes:
                candidates.append(node)
                break
    return candidates


def _relax(adjacency, dist, parent, heap, last, a: int) -> None:
    """Relax every arc out of ``a`` in a row under :func:`repair_vicinities`
    (``dist`` / ``parent``: its members and entrants; ``last``: (R, z))."""
    for b, weight in adjacency[a]:
        c = dist[a] + weight
        known = dist.get(b)
        if known is None:
            if (c, b) > last:
                continue
        elif c == known:
            if a < parent[b]:
                parent[b] = a
            continue
        elif not c < known:
            continue
        dist[b], parent[b] = c, a
        heappush(heap, (c, b))


def repair_vicinities(
    graph: CSRGraph,
    candidates,
    sources: Sequence[int],
    stored,
    lengths,
    out,
    offsets: array,
    *,
    base: int = 0,
) -> int:
    """Rebuild the candidates' full vicinity rows after an improving event.

    ``graph`` is the mutated graph and ``sources`` the endpoints of the
    edges the event added or made lighter; ``stored`` / ``lengths`` are the
    slabs :func:`vicinity_candidates` reads, and every candidate's row must
    be full (``stride`` entries).  Row ``i`` goes to the ``out`` triple
    ``(members, dists, parents)`` at ``base + i * stride`` and its end to
    ``offsets``, as :meth:`CSRGraph.k_nearest_batch_into` writes them;
    returns the position after the last row.

    No search: every arc out of a source in the row offers ``c = d[a] + w``,
    and the offers seed a small Dijkstra over the mutated graph that relaxes
    only out of nodes whose distance dropped.  A member ``b`` takes an offer
    when ``c < d[b]`` (only the parent when ``c == d[b]`` and ``a < p[b]``),
    a non-member only when ``(c, b) < (R, z)``, the row's last entry.
    Members and entrants merged by ``(distance, id)`` and cut at the stride
    are the kernel's settle order with its min-id tight parents.
    """
    n = len(lengths)
    candidates = _id_array(candidates)
    sources = _id_array(sources)
    stride, p_stored = _stored_rows(stored, n)
    p_lengths = buffer_arg(lengths, "q", n, "lengths")
    span = len(candidates) * stride
    p_out = [
        buffer_arg(slab, code, span, f"out {name}", base=base)
        for slab, code, name in zip(out, "qdq", _ROW_SLABS)
    ]
    if not all(0 <= node < n for node in sources):
        raise ValueError(f"sources must be nodes below {n}")
    ends = (base + (i + 1) * stride for i in range(len(candidates)))
    clib = load_kernels()
    if clib is not None:
        num_arcs = graph.offsets[n] if n else 0
        status = clib.vicinity_repair(
            n,
            buffer_arg(graph.offsets, "q", n + 1, "offsets"),
            buffer_arg(graph.neighbors, "q", num_arcs, "neighbors"),
            buffer_arg(graph.weights, "d", num_arcs, "weights"),
            buffer_arg(sources, "q", len(sources), "sources"),
            len(sources),
            buffer_arg(candidates, "q", len(candidates), "candidates"),
            len(candidates),
            stride,
            *p_stored,
            p_lengths,
            *p_out,
        )
        check_status(status, "vicinity_repair")
        offsets.extend(ends)
        return base + span
    members, dists, parents = stored
    if graph.num_nodes != n:
        raise ValueError(f"graph has {graph.num_nodes} nodes, not {n}")
    for node in candidates:
        row = members[node * stride : (node + 1) * stride]
        if not (
            0 <= node < n
            and 0 < stride == lengths[node] == len(set(row))
            and 0 <= min(row) <= max(row) < n
        ):
            raise ValueError(f"candidate {node} has no well-formed full row")
    views = [memoryview(slab) for slab in out]
    adjacency = graph.adjacency
    position = base
    for node in candidates:
        lo, hi = node * stride, (node + 1) * stride
        row, row_dists = members[lo:hi], dists[lo:hi]
        dist = dict(zip(row, row_dists))
        parent = dict(zip(row, parents[lo:hi]))
        last, heap, dropped = (row_dists[-1], row[-1]), [], []
        for a in sources:
            if a in dist:
                _relax(adjacency, dist, parent, heap, last, a)
        while heap:
            c, q = heappop(heap)
            if c == dist[q]:  # else superseded by a lower offer
                dropped.append((c, q))
                _relax(adjacency, dist, parent, heap, last, q)
        moved = {q for _, q in dropped}
        kept = [(d, m) for m, d in zip(row, row_dists) if m not in moved]
        for _, m in islice(merge(kept, dropped), stride):
            views[0][position], views[1][position], views[2][position] = (
                m, dist[m], parent[m]
            )
            position += 1
    offsets.extend(ends)
    return position


def commit_vicinities(
    candidates, fresh, stored, lengths, radius
) -> tuple[array, int]:
    """Store and bill the candidates' recomputed vicinity rows.

    ``fresh`` is ``(offsets, members, dists, parents)``, candidate ``i``'s
    row at ``offsets[i] .. offsets[i + 1]``, searched by
    :meth:`CSRGraph.k_nearest_batch_into` or rebuilt by
    :func:`repair_vicinities`; ``stored`` is
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
    stride, p_stored = _stored_rows(stored, n)
    p_offsets = buffer_arg(offsets, "q", len(candidates) + 1, "fresh offsets")
    p_fresh = [
        buffer_arg(slab, code, total, f"fresh {name}")
        for slab, code, name in zip(fresh_slabs, "qdq", _ROW_SLABS)
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

