"""Event-driven churn engine: incremental substrate maintenance.

The seed-era dynamics path ("replay") models one topology event by building
a *fully reconverged* :class:`~repro.core.nddisco.NDDiscoRouting` on the
mutated topology and diffing it against the previous state
(:func:`~repro.dynamics.maintenance.maintenance_cost`).  That is the
paper's accounting, but it costs a full |L|-SPT + n-vicinity rebuild per
event.

:class:`ChurnEngine` maintains the same converged state *incrementally*:

* **Landmark SPT rows** are repaired per event with the affected-subtree
  algorithms of :mod:`repro.graphs.incremental` -- an event that does not
  touch a row's tree arc costs O(1) on that row.
* **Closest landmarks** are refolded only for nodes whose distance to some
  landmark changed (ascending landmark order, strict ``<``, matching
  :func:`repro.core.landmarks.closest_landmarks`).
* **Vicinities** are recomputed only for *candidate* nodes -- those whose
  current vicinity radius reaches an event endpoint (old-graph distances
  for failures/increases, new-graph for recoveries/decreases).  Every
  non-candidate's vicinity is provably bit-identical before and after.
  Each vicinity is held as the kernel's own flat row (members / dists /
  parents in settle order, the ``NodeSearchTables`` layout); an event's
  candidates go down in one batched kernel call and a row that comes back
  buffer-equal to the stored one is skipped.
* **Addresses** (closest landmark + landmark-tree path) are re-derived
  only for nodes whose closest landmark changed or that are new-tree
  descendants of a parent change inside their closest landmark's row.

Because the SPT repairs and vicinity recomputes go through the canonical
search kernels, the resulting state is bit-identical to a from-scratch
rebuild on the mutated topology, and the :class:`MaintenanceCost` charged
per event equals the full before/after state diff the replay oracle
computes -- the differential tests in ``tests/test_dynamics_incremental.py``
assert both.

Unlike the converged-state classes, the engine survives partitions: its
rows use ``inf`` / ``-1`` for unreachable nodes, a node with no reachable
landmark has ``closest == -1`` and address ``None``, and node leave/join
events capture and restore incident edges with stable node ids.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

from repro.core.landmarks import select_landmarks
from repro.core.sloppy_groups import SloppyGrouping
from repro.core.tables import NodeSearchTables, VicinityView
from repro.core.vicinity import vicinity_size
from repro.dynamics.calendar import EventCalendar
from repro.dynamics.maintenance import MaintenanceCost, _mean_group_size
from repro.dynamics.stream import DynEvent
from repro.graphs.incremental import (
    repair_after_decrease,
    repair_after_detach,
    repair_after_increase,
    spt_dense,
)
from repro.graphs.topology import Topology
from repro.naming.names import name_for_node

__all__ = ["EventReport", "DirtyState", "ChurnEngine"]

_INF = math.inf

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
_REL_SLACK = 1e-9

_ZERO_COST = MaintenanceCost(
    addresses_changed=0,
    landmark_set_changed=False,
    resolution_updates=0,
    dissemination_messages=0,
    vicinity_entries_changed=0,
    landmark_entries_changed=0,
)


@dataclass(frozen=True)
class EventReport:
    """What one event cost to absorb.

    Attributes
    ----------
    event:
        The event applied.
    applied:
        False when the event was a graceful no-op (edge event at a dead
        node or missing edge, duplicate leave/join, reweight to the same
        weight); no state changes and ``cost`` is all zeros.
    cost:
        The incremental maintenance bill, identical to what
        :func:`~repro.dynamics.maintenance.maintenance_cost` would charge
        for the full before/after state diff.
    rows_repaired:
        Landmark SPT rows that had at least one distance or parent change.
    vicinities_recomputed:
        Candidate nodes whose vicinity was re-derived (an upper bound on
        the nodes whose vicinity actually changed).
    """

    event: DynEvent
    applied: bool
    cost: MaintenanceCost = field(default=_ZERO_COST)
    rows_repaired: int = 0
    vicinities_recomputed: int = 0

    @property
    def protocol_messages(self) -> int:
        """Logical protocol messages exchanged to absorb the event."""
        return self.cost.total_incremental_entries


@dataclass(frozen=True)
class DirtyState:
    """Accumulated state changes since the last :meth:`ChurnEngine.take_dirty`.

    The change sets a :class:`~repro.core.tables.SubstrateTables` snapshot
    needs to catch up with the engine (see
    :func:`repro.core.substrate_build.apply_maintenance`): per-landmark SPT
    entries touched, closest-landmark entries refolded, vicinities
    recomputed, and addresses re-derived.
    """

    rows: dict[int, set[int]]
    closest: set[int]
    vicinities: set[int]
    addresses: set[int]

    def __bool__(self) -> bool:
        return bool(
            self.rows or self.closest or self.vicinities or self.addresses
        )


class ChurnEngine:
    """Converged NDDisco substrate state under incremental maintenance."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        landmarks=None,
        vicinity_k: int | None = None,
    ) -> None:
        self._topology = topology.copy()
        n = topology.num_nodes
        self._num_nodes = n
        if landmarks is None:
            landmarks = select_landmarks(n, seed=seed)
        self._landmarks: list[int] = sorted(landmarks)
        self._k = vicinity_k if vicinity_k is not None else vicinity_size(n)
        self._names = [name_for_node(node) for node in range(n)]
        self._group_size = _mean_group_size(SloppyGrouping(self._names))
        self._dead: set[int] = set()
        self._captured: dict[int, list[tuple[int, int, float]]] = {}
        self._reset_dirty()
        self._rows: dict[int, tuple[list[float], list[int]]] = {
            landmark: spt_dense(self._topology, landmark)
            for landmark in self._landmarks
        }
        self._adopt_vicinities(
            *self._topology.csr().k_nearest_batch_flat(self._k)
        )
        self._closest: list[int] = [-1] * n
        self._closest_dist: list[float] = [_INF] * n
        for node in range(n):
            self._refold_closest(node)
        self._addresses: list[tuple[int, tuple[int, ...]] | None] = [
            self._derive_address(node) for node in range(n)
        ]
        self._reset_dirty()

    def _reset_dirty(self) -> None:
        self._dirty_rows: dict[int, set[int]] = {}
        self._dirty_closest: set[int] = set()
        self._dirty_vicinities: set[int] = set()
        self._dirty_addresses: set[int] = set()

    def _adopt_vicinities(self, offsets, members, dists, parents) -> None:
        """Split one flat all-nodes k-nearest result into per-node rows."""
        self._vicinities: list[tuple] = [
            (members[lo:hi], dists[lo:hi], parents[lo:hi])
            for lo, hi in zip(offsets, offsets[1:])
        ]
        self._radius = array(
            "d", [self._radius_of(dists) for _, dists, _ in self._vicinities]
        )

    def _radius_of(self, dists) -> float:
        """The candidate threshold R_x of a row: its last-settled (farthest)
        distance, or inf when the vicinity is component-limited (fewer than
        k members)."""
        full = len(dists) == min(self._k, self._num_nodes)
        return dists[-1] if full else _INF

    def take_dirty(self) -> DirtyState:
        """Return and clear the change sets accumulated since the last call."""
        dirty = DirtyState(
            rows=self._dirty_rows,
            closest=self._dirty_closest,
            vicinities=self._dirty_vicinities,
            addresses=self._dirty_addresses,
        )
        self._reset_dirty()
        return dirty

    @classmethod
    def from_routing(cls, routing) -> "ChurnEngine":
        """Adopt the converged state of an :class:`NDDiscoRouting` instance.

        Requires a connected topology (the converged classes' dense rows
        use a ``0.0`` fill for unreachable nodes, which is only unambiguous
        when every node is reachable).  The resulting engine state is
        bit-identical to building from scratch, without recomputing any
        search.
        """
        if not routing.topology.is_connected():
            raise ValueError(
                "from_routing requires a connected topology; build the "
                "engine from scratch instead"
            )
        engine = cls.__new__(cls)
        engine._topology = routing.topology.copy()
        n = routing.topology.num_nodes
        engine._num_nodes = n
        engine._landmarks = sorted(routing.landmarks)
        # Connected topology: every adopted row holds exactly min(k, n)
        # members, whatever vicinity_scale the routing was built with.
        vicinity = routing.tables.vicinity
        engine._k = vicinity.offsets[1]
        engine._names = list(routing.names)
        engine._group_size = _mean_group_size(SloppyGrouping(engine._names))
        engine._dead = set()
        engine._captured = {}
        engine._rows = {
            landmark: (list(dist_row), list(parent_row))
            for landmark, (dist_row, parent_row) in routing.landmark_spts.items()
        }
        engine._adopt_vicinities(
            vicinity.offsets,
            vicinity.members,
            vicinity.dists,
            vicinity.parents,
        )
        closest_row, closest_dist_row = routing.closest_landmark_rows
        engine._closest = list(closest_row)
        engine._closest_dist = list(closest_dist_row)
        engine._addresses = [
            (address.landmark, tuple(address.route.path))
            for address in routing.addresses
        ]
        engine._reset_dirty()
        return engine

    # -- read-only state accessors ------------------------------------------

    @property
    def topology(self) -> Topology:
        """The current (mutated) topology; treat as read-only."""
        return self._topology

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def landmarks(self) -> set[int]:
        """The (fixed) landmark set, as a copy."""
        return set(self._landmarks)

    @property
    def vicinity_k(self) -> int:
        """The vicinity size target k."""
        return self._k

    @property
    def dead_nodes(self) -> set[int]:
        """Nodes currently departed (isolated, edges captured), as a copy."""
        return set(self._dead)

    @property
    def vicinities(self) -> list[VicinityView]:
        """Per-node vicinity views (indexed by node id) over a snapshot of
        the current rows, built per call; read-only."""
        table = NodeSearchTables.from_rows(self._vicinities)
        return [VicinityView(table, node) for node in range(self._num_nodes)]

    def vicinity_row(self, node: int) -> tuple:
        """Flat ``(members, dists, parents)`` row of one node, in settle
        order; read-only."""
        return self._vicinities[node]

    @property
    def addresses(self) -> list[tuple[int, tuple[int, ...]] | None]:
        """Per-node ``(closest landmark, landmark-tree path)``; read-only.

        ``None`` for nodes with no reachable landmark.
        """
        return self._addresses

    def landmark_row(self, landmark: int) -> tuple[list[float], list[int]]:
        """Dense ``(dist, parent)`` row for one landmark; read-only."""
        return self._rows[landmark]

    @property
    def closest_landmark_rows(self) -> tuple[list[int], list[float]]:
        """Per-node closest landmark and distance; read-only.

        Unreachable nodes hold ``-1`` / ``inf`` (the converged classes
        assume connectivity and cannot represent this case).
        """
        return self._closest, self._closest_dist

    def state_signature(self):
        """Hashable snapshot of the full converged state, for differentials."""
        return (
            tuple(
                (landmark, tuple(dist), tuple(parent))
                for landmark, (dist, parent) in sorted(self._rows.items())
            ),
            tuple(self._closest),
            tuple(self._closest_dist),
            tuple(
                tuple(sorted(zip(members, dists)))
                for members, dists, _ in self._vicinities
            ),
            tuple(self._addresses),
        )

    # -- internal maintenance helpers ---------------------------------------

    def _refold_closest(self, node: int) -> bool:
        best_landmark = -1
        best_distance = _INF
        for landmark in self._landmarks:
            distance = self._rows[landmark][0][node]
            if distance < best_distance:
                best_distance = distance
                best_landmark = landmark
        if (
            best_landmark == self._closest[node]
            and best_distance == self._closest_dist[node]
        ):
            return False
        self._closest[node] = best_landmark
        self._closest_dist[node] = best_distance
        self._dirty_closest.add(node)
        return True

    def _derive_address(self, node: int):
        landmark = self._closest[node]
        if landmark < 0:
            return None
        parent_row = self._rows[landmark][1]
        path = [node]
        while path[-1] != landmark:
            pred = parent_row[path[-1]]
            if pred < 0:
                return None
            path.append(pred)
        path.reverse()
        return (landmark, tuple(path))

    def _repair_rows(self, repair) -> dict[int, tuple[list[int], list[int]]]:
        """Run one repair primitive over every landmark row."""
        changes: dict[int, tuple[list[int], list[int]]] = {}
        for landmark in self._landmarks:
            dist, parent = self._rows[landmark]
            dist_changed, parent_changed = repair(landmark, dist, parent)
            if dist_changed or parent_changed:
                changes[landmark] = (dist_changed, parent_changed)
        return changes

    def _vicinity_candidates(
        self,
        endpoint_rows: list[list[float]],
        *,
        tight: float | None = None,
    ) -> list[int]:
        """Nodes whose vicinity may change: radius reaches an endpoint.

        For edge events ``tight`` is the edge weight in the graph the
        ``endpoint_rows`` were computed on (old graph for increase-type
        events, new graph for decrease-type), and the filter sharpens in
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
        """
        candidates = []
        if tight is not None:
            row_u, row_v = endpoint_rows
            for node in range(self._num_nodes):
                du = row_u[node]
                dv = row_v[node]
                if du <= dv:
                    near, far = du, dv
                else:
                    near, far = dv, du
                if near == _INF or abs(near + tight - far) > _REL_SLACK * far:
                    continue
                radius = self._radius[node]
                if radius < _INF:
                    radius += _REL_SLACK * radius
                if near + tight <= radius:
                    candidates.append(node)
            return candidates
        for node in range(self._num_nodes):
            radius = self._radius[node]
            if radius < _INF:
                radius += _REL_SLACK * radius
            for row in endpoint_rows:
                if row[node] <= radius:
                    candidates.append(node)
                    break
        return candidates

    def _patch_vicinities(self, candidates) -> int:
        """Recompute the candidates' rows in one batched kernel call; store
        and bill (members whose distance entry differs) the changed ones."""
        if not candidates:
            return 0
        offsets, *slabs = self._topology.csr().k_nearest_batch_flat(
            self._k, candidates
        )
        members, dists, parents = map(memoryview, slabs)
        entries_changed = 0
        for index, node in enumerate(candidates):
            lo, hi = offsets[index], offsets[index + 1]
            old_members, old_dists, old_parents = self._vicinities[node]
            if members[lo:hi] != old_members or dists[lo:hi] != old_dists:
                moved = set(zip(old_members, old_dists)).symmetric_difference(
                    zip(members[lo:hi], dists[lo:hi])
                )
                entries_changed += len({member for member, _ in moved})
            elif parents[lo:hi] == old_parents:
                continue
            self._dirty_vicinities.add(node)
            self._vicinities[node] = tuple(slab[lo:hi] for slab in slabs)
            self._radius[node] = self._radius_of(dists[lo:hi])
        return entries_changed

    def _patch_addresses(self, changes) -> int:
        """Refold closest landmarks and re-derive dirty addresses.

        ``changes`` maps landmark -> (dist_changed, parent_changed).  A
        node's address is dirty when its closest landmark changed, or when
        it is a new-tree descendant of a parent change inside its closest
        landmark's row (walking its address path would traverse the changed
        pointer).
        """
        touched: set[int] = set()
        for dist_changed, _ in changes.values():
            touched.update(dist_changed)
        dirty: set[int] = set()
        for node in touched:
            if self._refold_closest(node):
                dirty.add(node)
        adjacency = self._topology.adjacency
        for landmark, (_, parent_changed) in changes.items():
            if not parent_changed:
                continue
            parent_row = self._rows[landmark][1]
            stack = list(parent_changed)
            seen = set(stack)
            while stack:
                node = stack.pop()
                if self._closest[node] == landmark:
                    dirty.add(node)
                # Tree children are the graph neighbours pointing back.
                for child, _ in adjacency[node]:
                    if parent_row[child] == node and child not in seen:
                        seen.add(child)
                        stack.append(child)
        addresses_changed = 0
        for node in sorted(dirty):
            address = self._derive_address(node)
            if address != self._addresses[node]:
                self._addresses[node] = address
                self._dirty_addresses.add(node)
                addresses_changed += 1
        return addresses_changed

    def _bill(
        self, event: DynEvent, changes, addresses_changed: int,
        vicinity_entries: int, candidates,
    ) -> EventReport:
        for landmark, (dist_changed, parent_changed) in changes.items():
            row_dirty = self._dirty_rows.setdefault(landmark, set())
            row_dirty.update(dist_changed)
            row_dirty.update(parent_changed)
        landmark_entries = sum(
            len(dist_changed) for dist_changed, _ in changes.values()
        )
        cost = MaintenanceCost(
            addresses_changed=addresses_changed,
            landmark_set_changed=False,
            resolution_updates=addresses_changed,
            dissemination_messages=int(
                round(addresses_changed * self._group_size)
            ),
            vicinity_entries_changed=vicinity_entries,
            landmark_entries_changed=landmark_entries,
        )
        return EventReport(
            event=event,
            applied=True,
            cost=cost,
            rows_repaired=len(changes),
            vicinities_recomputed=len(candidates),
        )

    # -- event application --------------------------------------------------

    def apply(self, event: DynEvent) -> EventReport:
        """Apply one event; return its maintenance bill.

        Infeasible events (edge events touching a dead node or a missing /
        already-present edge, leave of a dead node, join of a live one,
        reweight to the current weight, an ``edge-up`` / ``edge-reweight``
        weight that is not positive and finite) are graceful no-ops -- the
        message-level behavior of a node that receives a stale or duplicate
        update -- reported with ``applied=False``.
        """
        kind = event.kind
        if kind in ("edge-down", "edge-up", "edge-reweight"):
            return self._apply_edge_event(event)
        if kind == "node-leave":
            return self._apply_leave(event)
        if kind == "node-join":
            return self._apply_join(event)
        raise ValueError(f"unknown event kind {kind!r}")

    def _noop(self, event: DynEvent) -> EventReport:
        return EventReport(event=event, applied=False)

    def _apply_edge_event(self, event: DynEvent) -> EventReport:
        u, v = event.edge
        if u > v:
            u, v = v, u
        if u in self._dead or v in self._dead or u == v:
            return self._noop(event)
        if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
            return self._noop(event)
        kind = event.kind
        if kind != "edge-down" and not 0 < event.weight < _INF:
            return self._noop(event)  # zero, negative, inf or NaN weight
        if kind == "edge-down":
            if not self._topology.has_edge(u, v):
                return self._noop(event)
            old_rows = [
                spt_dense(self._topology, u)[0],
                spt_dense(self._topology, v)[0],
            ]
            old_weight = self._topology.remove_edge(u, v)
            changes = self._repair_rows(
                lambda root, dist, parent: repair_after_increase(
                    self._topology, dist, parent, root, u, v
                )
            )
            candidates = self._vicinity_candidates(old_rows, tight=old_weight)
        elif kind == "edge-up":
            if self._topology.has_edge(u, v):
                return self._noop(event)
            self._topology.add_edge(u, v, event.weight)
            changes = self._repair_rows(
                lambda root, dist, parent: repair_after_decrease(
                    self._topology, dist, parent, root, u, v
                )
            )
            new_rows = [
                spt_dense(self._topology, u)[0],
                spt_dense(self._topology, v)[0],
            ]
            candidates = self._vicinity_candidates(
                new_rows, tight=self._topology.edge_weight(u, v)
            )
        else:  # edge-reweight
            if not self._topology.has_edge(u, v):
                return self._noop(event)
            old_weight = self._topology.edge_weight(u, v)
            new_weight = float(event.weight)
            if new_weight == old_weight:
                return self._noop(event)
            if new_weight > old_weight:
                old_rows = [
                    spt_dense(self._topology, u)[0],
                    spt_dense(self._topology, v)[0],
                ]
                self._topology.set_edge_weight(u, v, new_weight)
                changes = self._repair_rows(
                    lambda root, dist, parent: repair_after_increase(
                        self._topology, dist, parent, root, u, v
                    )
                )
                candidates = self._vicinity_candidates(
                    old_rows, tight=old_weight
                )
            else:
                self._topology.set_edge_weight(u, v, new_weight)
                changes = self._repair_rows(
                    lambda root, dist, parent: repair_after_decrease(
                        self._topology, dist, parent, root, u, v
                    )
                )
                new_rows = [
                    spt_dense(self._topology, u)[0],
                    spt_dense(self._topology, v)[0],
                ]
                candidates = self._vicinity_candidates(
                    new_rows, tight=new_weight
                )
        vicinity_entries = self._patch_vicinities(candidates)
        addresses_changed = self._patch_addresses(changes)
        return self._bill(
            event, changes, addresses_changed, vicinity_entries, candidates
        )

    def _apply_leave(self, event: DynEvent) -> EventReport:
        node = event.u
        if not 0 <= node < self._num_nodes or node in self._dead:
            return self._noop(event)
        old_row = spt_dense(self._topology, node)[0]
        arcs = list(self._topology.adjacency[node])
        incident = sorted((node, other, weight) for other, weight in arcs)
        for _, neighbor, _ in incident:
            self._topology.remove_edge(node, neighbor)
        self._captured[node] = incident
        self._dead.add(node)
        changes = self._repair_rows(
            lambda root, dist, parent: repair_after_detach(
                self._topology, dist, parent, root, node, arcs
            )
        )
        candidates = self._vicinity_candidates([old_row])
        vicinity_entries = self._patch_vicinities(candidates)
        addresses_changed = self._patch_addresses(changes)
        return self._bill(
            event, changes, addresses_changed, vicinity_entries, candidates
        )

    def _apply_join(self, event: DynEvent) -> EventReport:
        node = event.u
        if node not in self._dead:
            return self._noop(event)
        self._dead.discard(node)
        restored: list[tuple[int, float]] = []
        for _, neighbor, weight in self._captured.pop(node, []):
            if neighbor in self._dead:
                # The far endpoint left after we did; it now owns the edge
                # and will restore it when it rejoins.
                self._captured.setdefault(neighbor, []).append(
                    (neighbor, node, weight)
                )
                self._captured[neighbor].sort()
            else:
                restored.append((neighbor, weight))
        # Multiple sequential decrease repairs can move one entry twice, so
        # exact change accounting diffs against a pre-event snapshot.
        snapshot = {
            landmark: (list(dist), list(parent))
            for landmark, (dist, parent) in self._rows.items()
        }
        touched: dict[int, set[int]] = {
            landmark: set() for landmark in self._landmarks
        }
        for neighbor, weight in restored:
            self._topology.add_edge(node, neighbor, weight)
            for landmark in self._landmarks:
                dist, parent = self._rows[landmark]
                dist_changed, parent_changed = repair_after_decrease(
                    self._topology, dist, parent, landmark, node, neighbor
                )
                touched[landmark].update(dist_changed)
                touched[landmark].update(parent_changed)
        changes: dict[int, tuple[list[int], list[int]]] = {}
        for landmark, moved in touched.items():
            if not moved:
                continue
            old_dist, old_parent = snapshot[landmark]
            dist, parent = self._rows[landmark]
            dist_changed = sorted(
                other for other in moved if dist[other] != old_dist[other]
            )
            parent_changed = sorted(
                other for other in moved if parent[other] != old_parent[other]
            )
            if dist_changed or parent_changed:
                changes[landmark] = (dist_changed, parent_changed)
        new_row = spt_dense(self._topology, node)[0]
        candidates = self._vicinity_candidates([new_row])
        vicinity_entries = self._patch_vicinities(candidates)
        addresses_changed = self._patch_addresses(changes)
        return self._bill(
            event, changes, addresses_changed, vicinity_entries, candidates
        )

    def run(self, events) -> list[EventReport]:
        """Schedule ``events`` on a calendar and absorb them in tick order."""
        calendar = EventCalendar()
        calendar.extend(events)
        return [self.apply(event) for event in calendar.drain()]
