"""Event-driven churn engine: incremental substrate maintenance.

The paper's accounting of one topology event is the difference between a
*fully reconverged* :class:`~repro.core.nddisco.NDDiscoRouting` on the
mutated topology and the previous state, which costs a full |L|-SPT +
n-vicinity rebuild per event (the tests' replay oracle,
``tests/oracles/replay.py``, does exactly that).

:class:`ChurnEngine` maintains the same converged state *incrementally*:

* **Landmark SPT rows** are two flat ``|L| x n`` slabs (distances and
  parents, row-major in ascending landmark order, ``inf`` / ``-1`` fill --
  the layout of ``SubstrateTables.spt_dist`` / ``spt_parent``), repaired
  per event with the affected-subtree algorithms of
  :mod:`repro.graphs.incremental` in one call over all rows -- an event
  that does not touch a row's tree arc costs O(1) on that row.
* **Closest landmarks** are refolded only for nodes whose distance to some
  landmark changed (ascending landmark order, strict ``<``, matching
  :func:`repro.core.landmarks.closest_landmarks`).
* **Vicinities** are recomputed only for *candidate* nodes -- those whose
  stored row has an event arc among the relaxations that produced it (a
  tree arc when the arc worsens; an offer that beats a member or the row's
  boundary when it improves), read only where the vicinity radius reaches
  the event's endpoints.  Every non-candidate's vicinity is provably
  bit-identical before and after, and every candidate's row changes (but
  for a weight change absorbed by rounding).  The vicinities are three
  slabs of fixed stride ``min(k, n)`` (members / dists / parents in settle
  order, the kernel's own row layout) with a length column and the
  maintained radius array; an event's candidates go down in one batched
  kernel call.
* **Addresses** (closest landmark + landmark-tree path) are re-derived
  only for nodes whose closest landmark changed or that are new-tree
  descendants of a parent change inside their closest landmark's row.

An event is therefore a fixed sequence of calls below the FFI -- row repair
(:mod:`repro.graphs.incremental`), endpoint searches and the k-nearest
recompute (:mod:`repro.graphs.csr`), closest refold, candidate filter and
vicinity commit-and-bill (:mod:`repro.dynamics.passes`) -- and the Python
here walks only what an event changed: the repaired rows' change lists and
the dirty addresses.  Every pass has a pure-Python twin selected with the
kernels themselves (``REPRO_NO_CKERNELS=1``); there is no other switch.

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
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.landmarks import select_landmarks
from repro.core.sloppy_groups import SloppyGrouping
from repro.core.tables import NodeSearchTables, VicinityView
from repro.core.vicinity import vicinity_size
from repro.dynamics.calendar import EventCalendar
from repro.dynamics.maintenance import MaintenanceCost, _mean_group_size
from repro.dynamics.passes import (
    commit_vicinities,
    refold_closest,
    vicinity_candidates,
)
from repro.dynamics.stream import DynEvent
from repro.graphs.incremental import (
    RowChanges,
    repair_rows_after_decrease,
    repair_rows_after_detach,
    repair_rows_after_increase,
)
from repro.graphs.topology import Topology, _as_typed_array
from repro.naming.names import name_for_node

__all__ = ["EventReport", "DirtyState", "ChurnEngine"]

_INF = math.inf

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
        The incremental maintenance bill, identical to what a full
        before/after state diff would charge.
    rows_repaired:
        Landmark SPT rows that had at least one distance or parent change.
    vicinities_recomputed:
        Vicinity rows sent to the k-nearest kernel: the candidate filter's
        answer, read off the stored rows.
    vicinities_stored:
        Rows that came back different (members, distances or parents) and
        were stored.  Equal to ``vicinities_recomputed`` unless a weight
        change was absorbed by rounding.
    """

    event: DynEvent
    applied: bool
    cost: MaintenanceCost = field(default=_ZERO_COST)
    rows_repaired: int = 0
    vicinities_recomputed: int = 0
    vicinities_stored: int = 0

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
        n = topology.num_nodes
        if landmarks is None:
            landmarks = select_landmarks(n, seed=seed)
        self._topology = topology.copy()
        self._landmarks = array("q", sorted(set(landmarks)))
        self._dist_slab = array("d", bytes(8 * len(self._landmarks) * n))
        self._parent_slab = array("q", bytes(8 * len(self._landmarks) * n))
        self._closest = array("q", [-1]) * n
        self._closest_dist = array("d", [_INF]) * n
        csr = self._topology.csr()
        # Every landmark row and the closest fold in one kernel call.
        csr.spt_rows_batch_into(
            self._landmarks,
            self._dist_slab,
            self._parent_slab,
            fill=_INF,
            closest_dist=self._closest_dist,
            closest_landmark=self._closest,
        )
        k = vicinity_k if vicinity_k is not None else vicinity_size(n)
        self._finish_init(
            k,
            csr.k_nearest_batch_flat(k),
            [name_for_node(node) for node in range(n)],
        )
        self._addresses: list[tuple[int, tuple[int, ...]] | None] = [
            self._derive_address(node) for node in range(n)
        ]

    def _finish_init(self, k: int, vicinity, names: list) -> None:
        """What both constructors share once the topology, landmarks, SPT
        slabs and closest rows are in place: the vicinity slabs, from a flat
        all-nodes ``(offsets, members, dists, parents)`` k-nearest result in
        slabs this engine may keep, and the event bookkeeping."""
        n = self._num_nodes = self._topology.num_nodes
        self._k = k
        self._names = names
        self._group_size = _mean_group_size(SloppyGrouping(names))
        self._dead: set[int] = set()
        self._captured: dict[int, list[tuple[int, int, float]]] = {}
        # Reusable rows for the per-event endpoint searches.
        self._endpoint_dist = array("d", bytes(16 * n))
        self._endpoint_parent = array("q", bytes(16 * n))
        self._reset_dirty()

        # Vicinity rows at a fixed stride: node x's row starts at x * stride
        # and holds _vicinity_lengths[x] members (fewer than the stride only
        # when x's component is smaller than k).  _radius[x] is the
        # candidate threshold R_x of the row: its last-settled (farthest)
        # distance, or inf when the vicinity is component-limited.
        stride = self._stride = min(k, n)
        offsets, *slabs = vicinity
        self._vicinity_lengths = array(
            "q", map(int.__sub__, offsets[1:], offsets)
        )
        if len(slabs[0]) != n * stride:  # some row is short: spread them out
            packed = slabs
            slabs = [
                array(slab.typecode, bytes(8 * n * stride)) for slab in packed
            ]
            for node, lo in enumerate(offsets[:-1]):
                width = self._vicinity_lengths[node]
                for slab, rows in zip(slabs, packed):
                    slab[node * stride : node * stride + width] = rows[
                        lo : lo + width
                    ]
        self._vicinity_slabs: tuple[array, array, array] = tuple(slabs)
        self._radius = slabs[1][stride - 1 :: stride] if stride else array("d")
        for node, width in enumerate(self._vicinity_lengths):
            if width < stride:
                self._radius[node] = _INF

    def _reset_dirty(self) -> None:
        self._dirty_rows: dict[int, set[int]] = {}
        self._dirty_closest: set[int] = set()
        self._dirty_vicinities: set[int] = set()
        self._dirty_addresses: set[int] = set()

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
        when every node is reachable -- and then no entry needs translating
        to this engine's ``inf`` / ``-1`` fill).  The slabs are copied
        wholesale; the resulting engine state is bit-identical to building
        from scratch, without recomputing any search.
        """
        if not routing.topology.is_connected():
            raise ValueError(
                "from_routing requires a connected topology; build the "
                "engine from scratch instead"
            )
        engine = cls.__new__(cls)
        engine._topology = routing.topology.copy()
        tables = routing.tables
        engine._landmarks = _as_typed_array("q", tables.landmark_ids)
        engine._dist_slab = _as_typed_array("d", tables.spt_dist)
        engine._parent_slab = _as_typed_array("q", tables.spt_parent)
        engine._closest = _as_typed_array("q", tables.closest)
        engine._closest_dist = _as_typed_array("d", tables.closest_dist)
        vicinity = tables.vicinity
        engine._finish_init(
            # Connected topology: every adopted row holds exactly min(k, n)
            # members, whatever vicinity_scale the routing was built with.
            vicinity.offsets[1],
            (
                vicinity.offsets,
                _as_typed_array("q", vicinity.members),
                _as_typed_array("d", vicinity.dists),
                _as_typed_array("q", vicinity.parents),
            ),
            list(routing.names),
        )
        engine._addresses = [
            (address.landmark, tuple(address.route.path))
            for address in routing.addresses
        ]
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
        table = NodeSearchTables.from_rows(
            [self.vicinity_row(node) for node in range(self._num_nodes)]
        )
        return [VicinityView(table, node) for node in range(self._num_nodes)]

    def vicinity_row(
        self, node: int
    ) -> tuple[memoryview, memoryview, memoryview]:
        """Flat ``(members, dists, parents)`` row of one node, in settle
        order, as read-only views of the engine's slabs (the stored row
        decides whether an event recomputes it)."""
        lo = node * self._stride
        hi = lo + self._vicinity_lengths[node]
        members, dists, parents = self._vicinity_slabs
        return (
            memoryview(members).toreadonly()[lo:hi],
            memoryview(dists).toreadonly()[lo:hi],
            memoryview(parents).toreadonly()[lo:hi],
        )

    @property
    def addresses(self) -> list[tuple[int, tuple[int, ...]] | None]:
        """Per-node ``(closest landmark, landmark-tree path)``; read-only.

        ``None`` for nodes with no reachable landmark.
        """
        return self._addresses

    def _row_bounds(self, landmark: int) -> tuple[int, int]:
        row = bisect_left(self._landmarks, landmark)
        if row == len(self._landmarks) or self._landmarks[row] != landmark:
            raise KeyError(landmark)
        return row * self._num_nodes, (row + 1) * self._num_nodes

    def landmark_row(self, landmark: int) -> tuple[memoryview, memoryview]:
        """Dense ``(dist, parent)`` row for one landmark, as read-only
        views of the engine's slabs."""
        lo, hi = self._row_bounds(landmark)
        return (
            memoryview(self._dist_slab).toreadonly()[lo:hi],
            memoryview(self._parent_slab).toreadonly()[lo:hi],
        )

    @property
    def closest_landmark_rows(self) -> tuple[array, array]:
        """Per-node closest landmark and distance; read-only.

        Unreachable nodes hold ``-1`` / ``inf`` (the converged classes
        assume connectivity and cannot represent this case).
        """
        return self._closest, self._closest_dist

    def state_signature(self):
        """Hashable snapshot of the full converged state, for differentials."""
        rows = map(self.landmark_row, self._landmarks)
        vicinity_rows = map(self.vicinity_row, range(self._num_nodes))
        return (
            tuple(
                (landmark, tuple(dist), tuple(parent))
                for landmark, (dist, parent) in zip(self._landmarks, rows)
            ),
            tuple(self._closest),
            tuple(self._closest_dist),
            tuple(
                tuple(sorted(zip(members, dists)))
                for members, dists, _ in vicinity_rows
            ),
            tuple(self._addresses),
        )

    # -- internal maintenance helpers ---------------------------------------

    def _derive_address(self, node: int):
        landmark = self._closest[node]
        if landmark < 0:
            return None
        base, _ = self._row_bounds(landmark)
        parent_slab = self._parent_slab
        path = [node]
        while path[-1] != landmark:
            pred = parent_slab[base + path[-1]]
            if pred < 0:
                return None
            path.append(pred)
        path.reverse()
        return (landmark, tuple(path))

    def _endpoint_rows(self, *nodes: int) -> list[memoryview]:
        """Distance rows rooted at an event's endpoints in the current
        graph, searched into the engine's reusable scratch rows."""
        n = self._num_nodes
        self._topology.csr().spt_rows_batch_into(
            array("q", nodes),
            self._endpoint_dist,
            self._endpoint_parent,
            fill=_INF,
            threads=1,
        )
        rows = memoryview(self._endpoint_dist)
        return [
            rows[index * n : (index + 1) * n] for index in range(len(nodes))
        ]

    def _candidates(
        self, endpoint_rows, arcs, weights: list[float] | None = None
    ) -> array:
        """The rows an event over ``arcs`` changes (``weights``: their new,
        lighter weights; ``None``: they were removed or made heavier)."""
        return vicinity_candidates(
            endpoint_rows,
            self._radius,
            arcs,
            self._vicinity_slabs,
            self._vicinity_lengths,
            weights=weights,
        )

    def _patch_vicinities(self, candidates: array) -> tuple[int, int]:
        """Recompute the candidates' rows in one batched kernel call; store
        and bill (members whose distance entry differs) the changed ones.
        Returns the bill and the number of rows stored."""
        if not candidates:
            return 0, 0
        fresh = self._topology.csr().k_nearest_batch_flat(self._k, candidates)
        changed, entries_changed = commit_vicinities(
            candidates,
            fresh,
            self._vicinity_slabs,
            self._vicinity_lengths,
            self._radius,
        )
        self._dirty_vicinities.update(changed)
        return entries_changed, len(changed)

    def _patch_addresses(self, changes: RowChanges) -> int:
        """Refold closest landmarks and re-derive the stale addresses."""
        refolded, stale = refold_closest(
            self._topology,
            self._landmarks,
            self._dist_slab,
            self._parent_slab,
            changes,
            self._closest,
            self._closest_dist,
        )
        self._dirty_closest.update(refolded)
        addresses_changed = 0
        for node in stale:
            address = self._derive_address(node)
            if address != self._addresses[node]:
                self._addresses[node] = address
                self._dirty_addresses.add(node)
                addresses_changed += 1
        return addresses_changed

    def _absorb(
        self, event: DynEvent, changes: RowChanges, candidates: array
    ) -> EventReport:
        """Everything after the row repair and the candidate filter: patch
        vicinities, closest landmarks and addresses, and bill the event."""
        vicinity_entries, stored = self._patch_vicinities(candidates)
        addresses_changed = self._patch_addresses(changes)
        for row, dist_changed, parent_changed in changes:
            row_dirty = self._dirty_rows.setdefault(
                self._landmarks[row], set()
            )
            row_dirty.update(dist_changed)
            row_dirty.update(parent_changed)
        cost = MaintenanceCost(
            addresses_changed=addresses_changed,
            landmark_set_changed=False,
            resolution_updates=addresses_changed,
            dissemination_messages=int(
                round(addresses_changed * self._group_size)
            ),
            vicinity_entries_changed=vicinity_entries,
            landmark_entries_changed=len(changes.dist_changed),
        )
        return EventReport(
            event=event,
            applied=True,
            cost=cost,
            rows_repaired=len(changes),
            vicinities_recomputed=len(candidates),
            vicinities_stored=stored,
        )

    def _repair_slabs(self, repair, *event) -> RowChanges:
        """One ``repair_rows_after_*`` call over every landmark row."""
        return repair(
            self._topology,
            self._landmarks,
            self._dist_slab,
            self._parent_slab,
            *event,
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
        topology = self._topology
        present = topology.has_edge(u, v)
        if present == (kind == "edge-up"):
            return self._noop(event)
        # An absent edge weighs inf: every edge event is one weight change.
        old_weight = topology.edge_weight(u, v) if present else _INF
        new_weight = _INF if kind == "edge-down" else float(event.weight)
        if new_weight == old_weight:
            return self._noop(event)
        # The candidate prefilter judges the graph that has the edge at its
        # lighter weight: the old graph (searched before the mutation) when
        # the edge worsens, the new graph otherwise.
        worsens = new_weight > old_weight
        if worsens:
            endpoint_rows = self._endpoint_rows(u, v)
        if not present:
            topology.add_edge(u, v, new_weight)
        elif new_weight == _INF:
            topology.remove_edge(u, v)
        else:
            topology.set_edge_weight(u, v, new_weight)
        if worsens:
            changes = self._repair_slabs(repair_rows_after_increase, u, v)
        else:
            changes = self._repair_slabs(repair_rows_after_decrease, [(u, v)])
            endpoint_rows = self._endpoint_rows(u, v)
        candidates = self._candidates(
            endpoint_rows, [(u, v)], None if worsens else [new_weight]
        )
        return self._absorb(event, changes, candidates)

    def _apply_leave(self, event: DynEvent) -> EventReport:
        node = event.u
        if not 0 <= node < self._num_nodes or node in self._dead:
            return self._noop(event)
        old_row = self._endpoint_rows(node)
        arcs = list(self._topology.adjacency[node])
        incident = sorted((node, other, weight) for other, weight in arcs)
        for _, neighbor, _ in incident:
            self._topology.remove_edge(node, neighbor)
        self._captured[node] = incident
        self._dead.add(node)
        changes = self._repair_slabs(repair_rows_after_detach, node, arcs)
        candidates = self._candidates(
            old_row, [(node, neighbor) for neighbor, _ in arcs]
        )
        return self._absorb(event, changes, candidates)

    def _apply_join(self, event: DynEvent) -> EventReport:
        node = event.u
        if node not in self._dead:
            return self._noop(event)
        self._dead.discard(node)
        restored: list[tuple[int, int]] = []
        weights: list[float] = []
        for _, neighbor, weight in self._captured.pop(node, []):
            if neighbor in self._dead:
                # The far endpoint left after we did; it now owns the edge
                # and will restore it when it rejoins.
                self._captured.setdefault(neighbor, []).append(
                    (neighbor, node, weight)
                )
                self._captured[neighbor].sort()
            else:
                self._topology.add_edge(node, neighbor, weight)
                restored.append((node, neighbor))
                weights.append(weight)
        # One repair per row over the whole restored edge set.
        changes = self._repair_slabs(repair_rows_after_decrease, restored)
        candidates = self._candidates(
            self._endpoint_rows(node), restored, weights
        )
        return self._absorb(event, changes, candidates)

    def run(self, events) -> list[EventReport]:
        """Schedule ``events`` on a calendar and absorb them in tick order."""
        calendar = EventCalendar()
        calendar.extend(events)
        return [self.apply(event) for event in calendar.drain()]
