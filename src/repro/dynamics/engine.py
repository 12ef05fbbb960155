"""Event-driven churn engine: the converged substrate, repaired in place.

The paper's accounting of one topology event is the difference between a
*fully reconverged* :class:`~repro.core.nddisco.NDDiscoRouting` on the
mutated topology and the previous state, which costs a full |L|-SPT +
n-vicinity rebuild per event (the tests' replay oracle,
``tests/oracles/replay.py``, does exactly that).

:class:`ChurnEngine` holds the same converged state as the schemes do -- a
:class:`~repro.core.tables.SubstrateTables`, converged by the production
builder (:func:`~repro.core.substrate_build.build_substrate_tables`) -- and
repairs those tables' own slabs per event.  ``engine.tables`` is the read
surface: read-only views of the memory the engine writes, equal to a fresh
build on the mutated topology after every event, with no sync step.

* **Landmark SPT rows** (``spt_dist`` / ``spt_parent``, ``|L| x n``
  row-major in ascending landmark order, ``inf`` / ``-1`` where a landmark
  does not reach) are repaired with the affected-subtree algorithms of
  :mod:`repro.graphs.incremental` in one call over all rows -- an event
  that does not touch a row's tree arc costs O(1) on that row.
* **Closest landmarks** are folded again only for nodes whose distance to
  some landmark changed (ascending landmark order, strict ``<``, matching
  the fold of :func:`repro.core.substrate_build.build_substrate_tables`).
* **Vicinities** are recomputed only for *candidate* nodes -- those whose
  stored row has an event arc among the relaxations that produced it (a
  tree arc when the arc worsens; an offer that beats a member or the row's
  boundary when it improves), read only where the vicinity radius reaches
  the event's endpoints.  Every non-candidate's vicinity is provably
  bit-identical before and after, and every candidate's row changes (but
  for a weight change absorbed by rounding).  The rows sit at a fixed
  stride ``min(k, n)`` with a length column
  (:meth:`~repro.core.tables.NodeSearchTables.strided`; members / dists /
  parents in settle order, the kernel's own row layout), so a row is
  rewritten where it lies; the engine also maintains the radius array.
  Good news repairs, bad news searches: after an improving event the full
  candidate rows are rebuilt from the stored ones without a search
  (:func:`~repro.dynamics.passes.repair_vicinities`); the rows of a
  worsening event and the short rows go down in one batched kernel call.
* **Addresses** are stored nowhere in the tables, which have the same
  shape as every scheme's: an address is ``closest[v]`` and that
  landmark's SPT path, so it is current as soon as those rows are, and its
  labels and bits are derived on request from the live adjacency
  (:func:`repro.addressing.labels.address_bits`).  The engine keeps no
  copy of them: the closest refold lists the addresses an event changed --
  nodes whose closest landmark changed, and new-tree descendants of a
  parent change inside their closest landmark's row -- and the bill is
  their count.

The topology is the engine's own :class:`~repro.graphs.csr.CSRGraph`, kept
as nothing else: an event splices its whole edge delta into it in place
(:meth:`~repro.graphs.csr.CSRGraph.splice`), and ``engine.topology`` is a
frozen topology over a copy of its rows, made on demand.  An event is
therefore that splice and a fixed sequence of calls below the FFI over the
graph -- row repair (:mod:`repro.graphs.incremental`), endpoint searches and
the k-nearest search (:mod:`repro.graphs.csr`), closest refold, candidate
filter, row repair and vicinity commit-and-bill
(:mod:`repro.dynamics.passes`) -- with no per-node Python.  Every pass has a
pure-Python twin selected with the kernels themselves
(``REPRO_NO_CKERNELS=1``); there is no other switch.

Because convergence, the SPT repairs and the vicinity recomputes all go
through the canonical search kernels or repeat their relaxations exactly,
the state is bit-identical to a from-scratch build on the mutated topology,
and the
:class:`MaintenanceCost` charged per event equals the full before/after
state diff the replay oracle computes -- the differential tests in
``tests/test_dynamics_incremental.py`` assert both.

Unlike the schemes, the engine survives partitions: a node with no reachable
landmark has ``closest == -1`` and address ``None``, a vicinity row is short
when its component is, and node leave/join events capture and restore
incident edges with stable node ids.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.landmarks import select_landmarks
from repro.core.sloppy_groups import SloppyGrouping
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import SubstrateTables
from repro.core.vicinity import vicinity_size
from repro.dynamics.maintenance import MaintenanceCost, _mean_group_size
from repro.dynamics.passes import (
    commit_vicinities,
    refold_closest,
    repair_vicinities,
    vicinity_candidates,
)
from repro.dynamics.stream import DynEvent
from repro.graphs.csr import CSRGraph
from repro.graphs.incremental import (
    RowChanges,
    repair_rows_after_decrease,
    repair_rows_after_detach,
    repair_rows_after_increase,
)
from repro.graphs.topology import Topology
from repro.naming.names import name_for_node

__all__ = ["EventReport", "ChurnEngine"]

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
        Vicinity rows recomputed, repaired or searched: the candidate
        filter's answer, read off the stored rows.
    vicinities_stored:
        Rows that came back different (members, distances or parents) and
        were stored.  Equal to ``vicinities_recomputed`` unless a weight
        change was absorbed by rounding.
    vicinities_repaired:
        The rows of ``vicinities_recomputed`` rebuilt in place, without a
        search: the full rows of an improving event.
    """

    event: DynEvent
    applied: bool
    cost: MaintenanceCost = field(default=_ZERO_COST)
    rows_repaired: int = 0
    vicinities_recomputed: int = 0
    vicinities_stored: int = 0
    vicinities_repaired: int = 0


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
        # The copy shares the slabs; its csr() is the engine's own graph
        # (never the one ``topology.csr()`` caches), and the first splice
        # copies the slabs into a store of the graph's own.
        private = topology.copy()
        k = vicinity_k if vicinity_k is not None else vicinity_size(n)
        self._adopt(
            private.csr(),
            build_substrate_tables(private, landmarks, size=k),
            k,
            [name_for_node(node) for node in range(n)],
        )

    def _adopt(
        self, graph: CSRGraph, slabs: SubstrateTables, k: int, names: list
    ) -> None:
        """Take converged tables as the state: ``graph`` -- the snapshot the
        tables converged on, no one else's -- becomes the graph every event
        splices, ``slabs`` -- converged, writable, this engine's alone --
        the state, its vicinity rows go to the fixed stride, and the event
        bookkeeping starts empty.  (The tests also adopt a converged
        routing's tables through here.)"""
        self._graph = graph
        self._topology: Topology | None = None  # materialised on demand
        n = self._num_nodes = graph.num_nodes
        self._k = k
        self._group_size = _mean_group_size(SloppyGrouping(names))
        self._dead: set[int] = set()
        # A departed node's arcs, (neighbour, weight) in neighbour order.
        self._captured: dict[int, list[tuple[int, float]]] = {}
        # Reusable rows for the per-event endpoint searches.
        self._endpoint_dist = array("d", bytes(16 * n))
        self._endpoint_parent = array("q", bytes(16 * n))

        # Node x's row starts at x * stride and holds lengths[x] members
        # (fewer than the stride only when x's component is smaller than k).
        stride = self._stride = min(k, n)
        vicinity = slabs.vicinity = slabs.vicinity.strided(stride)
        self._slabs = slabs
        self._stored = (vicinity.members, vicinity.dists, vicinity.parents)
        # An event's recomputed rows, grown to the largest event so far.
        self._fresh = (array("q"), array("d"), array("q"))
        self._tables = slabs.read_only()
        # _radius[x] is the candidate threshold R_x of the row: its
        # last-settled (farthest) distance, or inf when the vicinity is
        # component-limited.
        self._radius = (
            vicinity.dists[stride - 1 :: stride] if stride else array("d")
        )
        for node, width in enumerate(vicinity.lengths):
            if width < stride:
                self._radius[node] = _INF

    # -- read-only state accessors ------------------------------------------

    @property
    def tables(self) -> SubstrateTables:
        """The converged state: read-only views of the slabs the engine
        repairs, live after every event with no call in between (the stored
        row decides whether a node is searched again, so nothing else may
        write).  Rows read from it are valid until the next event."""
        return self._tables

    @property
    def topology(self) -> Topology:
        """The current (mutated) topology: a frozen :class:`Topology` over
        a copy of the graph's rows, made on the first read after an event."""
        if self._topology is None:
            self._topology = Topology.from_csr(self._graph)
        return self._topology

    @property
    def vicinity_k(self) -> int:
        """The vicinity size target k."""
        return self._k

    @property
    def dead_nodes(self) -> set[int]:
        """Nodes currently departed (isolated, edges captured), as a copy."""
        return set(self._dead)

    def state_signature(self):
        """Hashable snapshot of the full converged state, for differentials;
        its last part is every node's address, ``(closest landmark, path)``
        or ``None``."""
        tables = self._tables
        vicinity = tables.vicinity
        n = self._num_nodes
        dist = memoryview(tables.spt_dist)
        parent = memoryview(tables.spt_parent)
        return (
            tuple(
                (
                    landmark,
                    tuple(dist[index * n : (index + 1) * n]),
                    tuple(parent[index * n : (index + 1) * n]),
                )
                for index, landmark in enumerate(tables.landmark_ids)
            ),
            tuple(tables.closest),
            tuple(tables.closest_dist),
            tuple(
                tuple(sorted(zip(*vicinity.row(node)[:2])))
                for node in range(self._num_nodes)
            ),
            tuple(
                None
                if landmark < 0
                else (landmark, tuple(tables.spt_path(landmark, node)))
                for node, landmark in enumerate(tables.closest)
            ),
        )

    # -- internal maintenance helpers ---------------------------------------

    def _endpoint_rows(self, *nodes: int) -> list[memoryview]:
        """Distance rows rooted at an event's endpoints in the current
        graph, searched into the engine's reusable scratch rows."""
        n = self._num_nodes
        self._graph.spt_rows_batch_into(
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
            self._stored,
            self._slabs.vicinity.lengths,
            weights=weights,
        )

    def _patch_vicinities(
        self, candidates: array, sources=None
    ) -> tuple[int, int, int]:
        """Recompute the candidates' rows; store and bill (members whose
        distance entry differs) the changed ones.  After an improving event
        (``sources``: the endpoints of the edges it added or made lighter)
        the full rows are repaired without a search; every other row goes
        to the k-nearest kernel in one batched call.  Returns the bill and
        the numbers of rows stored and repaired."""
        if not candidates:
            return 0, 0, 0
        lengths, stride = self._slabs.vicinity.lengths, self._stride
        searched, repaired = candidates, array("q")
        if sources is not None:
            searched = array("q")
            for x in candidates:
                (repaired if lengths[x] == stride else searched).append(x)
        need = len(candidates) * stride
        if len(self._fresh[0]) < need:
            del self._fresh  # released before its successor is allocated
            self._fresh = tuple(array(c, bytes(8 * need)) for c in "qdq")
        offsets = array("q", [0])
        position = self._graph.k_nearest_batch_into(
            self._k, searched, *self._fresh, offsets
        )
        if repaired:
            repair_vicinities(
                self._graph, repaired, sources, self._stored, lengths,
                self._fresh, offsets, base=position,
            )
        changed, entries_changed = commit_vicinities(
            searched + repaired,
            (offsets, *self._fresh),
            self._stored,
            lengths,
            self._radius,
        )
        self._tables.forget_rows(changed)
        return entries_changed, len(changed), len(repaired)

    def _absorb(
        self, event: DynEvent, changes: RowChanges, candidates: array,
        sources=None,
    ) -> EventReport:
        """Everything after the row repair and the candidate filter: patch
        vicinities and closest landmarks, and bill the event -- its address
        changes are the nodes the closest refold lists (``sources`` as
        :meth:`_patch_vicinities` takes them)."""
        vicinity_entries, stored, repaired = self._patch_vicinities(
            candidates, sources
        )
        slabs = self._slabs
        addresses_changed = len(
            refold_closest(
                self._graph,
                slabs.landmark_ids,
                slabs.spt_dist,
                slabs.spt_parent,
                changes,
                slabs.closest,
                slabs.closest_dist,
            )
        )
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
            vicinities_repaired=repaired,
        )

    def _repair_slabs(self, repair, *event) -> RowChanges:
        """One ``repair_rows_after_*`` call over every landmark row."""
        slabs = self._slabs
        return repair(
            self._graph,
            slabs.landmark_ids,
            slabs.spt_dist,
            slabs.spt_parent,
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
        self._topology = None  # materialised again on the next read
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
        graph = self._graph
        present = graph.has_edge(u, v)
        if present == (kind == "edge-up"):
            return self._noop(event)
        # An absent edge weighs inf: every edge event is one weight change.
        old_weight = graph.edge_weight(u, v) if present else _INF
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
            graph.splice(added=[(u, v, new_weight)])
        elif new_weight == _INF:
            graph.splice(removed=[(u, v)])
        else:
            graph.splice(reweighted=[(u, v, new_weight)])
        if worsens:
            changes = self._repair_slabs(repair_rows_after_increase, u, v)
        else:
            changes = self._repair_slabs(repair_rows_after_decrease, [(u, v)])
            endpoint_rows = self._endpoint_rows(u, v)
        candidates = self._candidates(
            endpoint_rows, [(u, v)], None if worsens else [new_weight]
        )
        return self._absorb(
            event, changes, candidates, None if worsens else (u, v)
        )

    def _apply_leave(self, event: DynEvent) -> EventReport:
        node = event.u
        if not 0 <= node < self._num_nodes or node in self._dead:
            return self._noop(event)
        old_row = self._endpoint_rows(node)
        arcs = self._graph.neighbor_weights(node)
        self._graph.splice(removed=[(node, neighbor) for neighbor, _ in arcs])
        self._captured[node] = sorted(arcs)
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
        added: list[tuple[int, int, float]] = []
        for neighbor, weight in self._captured.pop(node, []):
            if neighbor in self._dead:
                # The far endpoint left after we did; it now owns the edge
                # and will restore it when it rejoins.
                self._captured[neighbor].append((node, weight))
                self._captured[neighbor].sort()
            else:
                added.append((node, neighbor, weight))
        self._graph.splice(added=added)
        # One repair per row over the whole restored edge set.
        restored = [(node, neighbor) for _, neighbor, _ in added]
        changes = self._repair_slabs(repair_rows_after_decrease, restored)
        candidates = self._candidates(
            self._endpoint_rows(node), restored, [w for *_, w in added]
        )
        return self._absorb(
            event, changes, candidates, [node] + [v for _, v in restored]
        )

    def run(self, events) -> list[EventReport]:
        """Absorb ``events`` in tick order, stream order within a tick."""
        return [self.apply(e) for e in sorted(events, key=attrgetter("tick"))]
