"""Dynamic event streams: seeded edge/node churn over a live topology.

A :class:`DynEvent` is a point event on a tick timeline, and the only event
record: the engine, the CLI, the ``churn-cost`` scenario and the test
oracles all take lists of them.  Two generators, each a pure function of
its arguments (one :func:`make_rng` stream per (seed, tag), candidates
drawn from sorted containers only):

* :func:`generate_churn_workload` -- the seed's link-flap workload (the
  paper's fig. 8 setting): connectivity-preserving edge failures, each
  followed by its recovery;
* :func:`generate_event_stream` -- all five kinds: reweights, node
  leave/join, and partitions when allowed.

Node events name only the node: the *engine* captures a leaving node's
incident edges and restores them on join (edges whose far endpoint is itself
dead at join time migrate to that endpoint's captured set), and the
generator mirrors that bookkeeping so its feasibility checks see the same
topology the engine will.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import InputError
from repro.graphs.topology import Topology, TopologyBuilder
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = [
    "EVENT_KINDS",
    "DynEvent",
    "apply_edge_event",
    "generate_churn_workload",
    "generate_event_stream",
]

#: All event kinds, in their canonical (encoding) order.
EVENT_KINDS = (
    "edge-down",
    "edge-up",
    "edge-reweight",
    "node-leave",
    "node-join",
)

_REWEIGHT_FACTORS = (0.5, 0.75, 1.25, 1.5, 2.0)


@dataclass(frozen=True)
class DynEvent:
    """One timestamped topology event.

    Attributes
    ----------
    tick:
        Integer timestamp >= 0 (anything else, ``bool`` included, raises
        ``ValueError``); events within one tick apply in stream order.
    kind:
        One of :data:`EVENT_KINDS`.
    u, v:
        Edge endpoints for edge events (``u < v``); for node events ``u``
        is the node and ``v`` is ``-1``.
    weight:
        New/restored weight for ``edge-up`` / ``edge-reweight``; the weight
        the link had (what its recovery restores) on ``edge-down``; ``0.0``
        for node events.
    """

    tick: int
    kind: str
    u: int
    v: int = -1
    weight: float = 0.0

    def __post_init__(self) -> None:
        # A stream is applied in sorted tick order: a tick that is not a
        # plain int >= 0 would sort wrongly or not at all.
        tick = self.tick
        if isinstance(tick, bool) or not isinstance(tick, int) or tick < 0:
            raise ValueError(f"event tick must be an int >= 0, got {tick!r}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    @property
    def edge(self) -> tuple[int, int]:
        """The affected edge for edge events."""
        if self.v < 0:
            raise ValueError(f"{self.kind} event has no edge")
        return (self.u, self.v)


def apply_edge_event(topology: TopologyBuilder, event: DynEvent) -> None:
    """Apply one edge event to a builder, in place.

    For replaying a stream's prefix (a ``churn-cost`` segment's boundary,
    the replay oracle's next state); freeze the builder to read the
    result as a :class:`Topology`.  Node events carry
    captured-edge state only the engine keeps and raise ``ValueError``
    here; so does recovering a present edge, and failing or reweighting a
    missing one raises ``KeyError``.
    """
    u, v = event.edge
    if event.kind == "edge-down":
        topology.remove_edge(u, v)
    elif event.kind == "edge-reweight":
        topology.set_edge_weight(u, v, event.weight)
    elif topology.has_edge(u, v):
        raise ValueError(f"cannot recover already-present edge {event.edge}")
    else:
        topology.add_edge(u, v, event.weight)


def generate_churn_workload(
    topology: Topology,
    *,
    num_events: int,
    seed: int = 0,
    recover: bool = True,
    events_per_tick: int = 1,
) -> list[DynEvent]:
    """Generate a connectivity-preserving link-flap stream.

    Parameters
    ----------
    topology:
        The base topology (must be connected); never mutated.
    num_events:
        Number of events to generate.  With ``recover=True`` events alternate
        failure/recovery of the same link, so the topology oscillates near
        its base state; with ``recover=False`` each event fails a fresh
        (non-bridge) link.
    seed:
        RNG seed.
    recover:
        Whether each failure is followed by the corresponding recovery.
    events_per_tick:
        How many consecutive events share one tick.
    """
    require_positive("num_events", num_events)
    require_positive("events_per_tick", events_per_tick)
    if not topology.is_connected():
        raise ValueError("churn workloads require a connected base topology")
    rng = make_rng(seed, "churn")
    current = TopologyBuilder.from_topology(topology)
    events: list[DynEvent] = []
    candidate_edges = sorted((u, v) for u, v, _ in topology.edges())
    attempts = 0
    max_attempts = 50 * num_events + 100
    while len(events) < num_events and attempts < max_attempts:
        attempts += 1
        u, v = candidate_edges[rng.randrange(len(candidate_edges))]
        if not current.has_edge(u, v):
            continue
        weight = current.remove_edge(u, v)
        if not current.is_connected():  # a bridge: put it back, draw again
            current.add_edge(u, v, weight)
            continue
        events.append(
            DynEvent(len(events) // events_per_tick, "edge-down", u, v, weight)
        )
        if recover and len(events) < num_events:
            current.add_edge(u, v, weight)
            events.append(
                DynEvent(len(events) // events_per_tick, "edge-up", u, v, weight)
            )
    if len(events) < num_events:
        raise InputError(
            "could not generate the requested number of connectivity-preserving "
            f"events (got {len(events)} of {num_events}); the topology may be "
            "tree-like"
        )
    return events


def _cut_points(
    topology: TopologyBuilder, root: int
) -> tuple[set[tuple[int, int]], set[int]]:
    """Bridges (as ``u < v`` pairs) and articulation points of the live graph.

    One iterative lowlink depth-first search (Tarjan) from the live node
    ``root`` over ``topology``, in which departed nodes hold no arcs:
    removing an edge disconnects the live nodes iff it is a bridge, removing
    a node iff it is an articulation point.  The live graph must be
    connected, which ``preserve_connectivity`` streams keep as an invariant.
    """
    adjacency = topology.adjacency
    bridges: set[tuple[int, int]] = set()
    cuts: set[int] = set()
    order = {root: 0}  # discovery index
    low = {root: 0}  # lowest discovery index reachable from the subtree
    root_children = 0
    stack = [(root, -1, iter(adjacency[root]))]
    while stack:
        node, parent, arcs = stack[-1]
        for neighbor, _ in arcs:
            if neighbor == parent:
                continue  # simple graph: the one arc back up the tree
            if neighbor in order:
                low[node] = min(low[node], order[neighbor])
            else:
                order[neighbor] = low[neighbor] = len(order)
                stack.append((neighbor, node, iter(adjacency[neighbor])))
                break
        else:
            stack.pop()
            if parent < 0:
                continue
            low[parent] = min(low[parent], low[node])
            if low[node] > order[parent]:
                bridges.add((min(node, parent), max(node, parent)))
            if parent == root:
                root_children += 1
            elif low[node] >= order[parent]:
                cuts.add(parent)
    if root_children > 1:
        cuts.add(root)
    return bridges, cuts


def generate_event_stream(
    topology: Topology,
    *,
    num_events: int,
    seed: int = 0,
    kinds: Sequence[str] = EVENT_KINDS,
    events_per_tick: int = 1,
    preserve_connectivity: bool = True,
) -> list[DynEvent]:
    """Generate a reproducible stream of ``num_events`` dynamic events.

    Parameters
    ----------
    topology:
        Connected base topology; never mutated.
    num_events:
        Stream length.
    seed:
        Deterministic RNG seed (stream = pure function of all arguments).
    kinds:
        Allowed event kinds (subset of :data:`EVENT_KINDS`).  Edge-only
        subsets produce streams on which the graph stays fully connected,
        which is what the converged-state differential tests need.
    events_per_tick:
        How many consecutive events share one tick (``> 1`` exercises
        same-tick events, which apply in stream order).
    preserve_connectivity:
        When true (default), every event keeps the *live* portion of the
        graph connected: failures avoid bridges/articulation points and
        joins require a live neighbor.  ``False`` permits partitions
        (including streams that isolate every landmark).
    """
    require_positive("num_events", num_events)
    require_positive("events_per_tick", events_per_tick)
    for kind in kinds:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
    if not topology.is_connected():
        raise ValueError("event streams require a connected base topology")
    rng = make_rng(seed, "dynamics-stream")
    current = TopologyBuilder.from_topology(topology)
    down_edges: dict[tuple[int, int], float] = {}
    captured: dict[int, list[tuple[int, int, float]]] = {}
    dead: set[int] = set()
    events: list[DynEvent] = []
    attempts = 0
    max_attempts = 80 * num_events + 200

    def live_edges() -> list[tuple[int, int]]:
        return sorted(
            (u, v)
            for u, v, _ in current.edges()
            if u not in dead and v not in dead
        )

    def pick(candidates: list) -> object | None:
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]

    while len(events) < num_events and attempts < max_attempts:
        attempts += 1
        kind = kinds[rng.randrange(len(kinds))]
        tick = len(events) // events_per_tick
        if kind == "edge-down":
            candidates = live_edges()
            if candidates and preserve_connectivity:
                bridges, _ = _cut_points(current, candidates[0][0])
                candidates = [e for e in candidates if e not in bridges]
            edge = pick(candidates)
            if edge is None:
                continue
            u, v = edge
            weight = current.remove_edge(u, v)
            down_edges[(u, v)] = weight
            events.append(
                DynEvent(tick=tick, kind="edge-down", u=u, v=v, weight=weight)
            )
        elif kind == "edge-up":
            candidates = sorted(
                edge
                for edge in down_edges
                if edge[0] not in dead and edge[1] not in dead
            )
            edge = pick(candidates)
            if edge is None:
                continue
            u, v = edge
            weight = down_edges.pop((u, v))
            current.add_edge(u, v, weight)
            events.append(
                DynEvent(tick=tick, kind="edge-up", u=u, v=v, weight=weight)
            )
        elif kind == "edge-reweight":
            edge = pick(live_edges())
            if edge is None:
                continue
            u, v = edge
            factor = _REWEIGHT_FACTORS[rng.randrange(len(_REWEIGHT_FACTORS))]
            new_weight = current.edge_weight(u, v) * factor
            current.set_edge_weight(u, v, new_weight)
            events.append(
                DynEvent(
                    tick=tick, kind="edge-reweight", u=u, v=v, weight=new_weight
                )
            )
        elif kind == "node-leave":
            live = [
                node for node in range(current.num_nodes) if node not in dead
            ]
            candidates = live if len(live) > 2 else []
            if candidates and preserve_connectivity:
                _, cuts = _cut_points(current, live[0])
                candidates = [node for node in live if node not in cuts]
            node = pick(candidates)
            if node is None:
                continue
            incident = sorted(
                (node, neighbor, weight)
                for neighbor, weight in current.adjacency[node]
            )
            for _, neighbor, _ in incident:
                current.remove_edge(node, neighbor)
            captured[node] = incident
            dead.add(node)
            events.append(DynEvent(tick=tick, kind="node-leave", u=node))
        else:  # node-join
            candidates = sorted(
                node
                for node in dead
                if not preserve_connectivity
                or any(
                    neighbor not in dead
                    for _, neighbor, _ in captured.get(node, ())
                )
            )
            node = pick(candidates)
            if node is None:
                continue
            dead.discard(node)
            for _, neighbor, weight in captured.pop(node, []):
                if neighbor in dead:
                    captured.setdefault(neighbor, []).append(
                        (neighbor, node, weight)
                    )
                    captured[neighbor].sort()
                else:
                    current.add_edge(node, neighbor, weight)
            events.append(DynEvent(tick=tick, kind="node-join", u=node))
    if len(events) < num_events:
        raise InputError(
            "could not generate the requested number of events "
            f"(got {len(events)} of {num_events}) for kinds {tuple(kinds)!r}"
        )
    return events
