"""The event-stream generators before their per-event bookkeeping.

Until the generators kept a sorted list of their candidate edges and
decided bridges with a local search, ``generate_event_stream`` re-sorted
every live edge for each ``edge-down`` / ``edge-reweight`` draw and
``generate_churn_workload`` ran a whole-graph connectivity check after each
trial removal.  Those two functions live here unchanged but for that
check, which counts the builder's components (the builder no longer has
an ``is_connected`` of its own), so ``tests/test_dynamics_streams.py`` can
hold the program's generators to them draw for draw: equal streams, equal
errors.
"""

from __future__ import annotations

from typing import Sequence

from repro.dynamics.stream import (
    _REWEIGHT_FACTORS,
    EVENT_KINDS,
    DynEvent,
    _cut_points,
)
from repro.errors import InputError
from repro.graphs.topology import Topology, TopologyBuilder
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = ["generate_churn_workload", "generate_event_stream"]


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
        if len(current.connected_components()) > 1:  # a bridge: put it back
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
