"""The shortcutting heuristics over dict vicinities: the oracle of the router.

Before the ND-Disco router applied the modes itself, reading the vicinity
slabs, ``repro.core.shortcutting`` held this dict-shaped form: a per-hop
dispatcher over ``(distances, predecessors)`` vicinity dicts and
``apply_shortcuts`` on top.  It lives here so the tests can hold
``_NDDiscoRouter.shortcut`` to it, route for route, on vicinities from
:func:`oracles.reference_paths.dijkstra_k_nearest`.
"""

from __future__ import annotations

from typing import Sequence

from oracles.reference_paths import dijkstra_k_nearest, extract_path, path_length
from repro.core.shortcutting import ShortcutMode, truncate_at_destination
from repro.graphs.topology import Topology

__all__ = ["apply_shortcuts", "reference_vicinities"]

Vicinity = tuple[dict[int, float], dict[int, int]]


def reference_vicinities(topology: Topology, size: int) -> list[Vicinity]:
    """Every node's ``size``-nearest search, as the seed's dicts."""
    return [
        dijkstra_k_nearest(topology, node, size)
        for node in range(topology.num_nodes)
    ]


def _shortcut_to_destination(
    route: Sequence[int], vicinities: Sequence[Vicinity]
) -> list[int]:
    """Splice in a direct vicinity path from the first node that knows one."""
    if len(route) <= 1:
        return list(route)
    destination = route[-1]
    for index, node in enumerate(route[:-1]):
        distances, predecessors = vicinities[node]
        if destination in distances:
            return list(route[:index]) + extract_path(
                predecessors, node, destination
            )
    return list(route)


def _shortcut_up_down_stream(
    topology: Topology,
    route: Sequence[int],
    vicinities: Sequence[Vicinity],
    *,
    max_passes: int = 8,
) -> list[int]:
    """Let every node splice in a shorter vicinity path to the farthest
    downstream node it holds one to; repeat until a pass changes nothing."""
    current = list(route)
    for _ in range(max_passes):
        changed = False
        index = 0
        while index < len(current) - 1:
            node = current[index]
            distances, predecessors = vicinities[node]
            best_splice: list[int] | None = None
            best_target_index = -1
            for target_index in range(len(current) - 1, index, -1):
                target = current[target_index]
                if target not in distances:
                    continue
                segment = current[index : target_index + 1]
                if distances[target] < path_length(topology, segment):
                    best_splice = extract_path(predecessors, node, target)
                    best_target_index = target_index
                    break
            if best_splice is not None:
                current = (
                    current[:index] + best_splice + current[best_target_index + 1 :]
                )
                changed = True
            index += 1
        if not changed:
            break
    return current


def _apply_per_hop(
    topology: Topology,
    route: Sequence[int],
    vicinities: Sequence[Vicinity],
    heuristic: str,
) -> list[int]:
    truncated = truncate_at_destination(route)
    if heuristic == "none":
        return truncated
    if heuristic == "to-destination":
        return _shortcut_to_destination(truncated, vicinities)
    if heuristic == "up-down-stream":
        return _shortcut_up_down_stream(topology, truncated, vicinities)
    raise ValueError(f"unknown per-hop heuristic {heuristic!r}")


def apply_shortcuts(
    topology: Topology,
    vicinities: Sequence[Vicinity],
    forward_route: Sequence[int],
    mode: ShortcutMode,
    *,
    reverse_route: Sequence[int] | None = None,
) -> list[int]:
    """Apply ``mode`` to the relay route s .. t and return the path.

    The modes that compare directions need ``reverse_route`` (t .. s): it
    gets the same per-hop heuristic, is reversed, and wins if strictly
    shorter than the forward result.
    """
    if not forward_route:
        raise ValueError("forward_route must be non-empty")
    heuristic = mode.per_hop_heuristic
    forward = _apply_per_hop(topology, forward_route, vicinities, heuristic)
    if not mode.uses_reverse_route:
        return forward
    if reverse_route is None:
        raise ValueError(f"mode {mode.value} requires a reverse_route")
    if reverse_route[0] != forward_route[-1] or reverse_route[-1] != forward_route[0]:
        raise ValueError(
            "reverse_route must run from the destination back to the source"
        )
    reverse = _apply_per_hop(topology, reverse_route, vicinities, heuristic)
    reverse_as_forward = list(reversed(reverse))
    if path_length(topology, reverse_as_forward) < path_length(topology, forward):
        return reverse_as_forward
    return forward
