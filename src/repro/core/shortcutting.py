"""Shortcutting heuristics (§4.2, evaluated in Fig. 6).

A compact-routing relay route s ; ℓt ; t can be far from shortest even when
the stretch bound holds; the paper layers cheap heuristics on top:

* **To-Destination** (from S4): "if at any point the packet passes through a
  node which knows a direct path to t, then the direct path is followed."
* **Shorter{ReversePath, ForwardPath}**: "we try both the forward and reverse
  routes s→t and t→s, and use the shorter of these."
* **No Path Knowledge**: To-Destination combined with forward/reverse
  selection -- the default used for all headline results.
* **Up-Down Stream**: "every node along the route [inspects] the route and
  see[s] whether it knows a shorter path to any of the nodes along the route
  (via its vicinity routes)" -- requires carrying the node identifiers of the
  whole route on the first packet.
* **Path Knowledge**: Up-Down-Stream combined with forward/reverse selection.

The heuristics operate purely on information nodes legitimately hold
(vicinity routes), so they never violate the protocol's state bound; they can
only shorten routes, so the stretch guarantees are preserved.

The modes are applied by the ND-Disco router
(:meth:`repro.core.nddisco._NDDiscoRouter.shortcut`), which reads the
vicinity slabs directly; this module holds the mode table, the truncation
every mode applies, and the Up-Down-Stream splice.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence

from repro.core.tables import NodeSearchTables

__all__ = ["ShortcutMode", "splice_up_down_stream", "truncate_at_destination"]


class ShortcutMode(enum.Enum):
    """Which shortcutting heuristic to apply to relay routes."""

    NONE = "none"
    TO_DESTINATION = "to-destination"
    SHORTER_REVERSE_FORWARD = "shorter-reverse-forward"
    NO_PATH_KNOWLEDGE = "no-path-knowledge"
    UP_DOWN_STREAM = "up-down-stream"
    PATH_KNOWLEDGE = "path-knowledge"

    @property
    def uses_reverse_route(self) -> bool:
        """True if the mode compares the forward route against the reverse one."""
        return self in (
            ShortcutMode.SHORTER_REVERSE_FORWARD,
            ShortcutMode.NO_PATH_KNOWLEDGE,
            ShortcutMode.PATH_KNOWLEDGE,
        )

    @property
    def per_hop_heuristic(self) -> str:
        """The per-hop transformation: 'none', 'to-destination' or 'up-down-stream'."""
        if self in (ShortcutMode.TO_DESTINATION, ShortcutMode.NO_PATH_KNOWLEDGE):
            return "to-destination"
        if self in (ShortcutMode.UP_DOWN_STREAM, ShortcutMode.PATH_KNOWLEDGE):
            return "up-down-stream"
        return "none"


def truncate_at_destination(route: Sequence[int]) -> list[int]:
    """Cut the route at the first time it touches its own destination.

    A relay route s ; ℓt ; t can pass through t on the way to ℓt; any real
    forwarding plane delivers the packet at that point, so every heuristic
    (including "no shortcutting") applies this truncation.
    """
    if not route:
        return []
    destination = route[-1]
    first_index = route.index(destination)
    return list(route[: first_index + 1])


def splice_up_down_stream(
    route: Sequence[int],
    vicinity: NodeSearchTables,
    length: Callable[[Sequence[int]], float],
    *,
    max_passes: int = 8,
) -> list[int]:
    """Let every node splice in a shorter vicinity path to any downstream node.

    Scans the route front to back; at each position it looks for the
    *farthest* downstream node it holds a strictly shorter vicinity route to
    (row distance against ``length`` of the route segment) and splices that
    route in.  Repeats until a pass makes no change (the total length
    strictly decreases with every splice, so this terminates;
    ``max_passes`` is a safety valve only).
    """
    current = list(route)
    dists = vicinity.dists
    for _ in range(max_passes):
        changed = False
        index = 0
        while index < len(current) - 1:
            node = current[index]
            members = vicinity._index(node)
            # Prefer the farthest downstream improvement.
            for target_index in range(len(current) - 1, index, -1):
                target = current[target_index]
                position = members.get(target)
                if position is None:
                    continue
                if dists[position] < length(current[index : target_index + 1]):
                    current = (
                        current[:index]
                        + vicinity.path_from_owner(node, target)
                        + current[target_index + 1 :]
                    )
                    changed = True
                    break
            index += 1
        if not changed:
            break
    return current
