"""The mutable consistent-hash ring: the placement oracle of ``VNodeRing``.

Before :class:`repro.naming.VNodeRing` placed every resolution record, the
converged database and the Fig. 8 registration count used this ring: a
sorted point list plus a point -> server dict, servers added one at a time
with the same one-step collision nudge.  It lives here unchanged in what
it computes, so ``tests/test_resolution_service.py`` can hold
``VNodeRing`` to it key for key.  Points come from
``consistent_hash.ring_point`` looked up at call time, so a test that
monkeypatches that function moves both rings.

:func:`in_clockwise_interval` is the Chord-style interval test the ring
tests state arc ownership with.
"""

from __future__ import annotations

import bisect
from typing import Hashable, Iterable

from repro.naming import consistent_hash
from repro.naming.hashspace import HASH_BITS, clockwise_distance

__all__ = ["ConsistentHashRing", "in_clockwise_interval"]


class ConsistentHashRing:
    """A consistent-hash ring mapping integer hash keys to servers.

    Parameters
    ----------
    servers:
        The initial server identifiers (landmark node ids, in Disco's use).
    virtual_nodes:
        Number of points each server is hashed to.  1 reproduces the simple
        single-hash-function construction whose most loaded server holds a
        Θ(log n) factor more than its fair share; larger values smooth the
        imbalance as discussed in §4.5.
    """

    def __init__(
        self, servers: Iterable[Hashable] = (), *, virtual_nodes: int = 1
    ) -> None:
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self._virtual_nodes = virtual_nodes
        self._points: list[int] = []
        self._point_owner: dict[int, Hashable] = {}
        self._servers: set[Hashable] = set()
        for server in servers:
            self.add_server(server)

    @property
    def servers(self) -> set[Hashable]:
        """The current set of servers (a copy)."""
        return set(self._servers)

    @property
    def virtual_nodes(self) -> int:
        """Number of ring points per server."""
        return self._virtual_nodes

    def __len__(self) -> int:
        return len(self._servers)

    def __contains__(self, server: Hashable) -> bool:
        return server in self._servers

    def add_server(self, server: Hashable) -> None:
        """Add ``server`` to the ring (no-op if already present)."""
        if server in self._servers:
            return
        self._servers.add(server)
        for replica in range(self._virtual_nodes):
            point = consistent_hash.ring_point(server, replica)
            # Extremely unlikely collision: nudge deterministically.
            while point in self._point_owner:
                point = (point + 1) % (1 << HASH_BITS)
            self._point_owner[point] = server
            bisect.insort(self._points, point)

    def remove_server(self, server: Hashable) -> None:
        """Remove ``server`` from the ring.

        Raises
        ------
        KeyError
            If the server is not on the ring.
        """
        if server not in self._servers:
            raise KeyError(server)
        self._servers.discard(server)
        dead_points = [p for p, owner in self._point_owner.items() if owner == server]
        for point in dead_points:
            del self._point_owner[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def owner(self, key: int) -> Hashable:
        """Return the server that owns hash ``key`` (first point clockwise).

        Raises
        ------
        LookupError
            If the ring has no servers.
        """
        if not self._points:
            raise LookupError("consistent hash ring has no servers")
        index = bisect.bisect_left(self._points, key % (1 << HASH_BITS))
        if index == len(self._points):
            index = 0
        return self._point_owner[self._points[index]]

    def owners(self, key: int, count: int) -> list[Hashable]:
        """Return up to ``count`` distinct successive owners clockwise of ``key``.

        Useful for replicated storage of resolution entries.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not self._points:
            raise LookupError("consistent hash ring has no servers")
        result: list[Hashable] = []
        index = bisect.bisect_left(self._points, key % (1 << HASH_BITS))
        total_points = len(self._points)
        for offset in range(total_points):
            point = self._points[(index + offset) % total_points]
            server = self._point_owner[point]
            if server not in result:
                result.append(server)
                if len(result) == count:
                    break
        return result

    def load_distribution(self, keys: Iterable[int]) -> dict[Hashable, int]:
        """Return how many of ``keys`` each server owns (servers may map to 0)."""
        counts: dict[Hashable, int] = {server: 0 for server in self._servers}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts


def in_clockwise_interval(
    value: int, start: int, end: int, *, inclusive_end: bool = True
) -> bool:
    """Return True if ``value`` lies in the clockwise interval (start, end).

    The interval excludes ``start``; ``inclusive_end`` controls the endpoint.
    An empty interval (start == end) contains nothing unless
    ``inclusive_end`` and ``value == end == start`` -- matching the usual
    Chord/Symphony successor conventions.
    """
    offset = clockwise_distance(start, value)
    gap = clockwise_distance(start, end)
    if start == end:
        return inclusive_end and value == end
    if inclusive_end:
        return 0 < offset <= gap
    return 0 < offset < gap
