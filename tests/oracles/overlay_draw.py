"""The dict-ring overlay: the finger draw's byte-identity oracle.

Before :class:`~repro.core.overlay.DisseminationOverlay` turned down a
draw that lands between a node's ring neighbours without a lookup, it kept
its ring as per-node successor / predecessor / position dicts and resolved
every draw with the five-candidate ``_resolve_hash`` scan, only then
rejecting a ring neighbour.  That path lives here, unchanged in what it
computes, so ``tests/test_core_overlay_dissemination.py`` can hold the
overlay to it node for node: same ring, same fingers, same neighbour sets.
"""

from __future__ import annotations

import bisect
import math

from repro.core.sloppy_groups import SloppyGrouping
from repro.naming.hashspace import HASH_BITS, HASH_SPACE
from repro.utils.randomness import make_rng

__all__ = ["DictRingOverlay"]


class DictRingOverlay:
    """Ring plus harmonic fingers, every draw resolved by a ring search."""

    def __init__(
        self, grouping: SloppyGrouping, *, num_fingers: int = 1, seed: int = 0
    ) -> None:
        self._grouping = grouping
        self._num_fingers = num_fingers
        self._seed = seed
        n = grouping.num_nodes

        self._ring_order = sorted(
            range(n), key=lambda node: (grouping.hash_of(node), node)
        )
        self._sorted_hashes = [grouping.hash_of(node) for node in self._ring_order]

        self._successor: dict[int, int] = {}
        self._predecessor: dict[int, int] = {}
        for index, node in enumerate(self._ring_order):
            self._successor[node] = self._ring_order[(index + 1) % n]
            self._predecessor[node] = self._ring_order[(index - 1) % n]

        self._outgoing_fingers: dict[int, list[int]] = {
            node: self._choose_fingers(node) for node in range(n)
        }
        self._neighbors: dict[int, set[int]] = {node: set() for node in range(n)}
        for node in range(n):
            if n > 1:
                self._neighbors[node].add(self._successor[node])
                self._neighbors[node].add(self._predecessor[node])
            for finger in self._outgoing_fingers[node]:
                self._neighbors[node].add(finger)
                self._neighbors[finger].add(node)
        for node in range(n):
            self._neighbors[node].discard(node)

    def _group_region(self, node: int) -> tuple[int, int]:
        k = self._grouping.prefix_bits_of(node)
        if k <= 0:
            return 0, HASH_SPACE
        region_size = 1 << (HASH_BITS - k)
        prefix = self._grouping.hash_of(node) >> (HASH_BITS - k)
        return prefix * region_size, region_size

    def _choose_fingers(self, node: int) -> list[int]:
        if self._num_fingers == 0 or self._grouping.num_nodes <= 3:
            return []
        rng = make_rng(self._seed, f"fingers/{node}")
        region_start, region_size = self._group_region(node)
        own_hash = self._grouping.hash_of(node)
        own_offset = (own_hash - region_start) % HASH_SPACE
        fingers: list[int] = []
        attempts = 0
        max_attempts = self._num_fingers * 20
        while len(fingers) < self._num_fingers and attempts < max_attempts:
            attempts += 1
            distance = math.exp(rng.random() * math.log(max(region_size, 2)))
            direction = 1 if rng.random() < 0.5 else -1
            offset = (own_offset + direction * int(distance)) % region_size
            target_value = (region_start + offset) % HASH_SPACE
            finger = self._resolve_hash(target_value, exclude=node)
            if finger is None:
                continue
            if finger not in fingers and finger not in (
                self._successor.get(node),
                self._predecessor.get(node),
            ):
                fingers.append(finger)
        return fingers

    def _resolve_hash(self, value: int, *, exclude: int) -> int | None:
        order = self._ring_order
        n = len(order)
        if n == 0 or (n == 1 and order[0] == exclude):
            return None
        hashes = self._sorted_hashes
        index = bisect.bisect_left(hashes, value)
        best: int | None = None
        best_distance = HASH_SPACE + 1
        for offset in range(-2, 3):
            position = (index + offset) % n
            node = order[position]
            if node == exclude:
                continue
            forward = (value - hashes[position]) % HASH_SPACE
            backward = HASH_SPACE - forward
            dist = forward if forward < backward else backward
            if dist < best_distance or (dist == best_distance and (best is None or node < best)):
                best = node
                best_distance = dist
        return best

    def successor(self, node: int) -> int:
        return self._successor[node]

    def predecessor(self, node: int) -> int:
        return self._predecessor[node]

    def outgoing_fingers(self, node: int) -> list[int]:
        return list(self._outgoing_fingers[node])

    def neighbors(self, node: int) -> set[int]:
        return set(self._neighbors[node])

    def ring_nodes(self) -> list[int]:
        return list(self._ring_order)
