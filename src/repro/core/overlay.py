"""The Symphony-style address-dissemination overlay (§4.4).

"Each node v maintains a set of overlay neighbors N(v).  Similar to a DHT
structure, N(v) includes v's successor and predecessor in the circular
ordering of nodes according to their hash values h(·).  N(v) also includes a
small number of long-distance links called 'fingers'.  To select a finger, a
node v picks a random hash-value a from the part of hash-space that falls
within G(v).  Following [32] (Symphony), a is picked such that the likelihood
of picking a value is inversely proportional to its distance in hash-space
from h(v)."

:class:`DisseminationOverlay` builds the converged overlay: the global ring
(successor/predecessor links) plus each node's outgoing fingers (1 or 3 in
the paper's experiments), resolved -- as the protocol does via the landmark
resolution database -- to the live node whose hash is closest to the drawn
value.  The overlay is undirected for dissemination purposes: a TCP
connection carries announcements both ways, so a node's effective neighbor
set contains both its outgoing and incoming links ("an average of |N(v)| ≈ 4
or 8 overlay connections ... counting both outgoing and incoming
connections").
"""

from __future__ import annotations

import bisect
import math

from repro.core.sloppy_groups import SloppyGrouping
from repro.naming.hashspace import HASH_BITS, HASH_SPACE
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = ["DisseminationOverlay"]


class DisseminationOverlay:
    """The ring-plus-fingers overlay used to disseminate addresses.

    Parameters
    ----------
    grouping:
        The sloppy grouping (provides names, hashes, and per-node group
        definitions).
    num_fingers:
        Outgoing long-distance links per node (the paper evaluates 1 and 3).
    seed:
        RNG seed for the harmonic finger draws.
    """

    def __init__(
        self,
        grouping: SloppyGrouping,
        *,
        num_fingers: int = 1,
        seed: int = 0,
    ) -> None:
        require_positive("num_fingers", num_fingers, allow_zero=True)
        self._grouping = grouping
        self._num_fingers = num_fingers
        self._seed = seed
        n = grouping.num_nodes

        # Ring order: nodes sorted by hash value (ties by node id).
        self._ring_order = sorted(
            range(n), key=lambda node: (grouping.hash_of(node), node)
        )
        self._ring_position = {
            node: index for index, node in enumerate(self._ring_order)
        }
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

    # -- finger selection ----------------------------------------------------

    def _group_region(self, node: int) -> tuple[int, int]:
        """Return (start, size) of the hash-space region of node's group."""
        k = self._grouping.prefix_bits_of(node)
        if k <= 0:
            return 0, HASH_SPACE
        region_size = 1 << (HASH_BITS - k)
        prefix = self._grouping.hash_of(node) >> (HASH_BITS - k)
        return prefix * region_size, region_size

    def _choose_fingers(self, node: int) -> list[int]:
        """Draw the node's outgoing fingers with Symphony's harmonic rule."""
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
            # Log-uniform (harmonic) distance within the group's region, in
            # either direction around the node's own position.
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
        """Return the node whose hash is circularly closest to ``value``.

        This models the lookup "querying the landmark-based resolution
        database for the node with the closest hash-value to a" (§4.4).
        Implemented with a binary search over the ring order, checking a few
        candidates on either side of the insertion point (enough to skip the
        excluded node and handle wrap-around).  ``value`` and the ring's
        hashes are hash-space positions the overlay produced itself, so the
        circular distance is computed inline, without range checks.
        """
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

    # -- accessors -----------------------------------------------------------

    @property
    def grouping(self) -> SloppyGrouping:
        """The sloppy grouping the overlay is organised around."""
        return self._grouping

    @property
    def num_fingers(self) -> int:
        """Outgoing fingers per node."""
        return self._num_fingers

    def successor(self, node: int) -> int:
        """The node's ring successor (next larger hash, wrapping around)."""
        return self._successor[node]

    def predecessor(self, node: int) -> int:
        """The node's ring predecessor."""
        return self._predecessor[node]

    def outgoing_fingers(self, node: int) -> list[int]:
        """The node's outgoing long-distance links."""
        return list(self._outgoing_fingers[node])

    def neighbors(self, node: int) -> set[int]:
        """All overlay neighbors (ring links plus outgoing and incoming fingers)."""
        return set(self._neighbors[node])

    def degree(self, node: int) -> int:
        """Number of overlay connections at ``node``."""
        return len(self._neighbors[node])

    def average_degree(self) -> float:
        """Mean overlay degree (≈ 4 with 1 finger, ≈ 8 with 3, per §4.4)."""
        n = self._grouping.num_nodes
        if n == 0:
            return 0.0
        return sum(len(self._neighbors[v]) for v in range(n)) / n

    def group_neighbors(self, node: int) -> set[int]:
        """Overlay neighbors that ``node`` believes are in its own group.

        Dissemination only uses these ("nodes only propagate advertisements
        to and from nodes they believe belong to their own group").
        """
        return {
            neighbor
            for neighbor in self._neighbors[node]
            if self._grouping.believes_same_group(node, neighbor)
        }

    def ring_nodes(self) -> list[int]:
        """Nodes in ring (hash) order."""
        return list(self._ring_order)
