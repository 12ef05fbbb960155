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

The finger draws of a build are one call, :func:`draw_fingers`.  Each node
draws from its own ``random.Random(derive_seed(seed, f"fingers/{node}"))``
stream.  On the C tier the call is ``overlay_fingers`` in ``_kernels.c``,
which replays CPython's MT19937 (``init_by_array``, ``genrand_res53``) and
the twin's exact integer arithmetic, so it draws the same fingers as the
pure-Python twin below it (``REPRO_NO_CKERNELS=1``, or no C compiler).
"""

from __future__ import annotations

import bisect
import math
import random
from array import array

from repro.core.sloppy_groups import SloppyGrouping
from repro.graphs._ckernels import buffer_arg, check_status, load_kernels
from repro.naming.hashspace import HASH_SPACE
from repro.utils.randomness import derive_seed
from repro.utils.validation import require_positive

__all__ = ["DisseminationOverlay", "draw_fingers"]


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
        n = grouping.num_nodes

        # The ring as flat arrays: nodes sorted by hash value (ties by node
        # id), their hashes, and each node's index into both.
        self._ring_order = array(
            "q", sorted(range(n), key=lambda node: (grouping.hash_of(node), node))
        )
        self._sorted_hashes = array(
            "Q", [grouping.hash_of(node) for node in self._ring_order]
        )
        self._position = array("q", bytes(8 * n))
        for index, node in enumerate(self._ring_order):
            self._position[node] = index

        slab = array("q", bytes(8 * n * num_fingers))
        draw_fingers(
            self._ring_order,
            self._sorted_hashes,
            self._position,
            array("q", [grouping.prefix_bits_of(node) for node in range(n)]),
            array("Q", [derive_seed(seed, f"fingers/{node}") for node in range(n)]),
            num_fingers,
            slab,
        )
        rows = (slab[v * num_fingers : (v + 1) * num_fingers] for v in range(n))
        self._fingers = [[finger for finger in row if finger >= 0] for row in rows]
        self._neighbors: list[set[int]] = [set() for _ in range(n)]
        for node, row in enumerate(self._neighbors):
            if n > 1:
                row.add(self.successor(node))
                row.add(self.predecessor(node))
            for finger in self._fingers[node]:
                row.add(finger)
                self._neighbors[finger].add(node)
        for node, row in enumerate(self._neighbors):
            row.discard(node)

    # -- accessors -----------------------------------------------------------

    @property
    def grouping(self) -> SloppyGrouping:
        """The sloppy grouping the overlay is organised around."""
        return self._grouping

    def _checked(self, node: int) -> int:
        """``node`` itself; ``KeyError`` unless it is an id in ``[0, n)``."""
        if not 0 <= node < len(self._position):
            raise KeyError(node)
        return node

    def successor(self, node: int) -> int:
        """The node's ring successor (next larger hash, wrapping around)."""
        order = self._ring_order
        return order[(self._position[self._checked(node)] + 1) % len(order)]

    def predecessor(self, node: int) -> int:
        """The node's ring predecessor."""
        return self._ring_order[self._position[self._checked(node)] - 1]

    def outgoing_fingers(self, node: int) -> list[int]:
        """The node's outgoing long-distance links."""
        return list(self._fingers[self._checked(node)])

    def neighbors(self, node: int) -> set[int]:
        """All overlay neighbors (ring links plus outgoing and incoming fingers)."""
        return set(self._neighbors[self._checked(node)])

    def degree(self, node: int) -> int:
        """Number of overlay connections at ``node``."""
        return len(self._neighbors[self._checked(node)])

    def average_degree(self) -> float:
        """Mean overlay degree (≈ 4 with 1 finger, ≈ 8 with 3, per §4.4)."""
        return sum(map(len, self._neighbors)) / len(self._neighbors)

    def group_neighbors(self, node: int) -> set[int]:
        """Overlay neighbors that ``node`` believes are in its own group.

        Dissemination only uses these ("nodes only propagate advertisements
        to and from nodes they believe belong to their own group").
        """
        return {
            neighbor
            for neighbor in self._neighbors[self._checked(node)]
            if self._grouping.believes_same_group(node, neighbor)
        }

    def ring_nodes(self) -> list[int]:
        """Nodes in ring (hash) order."""
        return list(self._ring_order)


# -- finger selection ---------------------------------------------------------


def draw_fingers(
    order, hashes, position, prefix_bits, seeds, num_fingers: int, fingers
) -> None:
    """Draw every node's outgoing fingers into ``fingers``.

    ``order`` / ``hashes`` / ``position`` are the ring over ``n`` nodes
    (nodes sorted by ``(hash, id)``, their hashes as ``'Q'`` items, each
    node's slot), ``prefix_bits[v]`` is node v's group prefix length k in
    ``[0, 64]`` and ``seeds[v]`` the ``random.Random`` seed of its draws;
    node v's fingers go to ``fingers[v * num_fingers ...]``, padded with
    -1.  Both tiers raise before the first write: ``TypeError`` /
    ``ValueError`` for a buffer of the wrong type or length, ``ValueError``
    for an ``order`` or ``position`` entry outside ``[0, n)`` or a prefix
    length outside ``[0, 64]``.  The C tier (``overlay_fingers`` in
    ``_kernels.c``) replays CPython's MT19937 and this module's arithmetic,
    so both tiers write the same slab.
    """
    n = len(order)
    args = [
        buffer_arg(order, "q", n, "order"),
        buffer_arg(hashes, "Q", n, "hashes"),
        buffer_arg(position, "q", n, "position"),
        buffer_arg(prefix_bits, "q", n, "prefix_bits"),
        buffer_arg(seeds, "Q", n, "seeds"),
        buffer_arg(fingers, "q", n * num_fingers, "fingers"),
    ]
    clib = load_kernels()
    if clib is not None:
        check_status(
            clib.overlay_fingers(n, num_fingers, *args), "overlay_fingers"
        )
        return
    if not all(0 <= slot < n for slot in (*order, *position)) or not all(
        0 <= bits <= 64 for bits in prefix_bits
    ):
        raise ValueError("overlay_fingers was given an id or offset out of range")
    for node in range(n):
        row = (
            _choose_fingers(
                node, order, hashes, position, prefix_bits[node],
                random.Random(seeds[node]), num_fingers,
            )
            if n > 3
            else []
        )
        row += [-1] * (num_fingers - len(row))
        fingers[node * num_fingers : (node + 1) * num_fingers] = array("q", row)


def _choose_fingers(
    node: int, order, hashes, position, prefix_bits: int,
    rng: random.Random, num_fingers: int,
) -> list[int]:
    """Draw one node's outgoing fingers with Symphony's harmonic rule.

    Each attempt draws a log-uniform distance within the hash-space
    region of the node's group, in either direction around the node's
    own position, and resolves the point to the closest node; a ring
    neighbour is rejected.  A point that stays inside the region and
    strictly short of a neighbour's hash (a distance below ``up`` or
    ``down``) can only resolve to the successor or the predecessor, so
    the draw is turned down without a lookup.  That needs the node and
    both neighbours to hold hashes no other node shares: a tie would let
    the resolver's id tie-break pick a third node, and both limits are 0.
    The ring holds at least four nodes.
    """
    n = len(order)
    index = position[node]
    own_hash = hashes[index]
    after, before = hashes[(index + 1) % n], hashes[index - 1]
    region_size = HASH_SPACE >> prefix_bits
    own_offset = own_hash % region_size
    region_start = own_hash - own_offset
    tied = after in (own_hash, hashes[(index + 2) % n])
    if tied or before in (own_hash, hashes[index - 2]):
        up = down = 0
    else:
        up = min((after - own_hash) % HASH_SPACE, region_size - own_offset)
        down = min((own_hash - before) % HASH_SPACE, own_offset + 1)
    ring_links = (order[(index + 1) % n], order[index - 1])
    log_size = math.log(max(region_size, 2))
    fingers: list[int] = []
    attempts = 0
    max_attempts = num_fingers * 20
    while len(fingers) < num_fingers and attempts < max_attempts:
        attempts += 1
        # A float against an int compares exactly: ``distance < up``
        # is ``int(distance) < up``.
        distance = math.exp(rng.random() * log_size)
        if rng.random() < 0.5:
            if distance < up:
                continue
            offset = (own_offset + int(distance)) % region_size
        else:
            if distance < down:
                continue
            offset = (own_offset - int(distance)) % region_size
        finger = _resolve_hash(order, hashes, region_start + offset, node)
        if finger not in fingers and finger not in ring_links:
            fingers.append(finger)
    return fingers


def _resolve_hash(order, hashes, value: int, exclude: int) -> int:
    """Return the node whose hash is circularly closest to ``value``.

    This models the lookup "querying the landmark-based resolution
    database for the node with the closest hash-value to a" (§4.4).
    Implemented with a binary search over the ring order, checking a few
    candidates on either side of the insertion point (enough to skip the
    excluded node and handle wrap-around), ties to the smaller id.
    ``value`` and the ring's hashes are hash-space positions, and the ring
    holds at least four nodes, so the circular distance is computed inline,
    without range checks.
    """
    n = len(order)
    index = bisect.bisect_left(hashes, value)
    best = -1
    best_distance = HASH_SPACE + 1
    for offset in range(-2, 3):
        position = (index + offset) % n
        node = order[position]
        if node == exclude:
            continue
        forward = (value - hashes[position]) % HASH_SPACE
        backward = HASH_SPACE - forward
        dist = forward if forward < backward else backward
        if dist < best_distance or (dist == best_distance and node < best):
            best = node
            best_distance = dist
    return best
