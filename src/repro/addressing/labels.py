"""Per-hop forwarding labels encoded in O(log d) bits.

"Each hop at a node of degree d is encoded in O(log d) bits following the
format of [19]" (§4.2).  Concretely, a node with degree ``d`` numbers its
incident links ``0 .. d-1`` by ascending neighbor id, which every node can
compute locally and deterministically; a forwarding label is that local link
index, and it takes ``ceil(log2(d))`` bits (minimum 1).  A whole explicit
route is the concatenation of the labels along the path, and its byte size
is the total bit count rounded up -- except when *averaging* over many
routes, where the paper keeps fractional bytes (hence "10.625 bytes").

No label is stored: an address's path is a walk up its landmark's row of the
SPT parent slab, :func:`route_labels` numbers its hops on request, and
:func:`address_bits` sizes every node's address in one pass over the slabs.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

from repro.graphs.topology import Topology

__all__ = ["address_bits", "hop_label_bits", "route_labels"]


def hop_label_bits(degree: int) -> int:
    """Bits needed for one forwarding label at a node of the given degree.

    A degree-0 or degree-1 node still consumes one bit (there must be a label
    per hop so the route has positive length on the wire).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree <= 1:
        return 1
    return max(1, math.ceil(math.log2(degree)))


def route_labels(topology: Topology, path: Sequence[int]) -> list[int]:
    """The per-hop labels of ``path``: at each hop, the rank of the next
    node among the current node's neighbors in ascending id order.

    ``path`` must be a walk (consecutive nodes adjacent); the result has
    ``len(path) - 1`` labels.
    """
    labels = []
    for node, nxt in zip(path, path[1:]):
        neighbors = sorted(topology.neighbors(node))
        try:
            labels.append(neighbors.index(nxt))
        except ValueError:
            raise ValueError(
                f"path step ({node}, {nxt}) is not an edge of the topology"
            ) from None
    return labels


def address_bits(topology: Topology, tables) -> array:
    """Every node's address size in label bits, from converged ``tables``.

    Node ``v``'s address route is ``closest[v]``'s SPT path down to ``v``
    (:meth:`~repro.core.tables.SubstrateTables.spt_path`).  The label
    consumed at each hop is read by the node the hop leaves, so its width
    is :func:`hop_label_bits` of that node's degree; a route's size is the
    sum over its hops (0 for a landmark's own address), taken here by one
    walk up the landmark's row of the parent slab per node.  Raises
    ``ValueError`` for a node that reaches no landmark.
    """
    n = tables.num_nodes
    degrees = topology.degree_sequence()
    width = {degree: hop_label_bits(degree) for degree in set(degrees)}
    hop = [width[degree] for degree in degrees]
    parents = tables.spt_parent
    closest = tables.closest
    base_of = {
        landmark: index * n for index, landmark in enumerate(tables.landmark_ids)
    }
    bits = array("q", bytes(8 * n))
    for node in range(n):
        landmark = closest[node]
        if landmark < 0:
            raise ValueError(
                f"node {node} reaches no landmark: the topology is not connected"
            )
        base = base_of[landmark]
        current = node
        total = steps = 0
        while current != landmark:
            current = parents[base + current]
            if current < 0 or steps > n:
                raise ValueError(f"node {node} not reachable from root {landmark}")
            total += hop[current]
            steps += 1
        bits[node] = total
    return bits
