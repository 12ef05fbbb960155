"""Per-hop forwarding labels encoded in O(log d) bits.

"Each hop at a node of degree d is encoded in O(log d) bits following the
format of [19]" (§4.2).  Concretely, a node with degree ``d`` numbers its
incident links ``0 .. d-1``; a forwarding label is that local link index, and
it takes ``ceil(log2(d))`` bits (minimum 1).  A whole explicit route is the
concatenation of the labels along the path, and its byte size is the total
bit count rounded up -- except when *averaging* over many routes, where the
paper keeps fractional bytes (hence "10.625 bytes").

:class:`LabelCodec` performs the mapping between neighbor node ids and local
link indices for every node of a topology, plus bit-level encode/decode of a
path into a label sequence.  The decode direction is what a packet's
forwarding plane would execute: at each hop, read ``ceil(log2(d))`` bits,
follow that local link.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.graphs.topology import Topology

__all__ = ["hop_label_bits", "route_label_bits", "LabelCodec"]


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


def route_label_bits(topology: Topology, path: Sequence[int]) -> int:
    """Total label bits to encode ``path`` as an explicit route.

    The label consumed at hop ``i`` is read by node ``path[i]`` to pick the
    link toward ``path[i+1]``, so its width is determined by the degree of
    ``path[i]``.  A single-node path costs 0 bits.
    """
    total = 0
    for node in path[:-1]:
        total += hop_label_bits(topology.degree(node))
    return total


class LabelCodec:
    """Encode and decode explicit routes as per-hop local link indices.

    Parameters
    ----------
    topology:
        The topology whose link numbering defines the labels.  Each node's
        incident links are numbered by ascending neighbor id, which every
        node can compute locally and deterministically.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._link_index: list[dict[int, int]] = []
        for node in topology.nodes():
            neighbors = sorted(topology.neighbors(node))
            self._link_index.append(
                {neighbor: index for index, neighbor in enumerate(neighbors)}
            )

    def encode_path(self, path: Sequence[int]) -> list[int]:
        """Encode a node path as the list of per-hop labels.

        ``path`` must be a valid walk (consecutive nodes adjacent); the
        result has ``len(path) - 1`` labels.
        """
        labels = []
        for node, nxt in zip(path, path[1:]):
            try:
                labels.append(self._link_index[node][nxt])
            except KeyError as exc:
                raise ValueError(
                    f"path step ({node}, {nxt}) is not an edge of the topology"
                ) from exc
        return labels

    def path_bits(self, path: Sequence[int]) -> int:
        """Total bits needed to encode ``path`` (same as :func:`route_label_bits`)."""
        return route_label_bits(self._topology, path)
