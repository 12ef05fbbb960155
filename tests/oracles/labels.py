"""Decoding an explicit route: the inverse ``LabelCodec.encode_path`` is held to.

The program only encodes routes (an address is a landmark plus the labels
of its path, §4.3).  A node numbers its incident links by ascending
neighbor id, so a label sequence decodes by walking those numberings from
the source; tests decode what the codec encoded and compare paths.
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.topology import Topology

__all__ = ["decode_path"]


def decode_path(
    topology: Topology, source: int, labels: Sequence[int]
) -> list[int]:
    """Decode a label sequence starting at ``source`` back into a node path."""
    path = [source]
    node = source
    for label in labels:
        neighbors = sorted(topology.neighbors(node))
        if not 0 <= label < len(neighbors):
            raise ValueError(
                f"label {label} out of range at node {node} "
                f"(degree {len(neighbors)})"
            )
        node = neighbors[label]
        path.append(node)
    return path
