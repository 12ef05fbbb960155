"""Decoding an explicit route: the inverse ``route_labels`` is held to.

The program only encodes routes (an address is a landmark plus the labels
of its path, §4.3).  A node numbers its incident links by ascending
neighbor id, so a label sequence decodes by walking those numberings from
the source; tests decode what ``route_labels`` encoded and compare paths.
:func:`route_bits` sizes a route hop by hop, apart from the program's walk
up the parent slab, and :func:`explicit_route` builds the route object of
any path.
"""

from __future__ import annotations

from typing import Sequence

from repro.addressing.explicit_route import ExplicitRoute
from repro.addressing.labels import hop_label_bits, route_labels
from repro.graphs.topology import Topology

__all__ = ["decode_path", "explicit_route", "route_bits"]


def route_bits(topology: Topology, path: Sequence[int]) -> int:
    """Label bits of ``path`` as an explicit route, hop by hop: the label a
    hop consumes is read by the node it leaves, so it costs that node's
    :func:`hop_label_bits`.  A single-node path costs 0 bits."""
    return sum(hop_label_bits(topology.degree(node)) for node in path[:-1])


def explicit_route(topology: Topology, path: Sequence[int]) -> ExplicitRoute:
    """``path`` as an explicit route: its labels and their bits."""
    return ExplicitRoute(
        path=tuple(path),
        labels=tuple(route_labels(topology, path)),
        bits=route_bits(topology, path),
    )


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
