"""The component-wise substrate build: the slab builder's byte-identity oracle.

Before :func:`~repro.core.substrate_build.build_substrate_tables` wrote
kernel output straight into the slabs, a :class:`SubstrateTables` was
assembled from dict- and list-shaped pieces: one dense ``(dist, parent)``
row pair per landmark, a sweep over those rows for the closest landmark,
one ``(distances, predecessors)`` dict pair per vicinity, and a boxing
pass over all of it.  That path served no production caller any more and
lives here, unchanged in what it computes, so
``tests/test_substrate_build.py`` can hold the builder to it slab for slab
on every kernel family.  Its searches are the seed's dict Dijkstra
(:mod:`oracles.reference_paths`), not the kernels the builder calls.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

from oracles.reference_paths import dijkstra
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.graphs.topology import Topology

__all__ = ["landmark_spts", "closest_landmarks", "from_components"]


def landmark_spts(
    topology: Topology, landmarks: Iterable[int]
) -> dict[int, tuple[list[float], list[int]]]:
    """Shortest-path trees rooted at every landmark, as dense rows.

    Returns a dict mapping each landmark (in ascending id order) to a
    ``(dist_row, parent_row)`` pair of lists indexed by node id.  Nodes
    outside the landmark's component keep ``0.0`` / ``-1`` (the converged
    protocol models assume connected topologies).  Each tree is one
    reference search, not a row of the batch driver the builder calls.
    """
    spts = {}
    for landmark in sorted(landmarks):
        distances, predecessors = dijkstra(topology, landmark)
        dist_row = [0.0] * topology.num_nodes
        parent_row = [-1] * topology.num_nodes
        for node, distance in distances.items():
            dist_row[node] = distance
        for node, parent in predecessors.items():
            parent_row[node] = parent
        spts[landmark] = (dist_row, parent_row)
    return spts


def closest_landmarks(
    spts: dict[int, tuple[list[float], list[int]]], num_nodes: int
) -> tuple[list[int], list[float]]:
    """Per-node closest landmark (ties toward the smaller landmark id).

    Returns ``(closest, distance)`` lists indexed by node id, computed by
    sweeping the dense SPT rows once per landmark.
    """
    if not spts:
        raise ValueError("at least one landmark SPT is required")
    ordered = sorted(spts)
    first = ordered[0]
    best_distance = list(spts[first][0])
    best_landmark = [first] * num_nodes
    for landmark in ordered[1:]:
        row = spts[landmark][0]
        for node in range(num_nodes):
            if row[node] < best_distance[node]:
                best_distance[node] = row[node]
                best_landmark[node] = landmark
    return best_landmark, best_distance


def from_components(
    num_nodes: int,
    spts: Mapping[int, tuple[Sequence[float], Sequence[int]]],
    closest_rows: tuple[Sequence[int], Sequence[float]],
    vicinities: Sequence[tuple[Mapping[int, float], Mapping[int, int]]] | None,
) -> SubstrateTables:
    """Assemble slabs from the kernel outputs.

    ``spts`` maps landmark -> dense ``(dist_row, parent_row)``;
    ``closest_rows`` are the per-node closest-landmark rows;
    ``vicinities`` (optional) are per-node ``(distances, predecessors)``
    search dicts in settle order.
    """
    landmark_ids = array("q", sorted(spts))
    spt_dist = array("d")
    spt_parent = array("q")
    for landmark in landmark_ids:
        dist_row, parent_row = spts[landmark]
        spt_dist.extend(dist_row)
        spt_parent.extend(parent_row)
    vicinity = None
    if vicinities is not None:
        vicinity = NodeSearchTables.from_searches(vicinities)
    return SubstrateTables(
        num_nodes,
        landmark_ids,
        spt_dist,
        spt_parent,
        array("q", closest_rows[0]),
        array("d", closest_rows[1]),
        vicinity,
    )
