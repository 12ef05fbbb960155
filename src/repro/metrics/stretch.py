"""Path-stretch measurement (Figs. 3, 4, 5, 6, 9).

Stretch is "the ratio of the protocol's route length to the shortest path
length" (§2).  For each sampled source-destination pair we obtain the
protocol's first-packet and later-packet routes, measure their weighted
length, and divide by the true shortest-path distance.

All pairs of one call are routed on one ``scheme.router()``
(:mod:`repro.metrics.batch`), which shares landmark-path extractions,
relay segments, and group-contact scans across the whole batch.  The
routes go into one flat array of ids, and their lengths come from one
:meth:`~repro.graphs.csr.CSRGraph.route_walks` call (one C call on the C
tier), bit-equal to :meth:`~repro.protocols.base.RouteResult.length`; a
route with a hop that is not an edge raises its ``KeyError``.  Callers
measuring several schemes over the same pairs
(:class:`~repro.staticsim.simulation.StaticSimulation`) pass the
shortest-distance table in once via ``distances`` instead of recomputing
it per scheme.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from repro.graphs.sampling import sample_pairs
from repro.graphs.topology import Topology
from repro.protocols.base import RouteResult, RoutingScheme
from repro.utils.distributions import Summary, summarize

__all__ = ["StretchReport", "measure_stretch", "stretch_of_route"]


def stretch_of_route(
    topology: Topology, route: RouteResult, shortest_distance: float
) -> float:
    """Stretch of one route given the true shortest distance.

    Raises
    ------
    ValueError
        If the shortest distance is not positive (the pair's endpoints must
        differ) or the route is undelivered/empty.
    """
    if shortest_distance <= 0:
        raise ValueError("shortest_distance must be > 0 (distinct endpoints)")
    if not route.path:
        raise ValueError("cannot compute stretch of an empty route")
    return route.length(topology) / shortest_distance


@dataclass(frozen=True)
class StretchReport:
    """Stretch measurements for one protocol over sampled pairs.

    Attributes
    ----------
    scheme:
        Protocol name.
    pairs:
        The (source, destination) pairs measured.
    first_packet, later_packets:
        Stretch values aligned with ``pairs``.
    failures:
        Number of pairs whose first-packet route was not delivered (greedy
        failures in VRR); their stretch is measured over the fallback path
        and they are counted here so reports can flag them.
    """

    scheme: str
    pairs: tuple[tuple[int, int], ...]
    first_packet: tuple[float, ...]
    later_packets: tuple[float, ...]
    failures: int = 0

    @property
    def first_summary(self) -> Summary:
        """Summary of first-packet stretch."""
        return summarize(self.first_packet)

    @property
    def later_summary(self) -> Summary:
        """Summary of later-packet stretch."""
        return summarize(self.later_packets)


def measure_stretch(
    scheme: RoutingScheme,
    *,
    pairs: Sequence[tuple[int, int]] | None = None,
    pair_sample: int = 500,
    seed: int = 0,
    distances: Mapping[tuple[int, int], float] | None = None,
) -> StretchReport:
    """Measure first- and later-packet stretch for ``scheme``.

    Parameters
    ----------
    pairs:
        Explicit source-destination pairs; defaults to ``pair_sample``
        uniformly sampled ordered pairs.
    pair_sample:
        Number of pairs to sample when ``pairs`` is not given.
    seed:
        Sampling seed.
    distances:
        Optional precomputed shortest-distance table covering every
        measured pair (as returned by
        :meth:`~repro.graphs.csr.CSRGraph.batched_target_distances`
        for the same pairs); lets callers measuring several schemes share
        one computation.  Computed on demand when omitted.
    """
    topology = scheme.topology
    if pairs is None:
        measured_pairs = sample_pairs(topology, pair_sample, seed=seed)
    else:
        measured_pairs = [(s, t) for s, t in pairs if s != t]
    if not measured_pairs:
        raise ValueError("no source-destination pairs to measure")
    if distances is None:
        distances = topology.csr().batched_target_distances(measured_pairs)

    router = scheme.router()
    router.prefetch(measured_pairs, first=True, later=True)
    route_pair = router.pair
    # Every route's ids go into one flat array, route i ending at ends[i];
    # a pair whose packets took one path has one route.
    nodes, ends = array("q"), array("q")
    measured = []
    for source, target in measured_pairs:
        shortest = distances[(source, target)]
        first, later = route_pair(source, target)
        nodes.extend(first.path)
        ends.append(len(nodes))
        shared = later.path == first.path
        if not shared:
            nodes.extend(later.path)
            ends.append(len(nodes))
        empty = not first.path or not later.path
        measured.append((shortest, first.delivered, empty, shared))
    lengths, _, statuses = topology.csr().route_walks(nodes, ends)
    walked = iter(zip(chain((0,), ends), ends, lengths, statuses))

    def length() -> float:
        start, end, walk_length, status = next(walked)
        # A refused walk goes through the rule, which raises.
        return router.route_length(nodes[start:end]) if status else walk_length

    first_values: list[float] = []
    later_values: list[float] = []
    failures = 0
    for shortest, delivered, empty, shared in measured:
        if not delivered:
            failures += 1
        # Same guards and float math as stretch_of_route.
        if shortest <= 0:
            raise ValueError(
                "shortest_distance must be > 0 (distinct endpoints)"
            )
        if empty:
            raise ValueError("cannot compute stretch of an empty route")
        first_stretch = length() / shortest
        first_values.append(first_stretch)
        later_values.append(first_stretch if shared else length() / shortest)
    return StretchReport(
        scheme=scheme.name,
        pairs=tuple(measured_pairs),
        first_packet=tuple(first_values),
        later_packets=tuple(later_values),
        failures=failures,
    )
