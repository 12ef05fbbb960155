"""Operator-controlled landmark selection policies (§6 discussion).

The paper's landmarks are chosen uniform-randomly, but §6 points out that the
guarantees "require only that each node has at least one landmark within its
vicinity and that there are Õ(√n) total landmarks.  These rules would permit
an operator to choose landmarks in non-random ways, for example to pick a
more well-provisioned landmark".

This module provides such policies, all returning roughly the same number of
landmarks as the random rule so that state stays Õ(√n):

* :func:`random_landmarks` -- the paper's default (a thin wrapper).
* :func:`degree_based_landmarks` -- pick the highest-degree nodes
  ("well-provisioned" routers); on Internet-like graphs these are the core.
* :func:`spread_landmarks` -- a greedy farthest-point selection that spreads
  landmarks across the topology, minimising the worst node-to-landmark
  distance (useful when vicinity coverage, not provisioning, is the concern).

The landmark-policy ablation experiment compares state and stretch across
these choices.
"""

from __future__ import annotations

import math

from repro.core.landmarks import landmark_probability, select_landmarks
from repro.graphs.topology import Topology
from repro.utils.randomness import make_rng
from repro.utils.validation import require_positive

__all__ = [
    "target_landmark_count",
    "random_landmarks",
    "degree_based_landmarks",
    "spread_landmarks",
]


def target_landmark_count(num_nodes: int) -> int:
    """The Õ(√n) landmark budget: the expected count of the random rule."""
    require_positive("num_nodes", num_nodes)
    return max(1, int(round(num_nodes * landmark_probability(num_nodes))))


def random_landmarks(topology: Topology, *, seed: int = 0) -> set[int]:
    """The paper's default: independent biased coin flips at every node."""
    return select_landmarks(topology.num_nodes, seed=seed)


def degree_based_landmarks(
    topology: Topology, *, count: int | None = None, seed: int = 0
) -> set[int]:
    """Pick the ``count`` highest-degree nodes as landmarks.

    Ties are broken by node id.  ``count`` defaults to the random rule's
    expected landmark count so the Õ(√n) budget is respected.  The ``seed``
    parameter is accepted for interface uniformity with the other policies
    (the selection itself is deterministic).
    """
    del seed
    if count is None:
        count = target_landmark_count(topology.num_nodes)
    require_positive("count", count)
    count = min(count, topology.num_nodes)
    ranked = sorted(
        topology.nodes(), key=lambda node: (-topology.degree(node), node)
    )
    return set(ranked[:count])


def spread_landmarks(
    topology: Topology, *, count: int | None = None, seed: int = 0
) -> set[int]:
    """Greedy farthest-point landmark placement.

    Starts from a random node and repeatedly adds the node farthest (in
    weighted distance) from the current landmark set.  This is the classic
    2-approximation of the k-center objective, so the worst node-to-landmark
    distance is near-minimal for the given budget -- the property that keeps
    "a landmark within every vicinity" comfortable.
    """
    if count is None:
        count = target_landmark_count(topology.num_nodes)
    require_positive("count", count)
    count = min(count, topology.num_nodes)
    rng = make_rng(seed, "spread-landmarks")
    first = rng.randrange(topology.num_nodes)
    landmarks = {first}
    csr = topology.csr()
    distance_to_set, _ = csr.spt_rows(first, fill=math.inf)
    while len(landmarks) < count:
        farthest = max(
            (node for node in topology.nodes() if node not in landmarks),
            key=lambda node: (distance_to_set[node], node),
        )
        landmarks.add(farthest)
        distances, _ = csr.spt_rows(farthest, fill=math.inf)
        distance_to_set = list(map(min, distance_to_set, distances))
    return landmarks
