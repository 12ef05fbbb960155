"""Vicinities: the Θ(√(n log n)) nodes closest to each node (§4.2).

"Each node v learns shortest paths to every node in its vicinity V(v): the
Θ(√(n log n)) nodes closest to v.  These sizes ensure that each node has a
landmark within its vicinity w.h.p."

:func:`compute_vicinities` returns every node's vicinity as one
:class:`~repro.core.tables.NodeSearchTables` row per node: the members in
settle order with their distances and the parents of the truncated search,
so the routing code can both test membership and walk the actual shortest
path to any member (for forwarding, shortcutting, and congestion
accounting).

Unlike S4's clusters, the vicinity size is *fixed* by n alone -- "S4 expands
its cluster until it reaches a landmark, while NDDisco and Disco have
vicinities which are fixed at Θ(√(n log n)) nodes" (§5.2) -- which is what
enforces the per-node state bound on any topology.
"""

from __future__ import annotations

import math

from repro.core.tables import NodeSearchTables
from repro.graphs.topology import Topology
from repro.utils.validation import require_positive

__all__ = ["vicinity_size", "compute_vicinities"]


def vicinity_size(num_nodes: int, *, scale: float = 1.0) -> int:
    """Return the target vicinity size ceil(scale * sqrt(n * ln n)).

    ``scale`` is the constant hidden in the Θ; 1.0 reproduces the paper's
    sizing (with natural log), and the experiments keep it at 1.0.  The size
    is clamped to ``num_nodes`` (a node's vicinity can never exceed the whole
    network) and is at least 1 (the node itself).
    """
    require_positive("num_nodes", num_nodes)
    require_positive("scale", scale)
    if num_nodes == 1:
        return 1
    size = math.ceil(scale * math.sqrt(num_nodes * math.log(num_nodes)))
    return max(1, min(num_nodes, size))


def compute_vicinities(
    topology: Topology,
    *,
    size: int | None = None,
    scale: float = 1.0,
) -> NodeSearchTables:
    """Compute every node's vicinity in one k-nearest batch.

    Parameters
    ----------
    size:
        Explicit vicinity size; defaults to :func:`vicinity_size` for the
        topology's node count.
    scale:
        Passed to :func:`vicinity_size` when ``size`` is not given.

    Returns
    -------
    NodeSearchTables
        Row ``v`` is ``v``'s vicinity: the ``size`` nodes nearest ``v``
        (its whole component if smaller) in ``(distance, id)`` settle
        order, ``v`` first.
    """
    if size is None:
        size = vicinity_size(topology.num_nodes, scale=scale)
    require_positive("size", size)
    offsets, members, dists, parents = topology.csr().k_nearest_batch_flat(size)
    return NodeSearchTables(topology.num_nodes, offsets, members, dists, parents)
