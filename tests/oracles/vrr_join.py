"""VRR's join bookkeeping, read back for tests.

The converged :class:`~repro.protocols.vrr.VirtualRingRouting` keeps only
its :class:`~repro.protocols.vrr.RingTable`; the vsets and vset paths the
join simulation leaves behind are read here, off a build run the same way.
"""

from __future__ import annotations

from repro.protocols.vrr import _RingJoin, _ring_ids


def converge(topology, *, seed=0, vset_size=4, names=None) -> _RingJoin:
    """The finished join simulation ``VirtualRingRouting.converge`` freezes."""
    ids = _ring_ids(topology.num_nodes, vset_size, names)
    return _RingJoin(topology, ids, vset_size).run(seed)


def vset_of(join: _RingJoin, node: int) -> set[int]:
    """The node's virtual neighbour set after the last join."""
    return set(join._vsets[node])


def active_paths(join: _RingJoin) -> list[tuple[int, int, list[int]]]:
    """All active vset paths as (endpoint_a, endpoint_b, node path)."""
    return [
        (record.endpoint_a, record.endpoint_b, list(record.nodes))
        for record in join._paths.values()
        if record.active
    ]
