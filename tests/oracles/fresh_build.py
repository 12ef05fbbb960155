"""The fresh-build oracle: the production builder on the engine's topology.

:class:`~repro.dynamics.engine.ChurnEngine` repairs a
:class:`~repro.core.tables.SubstrateTables` in place, and ``engine.tables``
must equal what :func:`~repro.core.substrate_build.build_substrate_tables`
produces from scratch on the mutated topology, slab for slab, after every
event and with no call in between.

:func:`engine_from_routing` is the other way in: an engine that adopts a
converged :class:`~repro.core.nddisco.NDDiscoRouting`'s tables instead of
building its own, which must be the same engine bit for bit.
"""

from __future__ import annotations

import copy
from array import array

from repro.addressing.labels import LabelCodec
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import SubstrateTables
from repro.dynamics.engine import ChurnEngine

__all__ = [
    "assert_tables_match_fresh_build",
    "engine_from_routing",
    "fresh_tables",
]

_SLOTS = ("landmark_ids", "spt_dist", "spt_parent", "closest", "closest_dist")


def fresh_tables(engine: ChurnEngine, *, addresses: bool = False) -> SubstrateTables:
    """Full convergence on the engine's current topology (``addresses``
    needs it connected)."""
    topology = engine.topology
    return build_substrate_tables(
        topology,
        engine.landmarks,
        size=engine.vicinity_k,
        codec=LabelCodec(topology) if addresses else None,
    )


def assert_tables_match_fresh_build(engine: ChurnEngine) -> None:
    """Every slab of ``engine.tables`` against a fresh build: the SPT and
    closest slabs whole, the vicinity rows (fixed stride there, packed in
    the build) through ``row(node)`` with the length column, and the
    engine's addresses against the build's address paths whenever the graph
    is connected (the builder rejects addresses otherwise)."""
    connected = engine.topology.is_connected()
    fresh = fresh_tables(engine, addresses=connected)
    live = engine.tables
    for slot in _SLOTS:
        assert bytes(getattr(live, slot)) == bytes(getattr(fresh, slot)), slot
    assert list(live.addr_offsets) == [0] and not len(live.addr_path)
    for node in range(live.num_nodes):
        theirs = fresh.vicinity.row(node)
        assert [bytes(v) for v in live.vicinity.row(node)] == [
            bytes(v) for v in theirs
        ], node
        assert live.vicinity.lengths[node] == len(theirs[0]), node
        address = engine.addresses[node]
        if connected:
            assert address == (
                fresh.closest[node],
                tuple(fresh.address_path(node)),
            ), node
        else:
            assert (address is None) == (fresh.closest[node] < 0), node


def engine_from_routing(routing) -> ChurnEngine:
    """Adopt the converged state of an ``NDDiscoRouting`` instance.

    Requires a connected topology, as the scheme does.  The scheme's slabs
    are copied wholesale, with no per-entry translation and no search
    recomputed (the scheme and the siblings sharing its tables keep theirs
    untouched by events); the address slabs are left out, as in the tables
    the engine builds itself.
    """
    if not routing.topology.is_connected():
        raise ValueError(
            "engine_from_routing requires a connected topology; build the "
            "engine from scratch instead"
        )
    engine = ChurnEngine.__new__(ChurnEngine)
    slabs = copy.deepcopy(routing.tables)  # private array-backed slabs
    slabs.addr_offsets = array("q", [0])
    slabs.addr_path, slabs.addr_labels, slabs.addr_bits = (
        array("q") for _ in range(3)
    )
    # Connected topology: every adopted row holds exactly min(k, n)
    # members, whatever vicinity_scale the routing was built with.
    engine._adopt(
        routing.topology.copy().csr(),
        slabs,
        slabs.vicinity.offsets[1],
        list(routing.names),
    )
    engine._addresses = [
        (address.landmark, tuple(address.route.path))
        for address in routing.addresses
    ]
    return engine
