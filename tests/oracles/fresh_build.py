"""The fresh-build oracle: the production builder on the engine's topology.

:class:`~repro.dynamics.engine.ChurnEngine` repairs a
:class:`~repro.core.tables.SubstrateTables` in place, and ``engine.tables``
must equal what :func:`~repro.core.substrate_build.build_substrate_tables`
produces from scratch on the mutated topology, slab for slab, after every
event and with no call in between.
"""

from __future__ import annotations

from repro.addressing.labels import LabelCodec
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import SubstrateTables
from repro.dynamics.engine import ChurnEngine

__all__ = ["fresh_tables", "assert_tables_match_fresh_build"]

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
