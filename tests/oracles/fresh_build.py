"""The fresh-build oracle: the production builder on the engine's topology.

:class:`~repro.dynamics.engine.ChurnEngine` repairs a
:class:`~repro.core.tables.SubstrateTables` in place, and ``engine.tables``
must equal what :func:`~repro.core.substrate_build.build_substrate_tables`
produces from scratch on the mutated topology, slab for slab, after every
event and with no call in between.

:func:`engine_from_routing` is the other way in: an engine that adopts a
converged :class:`~repro.core.nddisco.NDDiscoRouting`'s tables instead of
building its own, which must be the same engine bit for bit.

:func:`addresses` reads every node's address off a set of slabs, the fact
the engine bills an event's address changes from without storing it.
"""

from __future__ import annotations

import copy

from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import SubstrateTables
from repro.dynamics.engine import ChurnEngine
from repro.graphs.csr import tree_path

__all__ = [
    "addresses",
    "assert_tables_match_fresh_build",
    "engine_from_routing",
    "fresh_tables",
]

_SLOTS = ("landmark_ids", "spt_dist", "spt_parent", "closest", "closest_dist")


def addresses(landmarks, parent_slab, closest) -> list:
    """Every node's ``(closest landmark, SPT path)`` walked up
    ``parent_slab`` (one ``n``-entry row per landmark, in the order of
    ``landmarks``), ``None`` for a node no landmark reaches."""
    n = len(closest)
    row = {landmark: index for index, landmark in enumerate(landmarks)}
    return [
        None
        if landmark < 0
        else (
            landmark,
            tuple(tree_path(parent_slab, landmark, node, base=row[landmark] * n)),
        )
        for node, landmark in enumerate(closest)
    ]


def fresh_tables(engine: ChurnEngine) -> SubstrateTables:
    """Full convergence on the engine's current topology."""
    return build_substrate_tables(
        engine.topology, engine.tables.landmarks, size=engine.vicinity_k
    )


def assert_tables_match_fresh_build(engine: ChurnEngine) -> None:
    """Every slab of ``engine.tables`` against a fresh build: the same slabs
    but the length column, the SPT and closest slabs whole, the vicinity
    rows (fixed stride there, packed in the build) through ``row(node)``
    with the length column (an address is the closest slab and an SPT
    path, so the slabs being equal makes the addresses equal)."""
    fresh = fresh_tables(engine)
    live = engine.tables
    assert [name for name, _, _ in live.slab_items()] == [
        name for name, _, _ in fresh.slab_items()
    ] + ["vicinity.lengths"]
    for slot in _SLOTS:
        assert bytes(getattr(live, slot)) == bytes(getattr(fresh, slot)), slot
    for node in range(live.num_nodes):
        theirs = fresh.vicinity.row(node)
        assert [bytes(v) for v in live.vicinity.row(node)] == [
            bytes(v) for v in theirs
        ], node
        assert live.vicinity.lengths[node] == len(theirs[0]), node


def engine_from_routing(routing) -> ChurnEngine:
    """Adopt the converged state of an ``NDDiscoRouting`` instance.

    Requires a connected topology, as the scheme does.  The scheme's slabs
    are copied wholesale, with no per-entry translation and no search
    recomputed (the scheme and the siblings sharing its tables keep theirs
    untouched by events).
    """
    if not routing.topology.is_connected():
        raise ValueError(
            "engine_from_routing requires a connected topology; build the "
            "engine from scratch instead"
        )
    engine = ChurnEngine.__new__(ChurnEngine)
    slabs = copy.deepcopy(routing.tables)  # private array-backed slabs
    # Connected topology: every adopted row holds exactly min(k, n)
    # members, whatever vicinity_scale the routing was built with.
    engine._adopt(
        routing.topology.copy().csr(),
        slabs,
        slabs.vicinity.offsets[1],
        list(routing.names),
    )
    return engine
