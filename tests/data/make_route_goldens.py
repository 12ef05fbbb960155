"""Generator for ``route_goldens.json``: one SHA-256 per (topology, scheme,
variant) cell over ``repr`` of every ``(first, later)`` :class:`RouteResult`.

The committed digests were recorded at commit 4dae2ea, where the schemes'
per-pair ``first_packet_route`` / ``later_packet_route`` methods were
hand-written routing code independent of the batch routers; they freeze
that implementation's verdict.  ``tests/test_metrics_batch.py`` imports
:func:`cells` and :func:`digest` from here and checks both entry points
(the one-pair API and ``route_pairs_batch``) against the file.

Regenerate (only when routing behaviour is *meant* to change)::

    PYTHONPATH=src python tests/data/make_route_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.sampling import sample_pairs
from repro.protocols.s4 import S4Routing
from repro.staticsim.simulation import StaticSimulation

GOLDENS_PATH = Path(__file__).with_name("route_goldens.json")

TOPOLOGIES = {
    "gnm-140": lambda: gnm_random_graph(140, seed=3, average_degree=6.0),
    "geometric-110": lambda: geometric_random_graph(
        110, seed=4, average_degree=7.0
    ),
    "router-level-120": lambda: internet_router_level(120, seed=5),
}


def cells(family: str) -> Iterator[tuple[str, object, list[tuple[int, int]]]]:
    """Yield ``(cell id, scheme, pairs)`` for every cell of one topology.

    The scheme is only valid until the next cell is drawn: the shortcut
    mode is a routing-time knob and is switched in place between cells.
    """
    topology = TOPOLOGIES[family]()
    pairs = sample_pairs(topology, 200, seed=7)
    simulation = StaticSimulation(
        topology, ("disco", "nd-disco", "s4", "vrr"), seed=1
    )
    for name in ("s4", "vrr"):
        yield f"{family}/{name}", simulation.scheme(name), pairs
    disco = simulation.scheme("disco")
    for mode in ShortcutMode:
        disco.shortcut_mode = mode  # shared with the embedded ND-Disco
        yield f"{family}/disco/{mode.value}", disco, pairs
        yield f"{family}/nd-disco/{mode.value}", disco.nddisco, pairs
    # The address-known cells: both schemes over the same tables, with the
    # first packet's resolution step off.
    nddisco = disco.nddisco
    address_known = {
        "nd-disco": NDDiscoRouting.from_tables(
            topology, nddisco.tables, nddisco.names, resolve_first_packet=False
        ),
        "s4": S4Routing.from_tables(
            topology, nddisco.tables, nddisco.names, resolve_first_packet=False
        ),
    }
    for name, scheme in address_known.items():
        yield f"{family}/{name}/address-known", scheme, pairs


def digest(routes) -> str:
    """SHA-256 over ``repr`` of a list of ``(first, later)`` results."""
    return hashlib.sha256(repr(list(routes)).encode()).hexdigest()


def main() -> None:
    goldens = {}
    for family in TOPOLOGIES:
        for cell, scheme, pairs in cells(family):
            goldens[cell] = digest(
                (
                    scheme.first_packet_route(source, target),
                    scheme.later_packet_route(source, target),
                )
                for source, target in pairs
            )
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2) + "\n")
    print(f"wrote {len(goldens)} digests to {GOLDENS_PATH}")


if __name__ == "__main__":
    main()
