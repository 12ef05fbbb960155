"""``repro generate``: write a synthetic topology as an edge list."""

from __future__ import annotations

import argparse
import sys

from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    internet_router_level,
)
from repro.graphs.io import write_edge_list


#: Topology family -> generator, for every command that takes a family.
GENERATORS = {
    "gnm": gnm_random_graph,
    "geometric": geometric_random_graph,
    "as-level": internet_as_level,
    "router-level": internet_router_level,
}


def generate_topology(command: str, family: str, nodes: int, seed: int):
    """``GENERATORS[family](nodes, seed=seed)`` for every command that takes
    a family.  A size the generator refuses (``ValueError``) exits with
    status 2 after one stderr line, as a bad argument does."""
    try:
        return GENERATORS[family](nodes, seed=seed)
    except ValueError as error:
        print(f"{command} {family} {nodes}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def command(args: argparse.Namespace) -> int:
    topology = generate_topology("generate", args.family, args.nodes, args.seed)
    write_edge_list(topology, args.out)
    print(
        f"wrote {topology.num_nodes} nodes / {topology.num_edges} edges to {args.out}"
    )
    return 0
