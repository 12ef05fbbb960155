"""``repro generate``: write a synthetic topology as an edge list."""

from __future__ import annotations

import argparse

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


def command(args: argparse.Namespace) -> int:
    generator = GENERATORS[args.family]
    topology = generator(args.nodes, seed=args.seed)
    write_edge_list(topology, args.out)
    print(
        f"wrote {topology.num_nodes} nodes / {topology.num_edges} edges to {args.out}"
    )
    return 0
