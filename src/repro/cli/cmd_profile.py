"""``repro profile``: structural profile of an edge-list topology."""

from __future__ import annotations

import argparse

from repro.graphs.analysis import profile_topology
from repro.graphs.io import read_edge_list
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
    topology = read_edge_list(args.path)
    profile = profile_topology(topology, seed=args.seed)
    rows = [
        ["nodes", profile.num_nodes],
        ["edges", profile.num_edges],
        ["average degree", profile.average_degree],
        ["max degree", profile.max_degree],
        ["mean path length", profile.path_length_summary.mean],
        ["estimated diameter", profile.estimated_diameter],
    ]
    print(format_table(["property", "value"], rows, float_format="{:.2f}"))
    return 0
