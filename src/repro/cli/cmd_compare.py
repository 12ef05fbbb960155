"""``repro compare``: state and stretch per protocol on one topology."""

from __future__ import annotations

import argparse

from repro.graphs.io import read_edge_list
from repro.staticsim.simulation import StaticSimulation
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
    topology = read_edge_list(args.path)
    if not topology.is_connected():
        topology, _ = topology.largest_component_subgraph()
        print(
            f"note: using the largest connected component ({topology.num_nodes} nodes)"
        )
    simulation = StaticSimulation(topology, args.protocols, seed=args.seed)
    results = simulation.run(
        measure_state_flag=True,
        measure_stretch_flag=True,
        pair_sample=args.pairs,
    )
    rows = []
    for name in sorted(results.state):
        state = results.state[name].entry_summary
        stretch = results.stretch[name]
        rows.append(
            [
                name,
                state.mean,
                state.maximum,
                stretch.first_summary.mean,
                stretch.later_summary.mean,
            ]
        )
    print(
        format_table(
            ["protocol", "state mean", "state max", "first stretch", "later stretch"],
            rows,
            float_format="{:.2f}",
        )
    )
    return 0
