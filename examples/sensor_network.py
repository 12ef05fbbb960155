#!/usr/bin/env python3
"""Scenario: routing in a large wireless sensor network (S4's home turf).

S4 was designed for wireless sensor networks; the paper shows that Disco
matches its average state while avoiding its two weaknesses -- unbalanced
worst-case state and high first-packet stretch on latency-weighted graphs.
This example builds a geometric random graph (nodes scattered in a field,
links between radio neighbors, link weights = distances/latencies), runs
Disco, NDDisco and S4 side by side, and prints the comparison the paper's
Figs. 3 and 5 make.  It then converges NDDisco's and S4's control planes
message by message on a smaller patch of the field, the measure of the
paper's Fig. 8 on latency weights, where a route's cluster membership can
change as landmark distances tighten.

Run:  python examples/sensor_network.py
"""

from __future__ import annotations

from repro import geometric_random_graph
from repro.sim.convergence import (
    simulate_nddisco_convergence,
    simulate_s4_convergence,
)
from repro.staticsim import StaticSimulation
from repro.utils.formatting import format_table


def main() -> None:
    # A 400-sensor deployment with average radio degree 8.
    field = geometric_random_graph(400, seed=11, average_degree=8.0)
    print(f"sensor field: {field} (weights are link latencies)")

    simulation = StaticSimulation(field, ("disco", "nd-disco", "s4"), seed=11)
    results = simulation.run(
        measure_state_flag=True,
        measure_stretch_flag=True,
        measure_congestion_flag=True,
        pair_sample=400,
    )

    rows = []
    for name in ("Disco", "ND-Disco", "S4"):
        state = results.state[name].entry_summary
        stretch = results.stretch[name]
        congestion = results.congestion[name]
        rows.append(
            [
                name,
                state.mean,
                state.maximum,
                stretch.first_summary.mean,
                stretch.first_summary.maximum,
                stretch.later_summary.mean,
                congestion.max_usage(),
            ]
        )
    print(
        format_table(
            [
                "protocol",
                "state mean",
                "state max",
                "first stretch mean",
                "first stretch max",
                "later stretch mean",
                "max edge load",
            ],
            rows,
            float_format="{:.2f}",
        )
    )
    print(
        "\nExpected shape (paper Figs. 3/5): S4's first-packet stretch tail is"
        " far above Disco's on latency-weighted graphs, because S4's first"
        " packet detours through a location-service landmark that can be"
        " physically far away, while Disco finds the address inside the"
        " sender's vicinity."
    )

    # Message-level convergence is event by event, so a 120-sensor patch.
    patch = geometric_random_graph(120, seed=11, average_degree=8.0)
    rows = [
        [name, report.messages_per_node, report.entries_per_node]
        for name, report in (
            ("ND-Disco", simulate_nddisco_convergence(patch, seed=11)),
            ("S4", simulate_s4_convergence(patch, seed=11)),
        )
    ]
    print(f"\ncontrol-plane convergence on {patch}:")
    print(
        format_table(
            ["protocol", "messages per node", "entries per node"],
            rows,
            float_format="{:.1f}",
        )
    )


if __name__ == "__main__":
    main()
