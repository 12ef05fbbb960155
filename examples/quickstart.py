#!/usr/bin/env python3
"""Quickstart: build Disco on a random network and route on flat names.

This example walks through the library's core workflow:

1. generate a topology,
2. build the Disco routing protocol on it (landmarks, vicinities, addresses,
   sloppy groups, dissemination overlay -- all computed in their converged
   state),
3. route a few flows and look at first-packet vs later-packet paths,
4. measure per-node state and path stretch the way the paper's evaluation
   does.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    DiscoRouting,
    ShortestPathRouting,
    gnm_random_graph,
    measure_state,
    measure_stretch,
)


def main() -> None:
    # 1. A connected 256-node random graph with average degree 8, the same
    #    family as the paper's G(n,m) comparison topology.
    topology = gnm_random_graph(256, seed=42)
    print(f"topology: {topology}")

    # 2. Converged Disco state.  The seed controls landmark selection and the
    #    overlay's finger choices, so results are fully reproducible.
    disco = DiscoRouting(topology, seed=42)
    print(f"landmarks: {len(disco.landmarks)} of {topology.num_nodes} nodes")
    members, _, _ = disco.tables.vicinity.row(0)
    print(f"vicinity size: {len(members)} nodes per node")

    # 3. Route a flow.  Disco is name-independent: the sender only knows the
    #    destination's flat name; the first packet finds the address through
    #    the sender's vicinity and the destination's sloppy group.
    source, target = 3, 200
    first = disco.first_packet_route(source, target)
    later = disco.later_packet_route(source, target)
    optimal = ShortestPathRouting(topology).first_packet_route(source, target)
    print(f"\nflow {source} -> {target}")
    print(f"  first packet ({first.mechanism}): {len(first.path) - 1} hops")
    print(f"  later packets ({later.mechanism}): {len(later.path) - 1} hops")
    print(f"  shortest path: {len(optimal.path) - 1} hops")
    print(
        "  first-packet stretch: "
        f"{first.length(topology) / optimal.length(topology):.2f}"
    )

    # 4. Evaluation-style measurements over the whole network.
    state = measure_state(disco)
    stretch = measure_stretch(disco, pair_sample=300, seed=7)
    print("\nnetwork-wide measurements")
    print(
        f"  state entries per node: mean {state.entry_summary.mean:.0f}, "
        f"max {state.entry_summary.maximum:.0f} "
        f"(vs {topology.num_nodes - 1} for shortest-path routing)"
    )
    print(
        f"  first-packet stretch: mean {stretch.first_summary.mean:.3f}, "
        f"max {stretch.first_summary.maximum:.2f} (bound: 7)"
    )
    print(
        f"  later-packet stretch: mean {stretch.later_summary.mean:.3f}, "
        f"max {stretch.later_summary.maximum:.2f} (bound: 3)"
    )


if __name__ == "__main__":
    main()
