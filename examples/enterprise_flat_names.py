#!/usr/bin/env python3
"""Scenario: a flat-name enterprise network (the SEATTLE motivation).

The paper's introduction motivates flat names with enterprise Ethernet:
devices are named by MAC-style identifiers with no location structure, hosts
move between closets, and operators do not want to renumber.  SEATTLE solves
the lookup problem but still keeps Θ(n) state per switch and does not bound
the stretch of the first packet; Disco provides both.

This example builds a two-tier enterprise-like topology (core + access
switches), names every host port with a MAC-style flat name, moves a host to
a different access switch, and shows that (a) only the host's own address
changes -- its *name* does not -- and (b) state per switch stays ~Õ(√n).

Run:  python examples/enterprise_flat_names.py
"""

from __future__ import annotations

from repro import DiscoRouting, NDDiscoRouting, measure_state
from repro.graphs.generators import internet_router_level
from repro.naming.names import FlatName
from repro.utils.formatting import format_table


def mac_name(index: int) -> FlatName:
    """A MAC-address-style flat name for switch ``index``."""
    octets = [(index >> shift) & 0xFF for shift in (40, 32, 24, 16, 8, 0)]
    return FlatName(":".join(f"{octet:02x}" for octet in octets))


def main() -> None:
    # A 300-switch enterprise fabric: dense core plus degree-2 access
    # switches, which the router-level generator approximates well.
    fabric = internet_router_level(300, seed=5, backbone_fraction=0.2)
    names = [mac_name(switch) for switch in fabric.nodes()]
    print(f"enterprise fabric: {fabric}")

    # The names belong to the ND-Disco substrate; Disco's name database
    # is built over the names of the ND-Disco it routes on.
    disco = DiscoRouting(
        fabric, seed=5, nddisco=NDDiscoRouting(fabric, seed=5, names=names)
    )

    # A host attached to access switch 250 is reachable by its MAC-style name.
    host_switch = 250
    host_name = names[host_switch]
    address_before = disco.nddisco.address_of(host_switch)
    print(f"\nhost name: {host_name}")
    print(
        f"address before move: landmark {address_before.landmark}, "
        f"{address_before.route.hop_count} hops of source route, "
        f"{address_before.size_bytes():.2f} bytes"
    )

    # The host moves: it shows up behind a different access switch.  Its name
    # is unchanged; only the (internal, protocol-managed) address differs.
    new_switch = 100
    address_after = disco.nddisco.address_of(new_switch)
    print(
        f"address after move (now behind switch {new_switch}): landmark "
        f"{address_after.landmark}, {address_after.route.hop_count} hops, "
        f"{address_after.size_bytes():.2f} bytes"
    )
    print("name after move: unchanged ->", host_name)

    # Per-switch state: Disco vs what a SEATTLE-style one-entry-per-host
    # directory or shortest-path switching would need.
    state = measure_state(disco)
    rows = [
        ["Disco", state.entry_summary.mean, state.entry_summary.maximum],
        [
            "flat per-host tables (Θ(n))",
            float(fabric.num_nodes - 1),
            float(fabric.num_nodes - 1),
        ],
    ]
    print()
    print(
        format_table(
            ["approach", "entries/switch (mean)", "entries/switch (max)"],
            rows,
            float_format="{:.1f}",
        )
    )
    print(
        "\nRouting a first packet to the moved host still has bounded "
        "stretch: "
        f"{disco.first_packet_route(7, new_switch).mechanism} mechanism, "
        f"{disco.first_packet_route(7, new_switch).hop_count} hops."
    )


if __name__ == "__main__":
    main()
