#!/usr/bin/env python3
"""Scenario: Internet-scale routing on self-certifying names.

Proposals such as AIP, HIP, and LISP separate location from identity and
route on flat (often self-certifying) identifiers; the paper argues Disco is
the missing routing layer that makes this scalable with bounded stretch.
This example builds an AS-level-like Internet topology, names each domain by
the hash of a public key (a self-certifying name), and compares Disco against
S4, VRR, and path-vector routing on the three axes of the paper's
evaluation: per-node state, stretch, and congestion.

Run:  python examples/internet_routing.py
"""

from __future__ import annotations

import hashlib

from repro import (
    DiscoRouting,
    NDDiscoRouting,
    PathVectorRouting,
    S4Routing,
    VirtualRingRouting,
    internet_as_level,
    measure_congestion,
    measure_state,
    measure_stretch,
)
from repro.graphs.sampling import one_destination_per_node, sample_pairs
from repro.naming.names import FlatName
from repro.utils.formatting import format_table


def self_certifying_name(domain: int) -> FlatName:
    """A name derived from a (synthetic) public key: hash of the key bytes."""
    public_key = f"domain-{domain}-public-key".encode("utf-8")
    return FlatName(hashlib.sha256(public_key).hexdigest()[:40])


def main() -> None:
    internet = internet_as_level(600, seed=23)
    names = [self_certifying_name(d) for d in internet.nodes()]
    print(f"Internet-like AS topology: {internet}")

    # Every scheme routes on the self-certifying names.  Disco and S4 share
    # ND-Disco's converged landmark substrate, as in the paper's
    # like-for-like comparison.
    nddisco = NDDiscoRouting(internet, seed=23, names=names)
    schemes = [
        DiscoRouting(internet, seed=23, nddisco=nddisco),
        nddisco,
        S4Routing.from_tables(internet, nddisco.tables, names),
        VirtualRingRouting(internet, seed=23, names=names),
        PathVectorRouting(internet, seed=23),
    ]

    # One workload for all five: 500 sampled pairs for stretch and one flow
    # per node for congestion.
    pairs = sample_pairs(internet, 500, seed=24)
    distances = internet.csr().batched_target_distances(
        [(s, t) for s, t in pairs if s != t]
    )
    flows = one_destination_per_node(internet, seed=25)
    nodes = list(internet.nodes())

    rows = []
    for scheme in schemes:
        state = measure_state(scheme, nodes=nodes).entry_summary
        stretch = measure_stretch(scheme, pairs=pairs, distances=distances)
        congestion = measure_congestion(scheme, pairs=flows)
        rows.append(
            [
                scheme.name,
                state.mean,
                state.maximum,
                stretch.first_summary.mean,
                stretch.later_summary.mean,
                congestion.summary.p99,
                congestion.max_usage(),
            ]
        )
    print(
        format_table(
            [
                "protocol",
                "state mean",
                "state max",
                "first stretch",
                "later stretch",
                "edge load p99",
                "edge load max",
            ],
            rows,
            float_format="{:.2f}",
        )
    )
    print(
        "\nExpected shape (paper Figs. 2/4/10): Disco and ND-Disco keep state"
        " balanced; S4's max state blows up on Internet-like graphs; VRR has"
        " both heavy state tails and high stretch; path vector has stretch 1"
        " but Θ(n) state per node."
    )


if __name__ == "__main__":
    main()
