"""§4.2 -- explicit-route (address) sizes on the router-level topology.

"We measured the size of explicit routes in CAIDA's router-level map of the
Internet by picking random landmarks and encoding shortest paths from each
node to its closest landmark as a sequence of these O(log d)-bit encodings of
the node identifiers on the path.  The maximum size of our addresses is just
10.625 bytes (less than an IPv6 address), the 95th percentile is 5 bytes, and
the mean -- the important metric for the per-node state bound -- is 2.93
bytes (less than an IPv4 address)."

The same measurement is performed here on the synthetic router-level-like
topology (and, for contrast, on a ring -- the worst case where addresses grow
to Θ̃(√n) bits).  The property to verify is not the exact byte values (they
depend on the CAIDA map) but their *order*: mean of a few bytes, comfortably
below an IPv6 address, despite the absence of any explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.nddisco import NDDiscoRouting
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import header
from repro.experiments.workloads import router_level_topology
from repro.graphs.generators import ring_graph
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import converged_nddisco
from repro.utils.distributions import Summary, summarize
from repro.utils.formatting import format_table

__all__ = ["AddressSizeResult", "run", "format_report"]


@dataclass(frozen=True)
class AddressSizeResult:
    """Explicit-route size distributions (fractional bytes)."""

    router_level: Summary
    ring: Summary
    router_level_p95: float
    ring_p95: float
    scale_label: str


def _address_route_bytes(routing: NDDiscoRouting) -> list[float]:
    return [bits / 8.0 for bits in routing.address_bits]


@scenario(
    "addr-sizes",
    title="§4.2: explicit-route address sizes (router-level vs ring)",
    family=("router-level", "ring"),
    protocols=("nd-disco",),
    metrics=("address-bytes",),
    workload="closest-landmark route encoding per node",
    aliases=("addr", "address-sizes"),
    tags=("study", "quick"),
)
def run(scale: ExperimentScale | None = None) -> AddressSizeResult:
    """Measure explicit-route sizes on the router-level-like graph and a ring."""
    scale = scale or default_scale()
    router_topology = router_level_topology(scale)
    # StaticSimulation's nd-disco, so this study shares fig07's converged
    # tables on the router-level graph.
    router_routing = converged_nddisco(router_topology, seed=scale.seed)
    router_sizes = _address_route_bytes(router_routing)

    ring_topology = ring_graph(max(64, scale.comparison_nodes // 2))
    ring_routing = NDDiscoRouting(ring_topology, seed=scale.seed)
    ring_sizes = _address_route_bytes(ring_routing)

    router_summary = summarize(router_sizes)
    ring_summary = summarize(ring_sizes)
    return AddressSizeResult(
        router_level=router_summary,
        ring=ring_summary,
        router_level_p95=router_summary.p95,
        ring_p95=ring_summary.p95,
        scale_label=scale.label,
    )


def format_report(result: AddressSizeResult) -> str:
    """Render the address-size table (paper: mean 2.93 B, p95 5 B, max 10.625 B)."""
    table = format_table(
        ["topology", "mean bytes", "p95 bytes", "max bytes"],
        [
            [
                "router-level-like",
                result.router_level.mean,
                result.router_level_p95,
                result.router_level.maximum,
            ],
            ["ring (worst case)", result.ring.mean, result.ring_p95, result.ring.maximum],
        ],
    )
    note = (
        "Paper (CAIDA router-level map): mean 2.93 B, 95th percentile 5 B, "
        "max 10.625 B.  IPv4 address = 4 B, IPv6 address = 16 B."
    )
    return "\n".join(
        [
            header(
                "§4.2: explicit-route (address) sizes",
                f"scale={result.scale_label}",
            ),
            table,
            note,
        ]
    )
