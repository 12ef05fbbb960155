"""Fig. 4 -- state, stretch, and congestion on a G(n,m) random graph.

"Fig. 4 ... State (left), stretch (middle) and congestion (right) comparisons
between Disco, VRR and S4 over a 1,024-node G(n,m) random graph."  (§5.2)

This is the full five-protocol comparison (Disco, NDDisco, S4, VRR, path
vector) on the unit-weight random graph.  The shapes to verify:

* VRR's state distribution has a much heavier tail than Disco/NDDisco/S4 (and
  can exceed even path vector for a few nodes);
* VRR's stretch is well above the compact-routing protocols';
* congestion of the compact schemes is close to shortest-path routing, with
  VRR noticeably worse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import (
    header,
    render_congestion_reports,
    render_state_reports,
    render_stretch_reports,
)
from repro.experiments.workloads import comparison_gnm
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import SimulationResults, StaticSimulation

__all__ = [
    "ComparisonResult",
    "run",
    "format_report",
    "run_protocol_shard",
    "merge_protocol_shards",
]

_PROTOCOLS = ("disco", "nd-disco", "s4", "vrr", "path-vector")

#: What each protocol shard must *build* so its converged state is the
#: one it has beside the other four protocols in a single simulation.
#: Disco pulls its ND-Disco substrate in internally; S4 shares the
#: landmark set (and the converged substrate) with ND-Disco only when both
#: appear in the protocol list, so its shard carries ND-Disco along --
#: with the artifact cache active the substrate is built once across
#: shards.
_SHARD_BUILD = {
    "disco": ("disco",),
    "nd-disco": ("nd-disco",),
    "s4": ("nd-disco", "s4"),
    "vrr": ("vrr",),
    "path-vector": ("path-vector",),
}


@dataclass(frozen=True)
class ComparisonResult:
    """The three-panel comparison on one topology."""

    results: SimulationResults
    topology_label: str
    scale_label: str


def run_protocol_shard(
    scale: ExperimentScale,
    protocol: str,
    topology_builder=None,
) -> SimulationResults:
    """One protocol-granularity shard of a five-protocol comparison.

    Builds ``protocol`` (plus the substrate coupling it has beside the
    other protocols, see ``_SHARD_BUILD``) on the comparison topology and
    measures only that protocol over the shared sampled workloads, which
    every shard draws identically.  Shared by Fig. 4 (G(n,m), the default
    builder) and Fig. 5 (geometric).
    """
    topology = (topology_builder or comparison_gnm)(scale)
    simulation = StaticSimulation(
        topology, _SHARD_BUILD[protocol], seed=scale.seed
    )
    return simulation.run(
        measure_state_flag=True,
        measure_stretch_flag=True,
        measure_congestion_flag=True,
        pair_sample=scale.pair_sample,
        measure_protocols=(protocol,),
    )


def merge_protocol_shards(
    scale: ExperimentScale, parts: dict[str, SimulationResults]
) -> ComparisonResult:
    """Reassemble per-protocol shard results in canonical protocol order."""
    merged = SimulationResults(
        topology_name=parts[_PROTOCOLS[0]].topology_name
    )
    for protocol in _PROTOCOLS:
        part = parts[protocol]
        merged.state.update(part.state)
        merged.stretch.update(part.stretch)
        merged.congestion.update(part.congestion)
    return ComparisonResult(
        results=merged,
        topology_label=merged.topology_name,
        scale_label=scale.label,
    )


run = scenario(
    "fig04-gnm-comparison",
    title="Fig. 4: state/stretch/congestion, five protocols on G(n,m)",
    family="gnm",
    protocols=_PROTOCOLS,
    metrics=("state", "stretch", "congestion"),
    workload="converged-state comparison, shared sampled workloads",
    aliases=("fig04",),
    tags=("figure",),
    shards=_PROTOCOLS,
    shard_runner=run_protocol_shard,
    shard_merge=merge_protocol_shards,
)


def format_report(result: ComparisonResult) -> str:
    """Render the three panels of Fig. 4."""
    parts = [
        header(
            "Fig. 4: Disco vs ND-Disco vs S4 vs VRR vs path vector "
            f"on {result.topology_label}",
            f"scale={result.scale_label}",
        ),
        "\n[state]",
        render_state_reports(result.results.state),
        "\n[stretch]",
        render_stretch_reports(result.results.stretch),
        "\n[congestion]",
        render_congestion_reports(result.results.congestion),
    ]
    return "\n".join(parts)
