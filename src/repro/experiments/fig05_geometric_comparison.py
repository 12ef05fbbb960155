"""Fig. 5 -- state, stretch, and congestion on a geometric random graph.

Same five-protocol comparison as Fig. 4 but on the latency-annotated
geometric random graph, where the stretch differences are starkest: "The
maximum stretch values seen for the first packets in the geometric random
graph are 2.4 for Disco, 30 for S4, and 39 for VRR" (§5.2).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentScale
from repro.experiments.fig04_gnm_comparison import (
    ComparisonResult,
    merge_protocol_shards,
    run_protocol_shard,
)
from repro.experiments.reporting import (
    header,
    render_congestion_reports,
    render_state_reports,
    render_stretch_reports,
)
from repro.experiments.workloads import comparison_geometric
from repro.scenarios.spec import scenario

__all__ = ["run", "format_report"]

_PROTOCOLS = ("disco", "nd-disco", "s4", "vrr", "path-vector")


def _run_shard(scale: ExperimentScale, protocol: str):
    """Fig. 4's protocol shard, pointed at the geometric topology."""
    return run_protocol_shard(
        scale, protocol, topology_builder=comparison_geometric
    )


run = scenario(
    "fig05-geometric-comparison",
    title="Fig. 5: state/stretch/congestion, five protocols on geometric "
    "latencies",
    family="geometric",
    protocols=_PROTOCOLS,
    metrics=("state", "stretch", "congestion"),
    workload="converged-state comparison, shared sampled workloads",
    aliases=("fig05",),
    tags=("figure",),
    shards=_PROTOCOLS,
    shard_runner=_run_shard,
    shard_merge=merge_protocol_shards,
)


def format_report(result: ComparisonResult) -> str:
    """Render the three panels of Fig. 5."""
    parts = [
        header(
            "Fig. 5: Disco vs ND-Disco vs S4 vs VRR vs path vector "
            f"on {result.topology_label} (link latencies)",
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
