"""Fig. 2 -- per-node state CDFs on the three large topologies.

"Fig. 2 shows S4 does well on the random graphs, but is extremely unbalanced
on the Internet topologies. ... In contrast, Disco and NDDisco have very
balanced distributions of state in all cases."  (§5.2)

The paper plots the CDF over nodes of routing-table entries for Disco,
NDDisco, and S4 on a 16,384-node geometric random graph, the AS-level
Internet map, and the router-level Internet map.  We reproduce the same
three-panel structure on the scaled topologies (the Internet maps replaced by
the synthetic Internet-like generators, per DESIGN.md §5); the headline shape
to verify is that S4's *maximum* state far exceeds its mean on the
Internet-like graphs while Disco/NDDisco stay tightly concentrated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header, render_state_reports
from repro.experiments.workloads import (
    as_level_topology,
    large_geometric,
    real_topology,
    router_level_topology,
)
from repro.metrics.state import StateReport
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import StaticSimulation

__all__ = ["StateCdfResult", "run", "format_report"]

_PROTOCOLS = ("disco", "nd-disco", "s4")

_PANELS = {
    "geometric": large_geometric,
    "as_level": as_level_topology,
    "router_level": router_level_topology,
    # "real" joins dynamically when the scale names an ingested dataset.
    "real": real_topology,
}

_SYNTHETIC = ("geometric", "as_level", "router_level")


def _shard_keys(scale: ExperimentScale) -> tuple[str, ...]:
    """The three synthetic panels, plus "real" when a dataset is named."""
    if scale.topology_file is not None:
        return _SYNTHETIC + ("real",)
    return _SYNTHETIC


@dataclass(frozen=True)
class StateCdfResult:
    """State reports per protocol for each topology panel."""

    geometric: dict[str, StateReport]
    as_level: dict[str, StateReport]
    router_level: dict[str, StateReport]
    scale_label: str
    #: Present only when the run ingested a real dataset
    #: (``--topology-file``); None otherwise.
    real: dict[str, StateReport] | None = None

    def panels(self) -> dict[str, dict[str, StateReport]]:
        """The panels keyed by topology label."""
        panels = {
            "geometric": self.geometric,
            "as-level": self.as_level,
            "router-level": self.router_level,
        }
        if self.real is not None:
            panels["real"] = self.real
        return panels

    def imbalance(self, panel: str, protocol: str) -> float:
        """max/mean state ratio -- the quantity that exposes S4's imbalance."""
        report = self.panels()[panel][protocol]
        summary = report.entry_summary
        return summary.maximum / max(summary.mean, 1e-9)


def _run_panel(scale: ExperimentScale, label: str) -> dict[str, StateReport]:
    """One topology panel -- the scenario engine's shard unit."""
    topology = _PANELS[label](scale)
    simulation = StaticSimulation(topology, _PROTOCOLS, seed=scale.seed)
    results = simulation.run(
        measure_state_flag=True,
        measure_stretch_flag=False,
        node_sample=scale.node_sample,
    )
    return results.state


def _merge_panels(
    scale: ExperimentScale, panels: dict[str, dict[str, StateReport]]
) -> StateCdfResult:
    return StateCdfResult(
        geometric=panels["geometric"],
        as_level=panels["as_level"],
        router_level=panels["router_level"],
        scale_label=scale.label,
        real=panels.get("real"),
    )


run = scenario(
    "fig02-state-cdf",
    title="Fig. 2: per-node state CDFs on the three large topologies",
    family=("geometric", "as-level", "router-level"),
    protocols=_PROTOCOLS,
    metrics=("state",),
    workload="converged-state CDF per topology panel",
    aliases=("fig02",),
    tags=("figure", "quick"),
    shards=_shard_keys,
    shard_runner=_run_panel,
    shard_merge=_merge_panels,
)


def format_report(result: StateCdfResult) -> str:
    """Render the three panels of Fig. 2."""
    parts = [
        header(
            "Fig. 2: per-node state CDFs (Disco, ND-Disco, S4)",
            f"scale={result.scale_label}; Internet maps replaced by synthetic "
            "Internet-like generators",
        )
    ]
    for label, reports in result.panels().items():
        parts.append(f"\n--- {label} topology ---")
        parts.append(render_state_reports(reports))
        ratios = ", ".join(
            f"{name}: {reports[name].entry_summary.maximum / max(reports[name].entry_summary.mean, 1e-9):.1f}x"
            for name in reports
        )
        parts.append(f"max/mean state imbalance -> {ratios}")
    return "\n".join(parts)
