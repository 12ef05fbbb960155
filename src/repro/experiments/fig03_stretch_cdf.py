"""Fig. 3 -- stretch CDFs on the three large topologies.

"Fig. 3 shows the distribution of stretch in S4, Disco, and NDDisco. ... In
the geometric random graph [which] includes link latencies ... S4 experiences
worst-case stretch of 72 while Disco's highest stretch is just over 2."
(§5.2)

We reproduce the Disco-First / Disco-Later / S4-First / S4-Later CDFs over
sampled source-destination pairs on the geometric, AS-level-like, and
router-level-like topologies.  The shape to verify: S4's first-packet stretch
(which includes the location-service detour) has a long tail, especially on
the latency-annotated geometric graph, while Disco's first-packet stretch
stays small; later-packet stretch is low for both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header, render_stretch_reports
from repro.experiments.workloads import (
    as_level_topology,
    large_geometric,
    real_topology,
    router_level_topology,
)
from repro.metrics.stretch import StretchReport
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import StaticSimulation

__all__ = ["StretchCdfResult", "run", "format_report"]

_PROTOCOLS = ("disco", "s4")

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
class StretchCdfResult:
    """Stretch reports per protocol for each topology panel."""

    geometric: dict[str, StretchReport]
    as_level: dict[str, StretchReport]
    router_level: dict[str, StretchReport]
    scale_label: str
    #: Present only when the run ingested a real dataset
    #: (``--topology-file``); None otherwise.
    real: dict[str, StretchReport] | None = None

    def panels(self) -> dict[str, dict[str, StretchReport]]:
        """The panels keyed by topology label."""
        panels = {
            "geometric": self.geometric,
            "as-level": self.as_level,
            "router-level": self.router_level,
        }
        if self.real is not None:
            panels["real"] = self.real
        return panels


def _run_panel(scale: ExperimentScale, label: str) -> dict[str, StretchReport]:
    """One topology panel -- the scenario engine's shard unit."""
    topology = _PANELS[label](scale)
    simulation = StaticSimulation(topology, _PROTOCOLS, seed=scale.seed)
    results = simulation.run(
        measure_state_flag=False,
        measure_stretch_flag=True,
        pair_sample=scale.pair_sample,
    )
    return results.stretch


def _merge_panels(
    scale: ExperimentScale, panels: dict[str, dict[str, StretchReport]]
) -> StretchCdfResult:
    return StretchCdfResult(
        geometric=panels["geometric"],
        as_level=panels["as_level"],
        router_level=panels["router_level"],
        scale_label=scale.label,
        real=panels.get("real"),
    )


run = scenario(
    "fig03-stretch-cdf",
    title="Fig. 3: path-stretch CDFs (Disco vs S4, first/later packets)",
    family=("geometric", "as-level", "router-level"),
    protocols=_PROTOCOLS,
    metrics=("stretch",),
    workload="sampled source-destination pairs per topology panel",
    aliases=("fig03",),
    tags=("figure", "quick"),
    shards=_shard_keys,
    shard_runner=_run_panel,
    shard_merge=_merge_panels,
)


def format_report(result: StretchCdfResult) -> str:
    """Render the three panels of Fig. 3."""
    parts = [
        header(
            "Fig. 3: path-stretch CDFs (Disco vs S4, first and later packets)",
            f"scale={result.scale_label}",
        )
    ]
    for label, reports in result.panels().items():
        parts.append(f"\n--- {label} topology ---")
        parts.append(render_stretch_reports(reports))
    return "\n".join(parts)
