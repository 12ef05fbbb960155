"""Fig. 10 -- congestion tail on the AS-level topology.

"On the AS-level Internet topology, a small fraction (0.05%) of edges face
significantly more congestion than shortest-path routing." (§5.2, Fig. 10)

The workload is the standard one-flow-per-node congestion workload; the
comparison is Disco vs S4 vs shortest-path (path vector) routing, and the
quantity of interest is the extreme tail of the paths-per-edge distribution:
Disco concentrates somewhat more load on a very small fraction of edges
(those adjacent to landmarks) than shortest-path routing does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import header, render_congestion_reports
from repro.experiments.workloads import as_level_topology, real_topology
from repro.metrics.congestion import CongestionReport
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import StaticSimulation

__all__ = ["CongestionTailResult", "run", "format_report"]

_PROTOCOLS = ("disco", "s4", "path-vector")


@dataclass(frozen=True)
class CongestionTailResult:
    """Per-protocol congestion reports on the AS-level-like topology."""

    reports: dict[str, CongestionReport]
    topology_label: str
    scale_label: str
    #: Present only when the run ingested a real dataset
    #: (``--topology-file``); None otherwise.
    real_reports: dict[str, CongestionReport] | None = None
    real_topology_label: str | None = None

    def tail_excess_fraction(self, protocol: str, baseline: str = "Path-Vector") -> float:
        """Fraction of edges where ``protocol`` exceeds the baseline's maximum."""
        base_max = self.reports[baseline].max_usage()
        report = self.reports[protocol]
        values = report.usage_values
        if not values:
            return 0.0
        return sum(1 for v in values if v > base_max) / len(values)


@scenario(
    "fig10-congestion-as",
    title="Fig. 10: congestion tail on the AS-level topology",
    family="as-level",
    protocols=_PROTOCOLS,
    metrics=("congestion",),
    workload="one flow per node",
    aliases=("fig10",),
    tags=("figure", "quick"),
)
def run(scale: ExperimentScale | None = None) -> CongestionTailResult:
    """Measure congestion for Disco, S4, and path vector on the AS-level graph."""
    scale = scale or default_scale()
    topology = as_level_topology(scale)
    simulation = StaticSimulation(topology, _PROTOCOLS, seed=scale.seed)
    results = simulation.run(
        measure_state_flag=False,
        measure_stretch_flag=False,
        measure_congestion_flag=True,
    )
    real_reports = None
    real_label = None
    if scale.topology_file is not None:
        real = real_topology(scale)
        real_results = StaticSimulation(real, _PROTOCOLS, seed=scale.seed).run(
            measure_state_flag=False,
            measure_stretch_flag=False,
            measure_congestion_flag=True,
        )
        real_reports = real_results.congestion
        real_label = real.name
    return CongestionTailResult(
        reports=results.congestion,
        topology_label=topology.name,
        scale_label=scale.label,
        real_reports=real_reports,
        real_topology_label=real_label,
    )


def format_report(result: CongestionTailResult) -> str:
    """Render the Fig. 10 congestion comparison with the tail-excess numbers."""
    parts = [
        header(
            f"Fig. 10: congestion tail on {result.topology_label}",
            f"scale={result.scale_label}",
        ),
        render_congestion_reports(result.reports),
    ]
    for protocol in result.reports:
        if protocol == "Path-Vector":
            continue
        fraction = result.tail_excess_fraction(protocol)
        parts.append(
            f"{protocol}: {fraction * 100.0:.3f}% of edges exceed the "
            "shortest-path maximum load"
        )
    if result.real_reports is not None:
        parts.append(
            f"\n--- real topology ({result.real_topology_label}) ---"
        )
        parts.append(render_congestion_reports(result.real_reports))
    return "\n".join(parts)
