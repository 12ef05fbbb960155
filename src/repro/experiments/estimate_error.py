"""§5.2 -- robustness to errors in the estimate of n.

"Here, we inject random errors of up to 60% in this estimation.  With 60%
random error, across 5 runs on the 1024-node random graph, only one node
failed to find in its vicinity a node in only one of the sloppy groups, and
hence failed to reach all destinations in that group.  With 40% random error,
all nodes were able to reach all nodes and mean stretch increased marginally
by 0.6% from 1.253 to 1.261."

For each error level the experiment perturbs every node's estimate of n,
rebuilds the sloppy grouping (each node derives its own prefix length k from
its own estimate), and measures (a) reachability -- for every sampled pair,
does the source's vicinity contain a node that stores the destination's
address (or does the source know it directly / hold a direct route)? -- and
(b) mean first-packet stretch relative to the zero-error run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.estimation.error_injection import inject_estimate_error
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import header
from repro.experiments.workloads import comparison_gnm
from repro.graphs.sampling import sample_pairs
from repro.metrics.batch import route_pairs_batch
from repro.metrics.stretch import stretch_of_route
from repro.scenarios.spec import scenario
from repro.utils.distributions import summarize
from repro.utils.formatting import format_table

__all__ = ["EstimateErrorResult", "run", "format_report"]


@dataclass(frozen=True)
class EstimateErrorResult:
    """Per-error-level reachability and stretch."""

    error_levels: tuple[float, ...]
    mean_first_stretch: dict[float, float]
    resolution_fallback_fraction: dict[float, float]
    unreachable_fraction: dict[float, float]
    num_nodes: int
    scale_label: str

    def stretch_increase(self, level: float) -> float:
        """Relative mean-stretch increase of ``level`` vs the zero-error run."""
        base = self.mean_first_stretch[0.0]
        return (self.mean_first_stretch[level] - base) / base


@scenario(
    "estimate-error",
    title="§5.2: robustness to errors in the estimate of n",
    family="gnm",
    protocols=("disco",),
    metrics=("stretch", "reachability"),
    workload="per-node n-estimate error injection",
    aliases=("estimate",),
    tags=("study", "quick"),
)
def run(
    scale: ExperimentScale | None = None,
    *,
    error_levels: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6),
) -> EstimateErrorResult:
    """Measure Disco's behaviour under per-node n-estimate error."""
    scale = scale or default_scale()
    if 0.0 not in error_levels:
        error_levels = (0.0,) + tuple(error_levels)
    topology = comparison_gnm(scale)
    n = topology.num_nodes
    pairs = sample_pairs(topology, scale.pair_sample, seed=scale.seed + 11)
    distances = topology.csr().batched_target_distances(pairs)
    nddisco = NDDiscoRouting(topology, seed=scale.seed)

    mean_stretch: dict[float, float] = {}
    fallback_fraction: dict[float, float] = {}
    unreachable_fraction: dict[float, float] = {}
    for level in error_levels:
        estimates = (
            None
            if level == 0.0
            else inject_estimate_error(
                n, max_error=level, seed=scale.seed + int(level * 100)
            )
        )
        disco = DiscoRouting(
            topology, seed=scale.seed, nddisco=nddisco, estimated_n=estimates
        )
        # One routing pass serves both measurements.
        firsts = [first for first, _ in route_pairs_batch(disco, pairs)]
        mean_stretch[level] = summarize(
            stretch_of_route(topology, first, distances[pair])
            for pair, first in zip(pairs, firsts)
        ).mean

        # Reachability through the sloppy-group machinery alone: count pairs
        # whose first packet had to fall back to the landmark resolution
        # database, and pairs that could not be served at all (never happens
        # because the fallback exists, but tracked for completeness).
        fallbacks = sum(
            first.mechanism == "resolution-fallback" for first in firsts
        )
        unreachable = sum(not first.delivered for first in firsts)
        fallback_fraction[level] = fallbacks / len(pairs)
        unreachable_fraction[level] = unreachable / len(pairs)
    return EstimateErrorResult(
        error_levels=tuple(error_levels),
        mean_first_stretch=mean_stretch,
        resolution_fallback_fraction=fallback_fraction,
        unreachable_fraction=unreachable_fraction,
        num_nodes=n,
        scale_label=scale.label,
    )


def format_report(result: EstimateErrorResult) -> str:
    """Render the error-injection table (paper: +0.6% stretch at 40% error)."""
    rows = []
    for level in result.error_levels:
        rows.append(
            [
                f"{level * 100:.0f}%",
                result.mean_first_stretch[level],
                result.stretch_increase(level) * 100.0,
                result.resolution_fallback_fraction[level] * 100.0,
                result.unreachable_fraction[level] * 100.0,
            ]
        )
    table = format_table(
        [
            "estimate error",
            "mean first stretch",
            "stretch increase %",
            "group-miss fallback %",
            "unreachable %",
        ],
        rows,
    )
    return "\n".join(
        [
            header(
                f"n-estimate error injection on a {result.num_nodes}-node G(n,m) graph",
                f"scale={result.scale_label}",
            ),
            table,
        ]
    )
