"""Fig. 9 -- mean stretch and mean state vs network size.

"Fig. 9 shows how Disco, NDDisco and S4 scale with increasing number of
nodes n in geometric random graphs, showing mean stretch and mean state.
S4's first-packet stretch remains high, but for the rest of the curves, the
stretch is similarly low and close to 1.  Routing state grows as Õ(√n)."
(§5.2)

The sweep builds geometric random graphs of increasing size and records, for
Disco, NDDisco and S4: mean first-packet stretch, mean later-packet stretch,
and mean per-node state.  The shapes to verify: S4-First stays well above the
other stretch curves; all later-packet curves hug 1; state grows sublinearly
(the report includes the fitted growth exponent, which should be near 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header
from repro.experiments.workloads import sweep_geometric
from repro.scenarios.spec import scenario
from repro.staticsim.simulation import SimulationResults, StaticSimulation
from repro.utils.formatting import format_table

__all__ = ["ScalingResult", "run", "format_report"]

_PROTOCOLS = ("disco", "nd-disco", "s4")


@dataclass(frozen=True)
class ScalingResult:
    """Per-size mean stretch and mean state for each protocol."""

    sweep: tuple[int, ...]
    mean_first_stretch: dict[str, dict[int, float]]
    mean_later_stretch: dict[str, dict[int, float]]
    mean_state: dict[str, dict[int, float]]
    scale_label: str

    def state_growth_exponent(self, protocol: str) -> float:
        """Least-squares slope of log(state) vs log(n) (≈ 0.5 for Õ(√n))."""
        points = sorted(self.mean_state[protocol].items())
        if len(points) < 2:
            raise ValueError("need at least two sweep sizes to fit an exponent")
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(max(state, 1e-9)) for _, state in points]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        denominator = sum((x - mean_x) ** 2 for x in xs)
        return numerator / denominator


def _run_size(scale: ExperimentScale, key: str) -> SimulationResults:
    """Build and measure one swept size -- the engine's shard unit."""
    n = int(key)
    topology = sweep_geometric(n, scale.seed + n)
    simulation = StaticSimulation(topology, _PROTOCOLS, seed=scale.seed)
    return simulation.run(
        measure_state_flag=True,
        measure_stretch_flag=True,
        pair_sample=min(scale.pair_sample, 4 * n),
    )


def _merge_sizes(
    scale: ExperimentScale, parts: dict[str, SimulationResults]
) -> ScalingResult:
    sweep = scale.scaling_sweep
    first: dict[str, dict[int, float]] = {}
    later: dict[str, dict[int, float]] = {}
    state: dict[str, dict[int, float]] = {}
    for n in sweep:
        results = parts[str(n)]
        for name, report in results.stretch.items():
            first.setdefault(name, {})[n] = report.first_summary.mean
            later.setdefault(name, {})[n] = report.later_summary.mean
        for name, report in results.state.items():
            state.setdefault(name, {})[n] = report.entry_summary.mean
    return ScalingResult(
        sweep=sweep,
        mean_first_stretch=first,
        mean_later_stretch=later,
        mean_state=state,
        scale_label=scale.label,
    )


run = scenario(
    "fig09-scaling",
    title="Fig. 9: mean stretch and state vs network size (geometric sweep)",
    family="geometric",
    protocols=_PROTOCOLS,
    metrics=("stretch", "state"),
    workload="converged-state measurement per swept size",
    aliases=("fig09", "scaling"),
    tags=("figure", "quick"),
    shards=lambda scale: tuple(str(n) for n in scale.scaling_sweep),
    shard_runner=_run_size,
    shard_merge=_merge_sizes,
)


def format_report(result: ScalingResult) -> str:
    """Render the two panels of Fig. 9 (stretch and state vs n)."""
    stretch_rows = []
    for name in result.mean_first_stretch:
        stretch_rows.append(
            [f"{name} First"]
            + [result.mean_first_stretch[name][n] for n in result.sweep]
        )
        stretch_rows.append(
            [f"{name} Later"]
            + [result.mean_later_stretch[name][n] for n in result.sweep]
        )
    state_rows = []
    for name in result.mean_state:
        state_rows.append(
            [name]
            + [result.mean_state[name][n] for n in result.sweep]
            + [result.state_growth_exponent(name)]
        )
    parts = [
        header(
            "Fig. 9: scaling of mean stretch and mean state "
            "(geometric random graphs)",
            f"scale={result.scale_label}",
        ),
        "\n[mean stretch vs n]",
        format_table(
            ["curve \\ n"] + [str(n) for n in result.sweep],
            stretch_rows,
        ),
        "\n[mean state vs n]  (growth exponent ~0.5 means Õ(√n))",
        format_table(
            ["protocol \\ n"] + [str(n) for n in result.sweep] + ["exponent"],
            state_rows,
            float_format="{:.2f}",
        ),
    ]
    return "\n".join(parts)
