"""Fig. 6 (table) -- effect of shortcutting heuristics on mean stretch.

"Fig. 6: Effect of shortcutting strategies: Mean stretch for different
shortcutting heuristics."  The paper reports mean first-packet stretch for
NDDisco/Disco under six heuristics on four topologies (AS-level,
router-level, geometric-16384, GNM-16384).  The expected ordering (which this
reproduction verifies): No Shortcutting is worst; To-Destination and the
forward/reverse selection each help; No Path Knowledge (their combination)
does better still; and the Path-Knowledge variants bring mean stretch very
close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header
from repro.experiments.workloads import (
    as_level_topology,
    comparison_gnm,
    large_geometric,
    router_level_topology,
)
from repro.graphs.sampling import sample_pairs
from repro.metrics.stretch import measure_stretch
from repro.scenarios.spec import scenario
from repro.utils.formatting import format_table

__all__ = ["ShortcuttingResult", "run", "format_report", "MODE_ORDER"]

MODE_ORDER: tuple[ShortcutMode, ...] = (
    ShortcutMode.NONE,
    ShortcutMode.TO_DESTINATION,
    ShortcutMode.SHORTER_REVERSE_FORWARD,
    ShortcutMode.NO_PATH_KNOWLEDGE,
    ShortcutMode.UP_DOWN_STREAM,
    ShortcutMode.PATH_KNOWLEDGE,
)

_MODE_LABELS = {
    ShortcutMode.NONE: "No Shortcutting",
    ShortcutMode.TO_DESTINATION: "To-Destination Shortcuts",
    ShortcutMode.SHORTER_REVERSE_FORWARD: "Shorter{ReversePath, ForwardPath}",
    ShortcutMode.NO_PATH_KNOWLEDGE: "No Path Knowledge",
    ShortcutMode.UP_DOWN_STREAM: "Up-Down Stream",
    ShortcutMode.PATH_KNOWLEDGE: "Using Path Knowledge",
}


@dataclass(frozen=True)
class ShortcuttingResult:
    """Mean first-packet stretch per (heuristic, topology)."""

    mean_stretch: dict[str, dict[str, float]]
    topology_order: tuple[str, ...]
    scale_label: str

    def column(self, topology: str) -> dict[str, float]:
        """The per-heuristic column for one topology."""
        return {mode: values[topology] for mode, values in self.mean_stretch.items()}


_TOPOLOGIES = {
    "AS-Level": as_level_topology,
    "Router-level": router_level_topology,
    "Geometric": large_geometric,
    "GNM": comparison_gnm,
}


def _run_column(scale: ExperimentScale, topology_label: str) -> dict[str, float]:
    """One topology's column of the table -- the engine's shard unit.

    The Disco instance is mutated per heuristic row (the shortcut mode is
    applied at routing time), so this build is deliberately *not* routed
    through the substrate cache: cached schemes are shared and must stay
    immutable.
    """
    topology = _TOPOLOGIES[topology_label](scale)
    pairs = sample_pairs(topology, scale.pair_sample, seed=scale.seed + 7)
    # Build the shared substrate once per topology; only the shortcut mode
    # differs across rows, and it is applied at routing time.
    nddisco = NDDiscoRouting(
        topology, seed=scale.seed, shortcut_mode=ShortcutMode.NONE
    )
    disco = DiscoRouting(topology, seed=scale.seed, nddisco=nddisco)
    column: dict[str, float] = {}
    for mode in MODE_ORDER:
        disco.shortcut_mode = mode
        report = measure_stretch(disco, pairs=pairs)
        column[_MODE_LABELS[mode]] = report.first_summary.mean
    return column


def _merge_columns(
    scale: ExperimentScale, columns: dict[str, dict[str, float]]
) -> ShortcuttingResult:
    mean_stretch: dict[str, dict[str, float]] = {
        _MODE_LABELS[mode]: {} for mode in MODE_ORDER
    }
    for topology_label in _TOPOLOGIES:
        for mode in MODE_ORDER:
            mean_stretch[_MODE_LABELS[mode]][topology_label] = columns[
                topology_label
            ][_MODE_LABELS[mode]]
    return ShortcuttingResult(
        mean_stretch=mean_stretch,
        topology_order=tuple(_TOPOLOGIES),
        scale_label=scale.label,
    )


run = scenario(
    "fig06-shortcutting",
    title="Fig. 6: shortcutting heuristics vs mean first-packet stretch",
    family=("as-level", "router-level", "geometric", "gnm"),
    protocols=("disco", "nd-disco"),
    metrics=("stretch",),
    workload="six heuristics x four topologies",
    aliases=("fig06", "shortcutting"),
    tags=("figure",),
    shards=tuple(_TOPOLOGIES),
    shard_runner=_run_column,
    shard_merge=_merge_columns,
)


def format_report(result: ShortcuttingResult) -> str:
    """Render the Fig. 6 table (heuristics x topologies)."""
    rows = []
    for mode in MODE_ORDER:
        label = _MODE_LABELS[mode]
        rows.append(
            [label] + [result.mean_stretch[label][t] for t in result.topology_order]
        )
    table = format_table(
        ["shortcutting heuristic"] + list(result.topology_order),
        rows,
    )
    return "\n".join(
        [
            header(
                "Fig. 6: mean first-packet stretch per shortcutting heuristic",
                f"scale={result.scale_label}",
            ),
            table,
        ]
    )
