"""Extension experiment: incremental maintenance cost under churn.

The paper's Fig. 8 measures convergence from scratch and leaves "continuous
churn to future work" (§5.2).  This experiment provides that future-work
measurement for the converged-state model: it applies a sequence of
connectivity-preserving link failures/recoveries to the comparison G(n,m)
topology and, for each event, charges the incremental updates Disco needs
(address re-registrations, sloppy-group re-announcements, vicinity and
landmark route repairs), comparing the per-event cost against the cost of
reconverging from scratch.

The per-event bills come from the event-driven :class:`ChurnEngine`, which
maintains the converged substrate incrementally and charges the bill without
ever diffing full states.  The seed-era way -- rebuild a fully reconverged
:class:`NDDiscoRouting` per event and diff the two states -- is the oracle
under ``tests/oracles/``; the differential tests pin this scenario's bills
against it.

The scenario shards by churn *trial* and by *event-stream segment* within
a trial: each segment shard reconstructs its boundary topology by applying
the trial's event prefix and converges fresh state there (the state
handoff), so the bills are the same for any segmentation and any worker
count.  ``run(scale, num_events=, num_trials=)`` changes the workload
shape through the same shards.

The quantity of interest: the mean per-event incremental cost should be a
small fraction of full reconvergence, which is what makes the protocol
practical under dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.landmarks import select_landmarks
from repro.dynamics.engine import ChurnEngine
from repro.dynamics.maintenance import MaintenanceCost
from repro.dynamics.stream import apply_edge_event, generate_churn_workload
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import header
from repro.experiments.workloads import sweep_gnm
from repro.graphs.topology import TopologyBuilder
from repro.sim.convergence import simulate_nddisco_convergence
from repro.scenarios.spec import scenario
from repro.utils.formatting import format_table

__all__ = ["ChurnCostResult", "run", "format_report"]

#: Default workload shape: trials x events, segments per trial for sharding.
DEFAULT_NUM_EVENTS = 6
DEFAULT_NUM_TRIALS = 1
SEGMENTS_PER_TRIAL = 2


@dataclass(frozen=True)
class ChurnCostResult:
    """Per-event incremental costs vs. the full-reconvergence baseline."""

    num_nodes: int
    events: int
    per_event: tuple[MaintenanceCost, ...]
    full_reconvergence_entries: float
    scale_label: str
    trials: int = 1

    @property
    def mean_incremental_entries(self) -> float:
        """Mean incremental updates per churn event."""
        if not self.per_event:
            return 0.0
        return sum(c.total_incremental_entries for c in self.per_event) / len(
            self.per_event
        )

    @property
    def mean_addresses_changed(self) -> float:
        """Mean number of addresses invalidated per event."""
        if not self.per_event:
            return 0.0
        return sum(c.addresses_changed for c in self.per_event) / len(self.per_event)

    @property
    def incremental_fraction(self) -> float:
        """Mean per-event cost as a fraction of full reconvergence."""
        if self.full_reconvergence_entries == 0:
            return 0.0
        return self.mean_incremental_entries / self.full_reconvergence_entries


def _scenario_nodes(scale: ExperimentScale) -> int:
    # The churn experiment converges a full message-level baseline, so it
    # runs on a moderately sized topology regardless of the global scale.
    return min(scale.comparison_nodes, 256)


def _trial_seed(scale: ExperimentScale, trial: int) -> int:
    # Trial 0 keeps the seed-era workload seed (scale.seed + 17) exactly.
    return scale.seed + 17 + 101 * trial


def _segment_bounds(num_events: int, segment: int, segments: int) -> tuple[int, int]:
    """Event range [lo, hi) of one segment (near-even contiguous split)."""
    base = num_events // segments
    extra = num_events % segments
    lo = segment * base + min(segment, extra)
    hi = lo + base + (1 if segment < extra else 0)
    return lo, hi


def _segment_costs(
    scale: ExperimentScale,
    trial: int,
    segment: int,
    *,
    num_events: int,
    segments: int,
) -> list[MaintenanceCost]:
    """One segment's per-event bills, with state handoff at the boundary.

    The boundary topology is the trial prefix applied to the base topology;
    converged state there is a pure function of (topology, seed, landmark
    set), so a segment shard reconstructs exactly the state the previous
    segment left behind -- byte-identical for any sharding.
    """
    num_nodes = _scenario_nodes(scale)
    topology = sweep_gnm(num_nodes, scale.seed)
    events = generate_churn_workload(
        topology, num_events=num_events, seed=_trial_seed(scale, trial)
    )
    lo, hi = _segment_bounds(num_events, segment, segments)
    boundary = TopologyBuilder.from_topology(topology)
    for event in events[:lo]:
        apply_edge_event(boundary, event)
    # The landmark set is a pure function of (n, seed) -- every shard
    # derives the same set without shipping state.
    landmarks = select_landmarks(num_nodes, seed=scale.seed)
    engine = ChurnEngine(
        boundary.freeze(), seed=scale.seed, landmarks=landmarks
    )
    return [report.cost for report in engine.run(events[lo:hi])]


def _shard_keys(
    scale: ExperimentScale,
    *,
    num_events: int = DEFAULT_NUM_EVENTS,
    num_trials: int = DEFAULT_NUM_TRIALS,
) -> tuple[str, ...]:
    return ("full",) + tuple(
        f"t{trial}s{segment}"
        for trial in range(num_trials)
        for segment in range(SEGMENTS_PER_TRIAL)
    )


def _run_shard(
    scale: ExperimentScale,
    key: str,
    *,
    num_events: int = DEFAULT_NUM_EVENTS,
    num_trials: int = DEFAULT_NUM_TRIALS,
):
    if key == "full":
        num_nodes = _scenario_nodes(scale)
        topology = sweep_gnm(num_nodes, scale.seed)
        landmarks = select_landmarks(num_nodes, seed=scale.seed)
        full = simulate_nddisco_convergence(
            topology, seed=scale.seed, landmarks=landmarks
        )
        return {"full_entries": full.total_entries}
    trial_part, segment_part = key[1:].split("s")
    costs = _segment_costs(
        scale,
        int(trial_part),
        int(segment_part),
        num_events=num_events,
        segments=SEGMENTS_PER_TRIAL,
    )
    return {"costs": costs}


def _merge_shards(
    scale: ExperimentScale,
    parts: dict,
    *,
    num_events: int = DEFAULT_NUM_EVENTS,
    num_trials: int = DEFAULT_NUM_TRIALS,
) -> ChurnCostResult:
    per_event: list[MaintenanceCost] = []
    for trial in range(num_trials):
        for segment in range(SEGMENTS_PER_TRIAL):
            per_event.extend(parts[f"t{trial}s{segment}"]["costs"])
    return ChurnCostResult(
        num_nodes=_scenario_nodes(scale),
        events=len(per_event),
        per_event=tuple(per_event),
        full_reconvergence_entries=parts["full"]["full_entries"],
        scale_label=scale.label,
        trials=num_trials,
    )


#: ``run(scale, num_events=, num_trials=)`` passes the two keywords to the
#: three functions above; the engine runs the defaults.
run = scenario(
    "churn-cost",
    title="Extension: incremental maintenance cost under link churn",
    family="gnm",
    protocols=("nd-disco",),
    metrics=("maintenance",),
    workload="connectivity-preserving edge failures/recoveries",
    aliases=("churn",),
    tags=("study", "quick"),
    shards=_shard_keys,
    shard_runner=_run_shard,
    shard_merge=_merge_shards,
)


def format_report(result: ChurnCostResult) -> str:
    """Render the per-event incremental costs and the reconvergence comparison."""
    rows = []
    for index, cost in enumerate(result.per_event):
        rows.append(
            [
                index,
                cost.addresses_changed,
                cost.vicinity_entries_changed,
                cost.landmark_entries_changed,
                cost.dissemination_messages,
                cost.total_incremental_entries,
            ]
        )
    table = format_table(
        [
            "event",
            "addresses changed",
            "vicinity entries",
            "landmark entries",
            "dissemination msgs",
            "total incremental",
        ],
        rows,
        float_format="{:.0f}",
    )
    summary = (
        f"mean incremental updates per event: {result.mean_incremental_entries:.0f} "
        f"({result.incremental_fraction * 100.0:.2f}% of the "
        f"{result.full_reconvergence_entries:.0f} entries full reconvergence costs)"
    )
    return "\n".join(
        [
            header(
                f"Churn maintenance cost on a {result.num_nodes}-node G(n,m) graph "
                "(extension of Fig. 8)",
                f"scale={result.scale_label}",
            ),
            table,
            summary,
        ]
    )
