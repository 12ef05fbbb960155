"""§5.2 -- accuracy of the static simulation.

"Our comparison of results from both the static simulator and the full
discrete event simulator shows that the static simulator achieves good
accuracy.  For instance, for the 1024-node random graph, the difference
between mean stretch as measured by the static simulator is within 0.9% for
Disco's later packets and 0.7% for S4's later packets."

This experiment runs NDDisco's route learning in the discrete-event simulator
(filtered path vector: landmarks plus capacity-bounded vicinities), converts
the converged per-node tables into vicinity tables, builds an NDDisco
instance *from those dynamically learned vicinities*, and compares its
later-packet stretch against the statically computed instance on the same
sampled pairs.  It also reports how much the dynamically learned vicinities
differ from the statically computed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.nddisco import NDDiscoRouting
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import NodeSearchTables
from repro.core.vicinity import compute_vicinities
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.reporting import header
from repro.graphs.generators import gnm_random_graph
from repro.graphs.sampling import sample_pairs
from repro.metrics.stretch import measure_stretch
from repro.scenarios.spec import scenario
from repro.sim.convergence import simulate_nddisco_convergence
from repro.utils.formatting import format_table

__all__ = ["StaticAccuracyResult", "run", "format_report"]


@dataclass(frozen=True)
class StaticAccuracyResult:
    """Static-vs-dynamic comparison on one topology."""

    num_nodes: int
    static_mean_later_stretch: float
    dynamic_mean_later_stretch: float
    vicinity_membership_agreement: float
    messages_per_node: float
    scale_label: str

    @property
    def relative_difference(self) -> float:
        """|dynamic - static| / static mean later-packet stretch."""
        if self.static_mean_later_stretch == 0:
            return 0.0
        return abs(
            self.dynamic_mean_later_stretch - self.static_mean_later_stretch
        ) / self.static_mean_later_stretch


def _tables_to_vicinities(
    topology,
    tables: dict[int, dict[int, tuple[float, tuple[int, ...]]]],
) -> NodeSearchTables:
    """Convert converged path-vector tables into vicinity rows.

    Every destination the node installed a route for becomes a member
    (landmark routes included -- the node legitimately holds them), and the
    intermediate hops of each learned path are folded in as well, since a
    path-vector table stores the full path.  Routes are processed in
    ascending cost order and each hop's distance/predecessor is recorded only
    once (from the cheapest covering route), which yields an acyclic
    predecessor structure suitable for path extraction.  The per-node dicts
    become slab rows once, here.
    """
    searches = []
    for node in topology.nodes():
        table = tables.get(node, {})
        distances: dict[int, float] = {node: 0.0}
        predecessors: dict[int, int] = {}
        entries = sorted(
            (
                (cost, destination, path)
                for destination, (cost, path) in table.items()
                if destination != node
            ),
            key=lambda item: (item[0], item[1]),
        )
        for _, _, path in entries:
            running = 0.0
            for previous, hop in zip(path, path[1:]):
                running += topology.edge_weight(previous, hop)
                if hop not in distances:
                    distances[hop] = running
                    predecessors[hop] = previous
        searches.append((distances, predecessors))
    return NodeSearchTables.from_searches(searches)


def _members(vicinities: NodeSearchTables, node: int) -> set[int]:
    """The member ids of ``node``'s row (the owner included)."""
    return set(vicinities.row(node)[0].tolist())


@scenario(
    "static-accuracy",
    title="§5.2: accuracy of the static simulation vs the message "
    "simulator",
    family="gnm",
    protocols=("nd-disco",),
    metrics=("state", "vicinity-agreement"),
    workload="converged-state diff against event-driven convergence",
    aliases=("accuracy",),
    tags=("study", "quick"),
)
def run(scale: ExperimentScale | None = None) -> StaticAccuracyResult:
    """Compare static and dynamically converged NDDisco on a G(n,m) graph."""
    scale = scale or default_scale()
    n = min(scale.comparison_nodes, 256)
    topology = gnm_random_graph(n, seed=scale.seed + 5, average_degree=8.0)
    pairs = sample_pairs(topology, min(scale.pair_sample, 300), seed=scale.seed + 6)

    static_nddisco = NDDiscoRouting(topology, seed=scale.seed)
    static_report = measure_stretch(static_nddisco, pairs=pairs)

    dynamic = simulate_nddisco_convergence(
        topology, seed=scale.seed, landmarks=static_nddisco.landmarks, keep_tables=True
    )
    assert dynamic.tables is not None
    dynamic_vicinities = _tables_to_vicinities(topology, dynamic.tables)
    # The same landmark substrate with the learned vicinity rows in place
    # of the builder's.
    tables = build_substrate_tables(
        topology,
        static_nddisco.landmarks,
        include_vicinity=False,
    )
    tables.vicinity = dynamic_vicinities
    dynamic_nddisco = NDDiscoRouting.from_tables(
        topology, tables, static_nddisco.names
    )
    dynamic_report = measure_stretch(dynamic_nddisco, pairs=pairs)

    # Vicinity agreement: fraction of statically computed vicinity members
    # that the dynamic protocol also learned routes for.
    static_vicinities = compute_vicinities(topology)
    total = 0
    agreed = 0
    for node in range(n):
        static_members = _members(static_vicinities, node) - {node}
        dynamic_members = _members(dynamic_vicinities, node) - {node}
        total += len(static_members)
        agreed += len(static_members & dynamic_members)
    agreement = agreed / total if total else 1.0

    return StaticAccuracyResult(
        num_nodes=n,
        static_mean_later_stretch=static_report.later_summary.mean,
        dynamic_mean_later_stretch=dynamic_report.later_summary.mean,
        vicinity_membership_agreement=agreement,
        messages_per_node=dynamic.messages_per_node,
        scale_label=scale.label,
    )


def format_report(result: StaticAccuracyResult) -> str:
    """Render the static-vs-dynamic accuracy comparison."""
    table = format_table(
        ["quantity", "value"],
        [
            ["nodes", result.num_nodes],
            ["static mean later-packet stretch", result.static_mean_later_stretch],
            ["dynamic mean later-packet stretch", result.dynamic_mean_later_stretch],
            ["relative difference", result.relative_difference],
            ["vicinity membership agreement", result.vicinity_membership_agreement],
            ["control messages per node", result.messages_per_node],
        ],
    )
    note = (
        "Paper: static-vs-dynamic mean-stretch difference within 0.9% for "
        "Disco later packets and 0.7% for S4 later packets."
    )
    return "\n".join(
        [
            header(
                "Static-simulation accuracy (static vs discrete-event NDDisco)",
                f"scale={result.scale_label}",
            ),
            table,
            note,
        ]
    )
