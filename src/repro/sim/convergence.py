"""High-level convergence runs for every protocol (Fig. 8).

Each ``simulate_*_convergence`` function wires up one agent per node, runs the
event loop until the control plane quiesces, and returns a
:class:`ConvergenceReport` with per-node message and entry counts plus (when
useful) the converged routing tables -- the latter feed the §5.2
static-vs-dynamic accuracy experiment.

Disco's report adds the pieces beyond route learning that the paper's Fig. 8
accounts for: the landmark-registration messages (each node inserting its
address into the resolution database), the overlay finger lookups, and the
address announcements disseminated over the overlay (1 or 3 fingers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dissemination import AddressDissemination
from repro.core.landmarks import select_landmarks
from repro.core.overlay import DisseminationOverlay
from repro.core.sloppy_groups import SloppyGrouping
from repro.core.vicinity import vicinity_size
from repro.graphs.csr import tree_path
from repro.graphs.topology import Topology
from repro.naming.consistent_hash import VNodeRing
from repro.naming.names import name_for_node
from repro.sim.agents.pathvector_agent import (
    AcceptAllPolicy,
    ClusterPolicy,
    LandmarkVicinityPolicy,
    PathVectorAgent,
)
from repro.sim.network import Network
from repro.sim.simulator import Simulator

__all__ = [
    "ConvergenceReport",
    "simulate_path_vector_convergence",
    "simulate_nddisco_convergence",
    "simulate_s4_convergence",
    "simulate_disco_convergence",
]

_MAX_EVENTS_PER_NODE = 200_000


@dataclass
class ConvergenceReport:
    """Outcome of one convergence simulation.

    Attributes
    ----------
    protocol:
        Display name of the simulated protocol.
    num_nodes:
        Network size.
    messages_per_node, entries_per_node:
        Mean control messages / route entries sent per node until
        convergence.  Entries are the Fig. 8 unit (one per advertised
        destination).
    total_messages, total_entries:
        Network-wide totals.
    converged_time:
        Virtual time at which the event queue drained.
    events_processed:
        Number of simulator events executed.
    tables:
        Optional converged routing tables: per node, a mapping destination ->
        (cost, path) for the routes the node installed.
    extra:
        Protocol-specific additions (e.g. Disco's overlay dissemination
        statistics).
    """

    protocol: str
    num_nodes: int
    messages_per_node: float
    entries_per_node: float
    total_messages: int
    total_entries: int
    converged_time: float
    events_processed: int
    tables: dict[int, dict[int, tuple[float, tuple[int, ...]]]] | None = None
    extra: dict[str, float] = field(default_factory=dict)


def _run_path_vector_family(
    topology: Topology,
    protocol_name: str,
    policy_factory,
    landmarks: set[int],
    *,
    keep_tables: bool,
) -> ConvergenceReport:
    """Common driver: one PathVectorAgent per node with the given policy."""
    simulator = Simulator()
    network = Network(topology, simulator)
    agents: list[PathVectorAgent] = []
    for node in topology.nodes():
        agent = PathVectorAgent(
            node,
            network,
            policy_factory(),
            landmarks=landmarks,
        )
        agents.append(agent)
    network.start()
    max_events = _MAX_EVENTS_PER_NODE * max(1, topology.num_nodes)
    converged_time = simulator.run(max_events=max_events)
    if simulator.pending_events:
        raise RuntimeError(
            f"{protocol_name} convergence did not complete within "
            f"{max_events} events; the protocol appears to be oscillating"
        )
    tables = None
    if keep_tables:
        tables = {
            agent.node: {
                entry.destination: (entry.cost, entry.path)
                for entry in agent.routes().values()
            }
            for agent in agents
        }
    return ConvergenceReport(
        protocol=protocol_name,
        num_nodes=topology.num_nodes,
        messages_per_node=network.messages_per_node(),
        entries_per_node=network.entries_per_node(),
        total_messages=network.total_messages(),
        total_entries=network.total_entries(),
        converged_time=converged_time,
        events_processed=simulator.events_processed,
        tables=tables,
    )


def simulate_path_vector_convergence(
    topology: Topology, *, keep_tables: bool = False
) -> ConvergenceReport:
    """Plain path vector: every node learns a route to every destination."""
    return _run_path_vector_family(
        topology,
        "Path-Vector",
        AcceptAllPolicy,
        landmarks=set(),
        keep_tables=keep_tables,
    )


def simulate_nddisco_convergence(
    topology: Topology,
    *,
    seed: int = 0,
    vicinity_scale: float = 1.0,
    landmarks: set[int] | None = None,
    keep_tables: bool = False,
) -> ConvergenceReport:
    """NDDisco route learning: landmarks plus capacity-bounded vicinities."""
    n = topology.num_nodes
    landmark_set = (
        set(landmarks) if landmarks is not None else select_landmarks(n, seed=seed)
    )
    capacity = vicinity_size(n, scale=vicinity_scale)
    report = _run_path_vector_family(
        topology,
        "ND-Disco",
        lambda: LandmarkVicinityPolicy(landmark_set, capacity),
        landmarks=landmark_set,
        keep_tables=keep_tables,
    )
    report.extra["num_landmarks"] = float(len(landmark_set))
    report.extra["vicinity_capacity"] = float(capacity)
    return report


def simulate_s4_convergence(
    topology: Topology,
    *,
    seed: int = 0,
    landmarks: set[int] | None = None,
    keep_tables: bool = False,
) -> ConvergenceReport:
    """S4 route learning: landmarks plus Thorup-Zwick cluster acceptance."""
    n = topology.num_nodes
    landmark_set = (
        set(landmarks) if landmarks is not None else select_landmarks(n, seed=seed)
    )
    report = _run_path_vector_family(
        topology,
        "S4",
        lambda: ClusterPolicy(landmark_set),
        landmarks=landmark_set,
        keep_tables=keep_tables,
    )
    report.extra["num_landmarks"] = float(len(landmark_set))
    return report


def simulate_disco_convergence(
    topology: Topology,
    *,
    seed: int = 0,
    vicinity_scale: float = 1.0,
    num_fingers: int = 1,
    landmarks: set[int] | None = None,
    keep_tables: bool = False,
) -> ConvergenceReport:
    """Disco: NDDisco route learning plus name-database construction.

    On top of NDDisco's messaging this accounts for:

    * one registration message per node toward the resolution database's home
      landmark (charged as the physical hop count of that path, since each
      hop is a forwarded packet);
    * ``num_fingers`` lookup request/response pairs per node, charged
      similarly via the home landmark of the drawn hash value;
    * the address announcements disseminated over the overlay (each overlay
      message is charged as one message/entry, mirroring the paper's
      treatment of overlay connections as single logical links).
    """
    n = topology.num_nodes
    landmark_set = (
        set(landmarks) if landmarks is not None else select_landmarks(n, seed=seed)
    )
    report = simulate_nddisco_convergence(
        topology,
        seed=seed,
        vicinity_scale=vicinity_scale,
        landmarks=landmark_set,
        keep_tables=keep_tables,
    )
    report.protocol = f"Disco-{num_fingers}-Finger"

    names = [name_for_node(v) for v in range(n)]
    grouping = SloppyGrouping(names)
    overlay = DisseminationOverlay(grouping, num_fingers=num_fingers, seed=seed)
    dissemination = AddressDissemination(overlay)
    overlay_report = dissemination.run()

    # Registration + finger lookups toward landmarks, charged in physical
    # hops: the node's depth in its home landmark's shortest-path tree (at
    # least one message, also for the landmark itself or a node off the tree).
    ring = VNodeRing(landmark_set)
    csr = topology.csr()
    parent_rows = {
        landmark: csr.spt_rows(landmark)[1] for landmark in sorted(landmark_set)
    }
    registration_messages = 0
    for node in range(n):
        home = ring.successor(names[node].hash_value)
        try:
            hops = len(tree_path(parent_rows[home], home, node)) - 1
        except ValueError:
            hops = 0
        registration_messages += max(1, hops)
    # A lookup is a request to the landmark owning the drawn value and a
    # response back: two traversals of the node-to-landmark path per finger.
    lookup_messages = 2 * num_fingers * registration_messages

    overlay_messages = overlay_report.total_messages
    added_messages = registration_messages + lookup_messages + overlay_messages
    report.total_messages += added_messages
    report.total_entries += added_messages
    report.messages_per_node = report.total_messages / n
    report.entries_per_node = report.total_entries / n
    report.extra.update(
        {
            "overlay_messages": float(overlay_messages),
            "overlay_mean_hops": overlay_report.mean_hop_distance,
            "overlay_max_hops": float(overlay_report.max_hop_distance),
            "overlay_coverage": overlay_report.coverage,
            "registration_messages": float(registration_messages),
            "finger_lookup_messages": float(lookup_messages),
            "num_fingers": float(num_fingers),
        }
    )
    return report
