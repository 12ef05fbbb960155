"""The network fabric: delivers control messages and counts traffic.

The fabric connects per-node protocol agents over a
:class:`~repro.graphs.Topology`.  Sending a message to a physical neighbor
schedules its delivery after the link's latency (the edge weight) plus a
small per-hop processing delay; per-node counters track messages and logical
routing entries sent, which is what the convergence experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graphs.topology import Topology
from repro.sim.messages import Message
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.agents.base import Agent

__all__ = ["Network", "TrafficCounters"]


@dataclass
class TrafficCounters:
    """Per-node control-traffic counters."""

    messages_sent: int = 0
    entries_sent: int = 0
    messages_received: int = 0
    entries_received: int = 0


class Network:
    """Connects agents over a topology and delivers their messages.

    Parameters
    ----------
    topology:
        The physical network.
    simulator:
        The event scheduler messages are delivered through.
    processing_delay:
        Fixed per-message processing delay added to the link latency, which
        breaks ties and models non-zero forwarding cost.
    """

    def __init__(
        self,
        topology: Topology,
        simulator: Simulator,
        *,
        processing_delay: float = 0.01,
    ) -> None:
        if processing_delay < 0:
            raise ValueError("processing_delay must be >= 0")
        self._topology = topology
        self._simulator = simulator
        self._processing_delay = processing_delay
        self._agents: dict[int, "Agent"] = {}
        self._counters = [TrafficCounters() for _ in range(topology.num_nodes)]

    # -- wiring ------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The physical topology."""
        return self._topology

    @property
    def simulator(self) -> Simulator:
        """The event scheduler."""
        return self._simulator

    def attach(self, agent: "Agent") -> None:
        """Register ``agent`` as the protocol instance running on its node."""
        if agent.node in self._agents:
            raise ValueError(f"node {agent.node} already has an agent attached")
        self._agents[agent.node] = agent

    def agent(self, node: int) -> "Agent":
        """Return the agent running on ``node``."""
        return self._agents[node]

    def start(self) -> None:
        """Invoke every agent's ``start`` hook at time zero."""
        for node in sorted(self._agents):
            agent = self._agents[node]
            self._simulator.schedule_in(0.0, agent.start)

    # -- message delivery ----------------------------------------------------

    def send(self, message: Message) -> None:
        """Send ``message`` from its sender to an adjacent receiver."""
        sender, receiver = message.sender, message.receiver
        latency = self._topology.get_edge_weight(sender, receiver)
        if latency is None:
            raise ValueError(
                f"cannot send between non-adjacent nodes {sender} and {receiver}"
            )
        counters = self._counters[sender]
        counters.messages_sent += 1
        counters.entries_sent += message.size_entries

        def deliver() -> None:
            receiving = self._counters[receiver]
            receiving.messages_received += 1
            receiving.entries_received += message.size_entries
            self._agents[receiver].on_message(message)

        self._simulator.schedule_in(latency + self._processing_delay, deliver)

    # -- accounting -----------------------------------------------------------

    def counters(self, node: int) -> TrafficCounters:
        """Traffic counters for ``node``."""
        return self._counters[node]

    def total_messages(self) -> int:
        """Total control messages sent network-wide."""
        return sum(c.messages_sent for c in self._counters)

    def total_entries(self) -> int:
        """Total logical routing entries sent network-wide."""
        return sum(c.entries_sent for c in self._counters)

    def messages_per_node(self) -> float:
        """Mean control messages sent per node."""
        if not self._counters:
            return 0.0
        return self.total_messages() / len(self._counters)

    def entries_per_node(self) -> float:
        """Mean logical routing entries sent per node."""
        if not self._counters:
            return 0.0
        return self.total_entries() / len(self._counters)
