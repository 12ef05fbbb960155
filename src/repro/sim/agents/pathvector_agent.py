"""Path-vector agents with pluggable route-acceptance policies.

NDDisco learns its landmark and vicinity routes "via a single, standard path
vector routing protocol.  When learning paths, a route announcement is
accepted into v's routing table if and only if the route's destination is a
landmark or one of the Θ(√(n log n)) closest nodes currently advertised to
v.  The entire routing table is then exported to v's neighbors" (§4.2).

The same agent therefore models three protocols, differing only in their
acceptance policy:

* :class:`AcceptAllPolicy` -- plain path vector (the Fig. 8 baseline);
* :class:`LandmarkVicinityPolicy` -- NDDisco/Disco route learning (landmarks
  plus a capacity-bounded vicinity);
* :class:`ClusterPolicy` -- S4 route learning (landmarks plus the
  Thorup-Zwick cluster condition "closer to me than to your own landmark").

Messaging model: route changes are batched; when a node's table changes it
schedules one flush, and the flush sends one message per neighbor carrying
all changed routes.  The per-destination advertisements inside a flush are
counted as ``entries`` (this is the unit Fig. 8 is reproduced in, since a
classic path-vector UPDATE carries one destination).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.sim.agents.base import Agent
from repro.sim.messages import Message, RouteAdvertisement
from repro.sim.network import Network

__all__ = [
    "RouteEntry",
    "RoutePolicy",
    "AcceptAllPolicy",
    "LandmarkVicinityPolicy",
    "ClusterPolicy",
    "PathVectorAgent",
]

_COST_EPSILON = 1e-9


@dataclass
class RouteEntry:
    """One installed route: destination, full path from this node, and cost."""

    destination: int
    path: tuple[int, ...]
    cost: float
    origin_landmark_distance: float | None = None


class RoutePolicy(abc.ABC):
    """Decides which advertised routes a node installs."""

    @abc.abstractmethod
    def accepts(
        self,
        agent: "PathVectorAgent",
        advertisement: RouteAdvertisement,
        cost: float,
    ) -> bool:
        """Whether a *new* destination's route should be installed."""

    def evictions(self, agent: "PathVectorAgent") -> list[int]:
        """Destinations to drop after an installation (capacity control)."""
        return []

    def still_acceptable(
        self, agent: "PathVectorAgent", entry: RouteEntry
    ) -> bool:
        """Whether an installed entry remains valid under updated metadata."""
        return True


class AcceptAllPolicy(RoutePolicy):
    """Plain path vector: keep the best route to every destination."""

    def accepts(
        self,
        agent: "PathVectorAgent",
        advertisement: RouteAdvertisement,
        cost: float,
    ) -> bool:
        return True


class LandmarkVicinityPolicy(RoutePolicy):
    """NDDisco route learning: landmarks plus a bounded vicinity.

    Parameters
    ----------
    landmarks:
        The globally known landmark set.
    vicinity_capacity:
        Maximum number of non-landmark destinations kept (the Θ(√(n log n))
        vicinity size).
    """

    def __init__(self, landmarks: set[int], vicinity_capacity: int) -> None:
        if vicinity_capacity < 1:
            raise ValueError("vicinity_capacity must be >= 1")
        self.landmarks = set(landmarks)
        self.vicinity_capacity = vicinity_capacity

    def _vicinity_entries(self, agent: "PathVectorAgent") -> list[RouteEntry]:
        return [
            entry
            for destination, entry in agent.table.items()
            if destination != agent.node and destination not in self.landmarks
        ]

    def accepts(
        self,
        agent: "PathVectorAgent",
        advertisement: RouteAdvertisement,
        cost: float,
    ) -> bool:
        if advertisement.destination in self.landmarks:
            return True
        vicinity = self._vicinity_entries(agent)
        if len(vicinity) < self.vicinity_capacity:
            return True
        worst = max(entry.cost for entry in vicinity)
        return cost < worst - _COST_EPSILON

    def evictions(self, agent: "PathVectorAgent") -> list[int]:
        vicinity = self._vicinity_entries(agent)
        excess = len(vicinity) - self.vicinity_capacity
        if excess <= 0:
            return []
        vicinity.sort(key=lambda entry: (entry.cost, entry.destination))
        return [entry.destination for entry in vicinity[self.vicinity_capacity :]]


class ClusterPolicy(RoutePolicy):
    """S4 route learning: landmarks plus the Thorup-Zwick cluster condition.

    A route to destination w is kept iff ``cost < d(w, ℓw)``, where the
    destination's distance to its own closest landmark travels inside the
    advertisement and tightens as the landmark routes converge.
    """

    def __init__(self, landmarks: set[int]) -> None:
        self.landmarks = set(landmarks)

    def accepts(
        self,
        agent: "PathVectorAgent",
        advertisement: RouteAdvertisement,
        cost: float,
    ) -> bool:
        if advertisement.destination in self.landmarks:
            return True
        origin_distance = advertisement.origin_landmark_distance
        if origin_distance is None:
            return False
        return cost < origin_distance - _COST_EPSILON

    def still_acceptable(
        self, agent: "PathVectorAgent", entry: RouteEntry
    ) -> bool:
        if entry.destination in self.landmarks or entry.destination == agent.node:
            return True
        if entry.origin_landmark_distance is None:
            return False
        return entry.cost < entry.origin_landmark_distance - _COST_EPSILON


class PathVectorAgent(Agent):
    """A node running (possibly filtered) path-vector route exchange.

    Parameters
    ----------
    node, network:
        The node id and the network fabric.
    policy:
        The route-acceptance policy.
    landmarks:
        The landmark set (used to track the node's own closest-landmark
        distance, which is advertised for S4-style cluster acceptance).
    advertise_delay:
        Batching delay between a table change and the resulting flush.
    """

    def __init__(
        self,
        node: int,
        network: Network,
        policy: RoutePolicy,
        *,
        landmarks: set[int] | None = None,
        advertise_delay: float = 0.05,
    ) -> None:
        super().__init__(node, network)
        self._policy = policy
        self._landmarks = set(landmarks) if landmarks else set()
        self._advertise_delay = advertise_delay
        self.table: dict[int, RouteEntry] = {}
        self._pending: set[int] = set()
        self._flush_scheduled = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Install the self route and announce it."""
        self.table[self.node] = RouteEntry(
            destination=self.node,
            path=(self.node,),
            cost=0.0,
            origin_landmark_distance=self._own_landmark_distance(),
        )
        self._mark_pending(self.node)

    # -- helpers ---------------------------------------------------------------

    def _own_landmark_distance(self) -> float | None:
        if self.node in self._landmarks:
            return 0.0
        best: float | None = None
        for landmark in self._landmarks:
            entry = self.table.get(landmark)
            if entry is not None and (best is None or entry.cost < best):
                best = entry.cost
        return best

    def _mark_pending(self, destination: int) -> None:
        self._pending.add(destination)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(self._advertise_delay, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self._pending:
            return
        pending = sorted(self._pending)
        self._pending.clear()
        advertisements = []
        for destination in pending:
            entry = self.table.get(destination)
            if entry is None:
                continue
            advertisements.append(
                RouteAdvertisement(
                    destination=destination,
                    path=entry.path,
                    cost=entry.cost,
                    origin_landmark_distance=entry.origin_landmark_distance,
                )
            )
        if not advertisements:
            return
        payload = tuple(advertisements)
        for neighbor in sorted(self.neighbors()):
            self.send(
                neighbor,
                "route-update",
                payload,
                size_entries=len(advertisements),
            )

    # -- message handling ---------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Process a batch of route advertisements from a neighbor."""
        if message.kind != "route-update":
            return
        sender = message.sender
        link_cost = self.network.topology.edge_weight(self.node, sender)
        landmark_distance_before = self._own_landmark_distance()
        for advertisement in message.payload:
            self._process_advertisement(sender, link_cost, advertisement)
        # If the node's own closest-landmark distance improved, its self
        # advertisement (which carries that distance for cluster acceptance)
        # must be refreshed, and cluster entries re-validated downstream.
        landmark_distance_after = self._own_landmark_distance()
        if landmark_distance_after != landmark_distance_before:
            self_entry = self.table.get(self.node)
            if self_entry is not None:
                self.table[self.node] = RouteEntry(
                    destination=self.node,
                    path=(self.node,),
                    cost=0.0,
                    origin_landmark_distance=landmark_distance_after,
                )
                self._mark_pending(self.node)

    def _process_advertisement(
        self, sender: int, link_cost: float, advertisement: RouteAdvertisement
    ) -> None:
        destination = advertisement.destination
        if destination == self.node:
            return
        if self.node in advertisement.path:
            return  # loop suppression
        cost = link_cost + advertisement.cost
        candidate_path = (self.node,) + advertisement.path
        current = self.table.get(destination)

        if current is not None:
            improved = cost < current.cost - _COST_EPSILON
            metadata_changed = (
                advertisement.origin_landmark_distance
                != current.origin_landmark_distance
                and current.path[1:2] == (sender,)
            )
            if not improved and not metadata_changed:
                return
            new_entry = RouteEntry(
                destination=destination,
                path=candidate_path if improved else current.path,
                cost=cost if improved else current.cost,
                origin_landmark_distance=advertisement.origin_landmark_distance,
            )
            if not self._policy.still_acceptable(self, new_entry):
                del self.table[destination]
                return
            self.table[destination] = new_entry
            if improved:
                self._mark_pending(destination)
            return

        if not self._policy.accepts(self, advertisement, cost):
            return
        self.table[destination] = RouteEntry(
            destination=destination,
            path=candidate_path,
            cost=cost,
            origin_landmark_distance=advertisement.origin_landmark_distance,
        )
        self._mark_pending(destination)
        for evicted in self._policy.evictions(self):
            if evicted in self.table:
                del self.table[evicted]

    # -- inspection -----------------------------------------------------------------

    def routes(self) -> dict[int, RouteEntry]:
        """A copy of the node's current routing table."""
        return dict(self.table)
