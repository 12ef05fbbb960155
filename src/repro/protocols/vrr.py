"""Virtual Ring Routing (Caesar et al., SIGCOMM 2006).

VRR organises nodes into a virtual ring ordered by their (flat) identifiers
and, for each node, sets up *vset paths* -- physical routes to its ``r``
virtual neighbours (the r/2 closest identifiers on each side of the ring).
Every node on a vset path stores a routing-table entry for the path's
endpoints.  Packets are forwarded greedily: each node picks, among all
endpoints it has entries for (plus its physical neighbours), the one whose
identifier is closest to the destination's, and forwards along the stored
path toward it.

The paper's critique, which this model reproduces (§3, §5):

* **state** -- path entries accumulate on "central" nodes, so some nodes
  carry far more state than the average (worst case Θ(n²) in theory);
* **stretch** -- greedy forwarding over the virtual ring provides no stretch
  bound, and stretch is high in practice, especially with link latencies.

Model simplifications (documented; they preserve both phenomena):

* The joining order is a random connected growth from a seed node, as in the
  paper's methodology ("we start with a random node and grow the connected
  component of joined nodes outward").
* A joining node routes its path-setup requests greedily over the state
  present at join time (falling back to a physical shortest path when greedy
  forwarding fails early in the bootstrap), which is how setup messages
  travel in VRR and is what makes converged state join-order dependent.
* When a later join displaces a node from another node's vset, the stale
  path is torn down (its entries are removed), as VRR's maintenance does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graphs.csr import tree_path
from repro.graphs.topology import Topology
from repro.naming.hashspace import circular_distance
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import RouteResult, RoutingScheme
from repro.utils.randomness import make_rng

__all__ = ["VirtualRingRouting"]


@dataclass
class _VsetPath:
    """One installed vset path between two endpoint nodes."""

    path_id: int
    endpoint_a: int
    endpoint_b: int
    nodes: list[int]
    active: bool = True


class VirtualRingRouting(RoutingScheme):
    """Converged-state model of VRR with ``r`` virtual neighbours per node.

    Parameters
    ----------
    topology:
        The (connected) network.
    seed:
        Seed controlling the join order and identifier assignment.
    vset_size:
        The number of virtual neighbours r (4 in the paper's evaluation,
        i.e. 2 on each side of the ring).
    names:
        Flat names whose hashes are the ring identifiers; default synthetic
        names.
    """

    name = "VRR"

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        vset_size: int = 4,
        names: Sequence[FlatName] | None = None,
    ) -> None:
        super().__init__(topology)
        if vset_size < 2 or vset_size % 2 != 0:
            raise ValueError(f"vset_size must be a positive even number, got {vset_size}")
        n = topology.num_nodes
        self._vset_size = vset_size
        self._names = (
            list(names) if names is not None else [name_for_node(v) for v in range(n)]
        )
        if len(self._names) != n:
            raise ValueError(f"names must have exactly {n} entries")
        self._ids = [name.hash_value for name in self._names]

        # Routing table: per node, endpoint -> {next_hop: refcount}.
        self._table: list[dict[int, dict[int, int]]] = [dict() for _ in range(n)]
        self._paths: dict[int, _VsetPath] = {}
        self._paths_through: list[set[int]] = [set() for _ in range(n)]
        self._vsets: list[set[int]] = [set() for _ in range(n)]
        self._next_path_id = 0
        self._joined: list[int] = []
        self._joined_set: set[int] = set()

        self._join_all(seed)

    # -- construction ----------------------------------------------------------

    def _join_all(self, seed: int) -> None:
        """Join every node in a random connected-growth order."""
        rng = make_rng(seed, "vrr-join-order")
        n = self._topology.num_nodes
        start = rng.randrange(n)
        frontier: list[int] = [start]
        visited = {start}
        order: list[int] = []
        while frontier:
            index = rng.randrange(len(frontier))
            node = frontier.pop(index)
            order.append(node)
            for neighbor in self._topology.neighbors(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        for node in order:
            self._join(node)

    def _ring_neighbors_among(self, node: int, candidates: set[int]) -> set[int]:
        """The r/2 closest candidates on each side of ``node`` in id space."""
        if not candidates:
            return set()
        half = self._vset_size // 2
        node_id = self._ids[node]
        clockwise = sorted(
            candidates,
            key=lambda other: (self._ids[other] - node_id) % (1 << 64) or (1 << 64),
        )
        counter = sorted(
            candidates,
            key=lambda other: (node_id - self._ids[other]) % (1 << 64) or (1 << 64),
        )
        selected = set(clockwise[:half]) | set(counter[:half])
        return selected

    def _join(self, node: int) -> None:
        """Join ``node``: set up vset paths to its virtual neighbours."""
        if not self._joined:
            self._joined.append(node)
            self._joined_set.add(node)
            return
        targets = self._ring_neighbors_among(node, self._joined_set)
        self._joined.append(node)
        self._joined_set.add(node)
        for target in sorted(targets, key=lambda t: self._ids[t]):
            self._setup_path(node, target)
            self._update_vset(target, node)
        self._vsets[node] |= targets

    def _update_vset(self, existing: int, newcomer: int) -> None:
        """Let ``existing`` adopt ``newcomer`` into its vset, evicting if needed."""
        candidates = (self._vsets[existing] | {newcomer}) & self._joined_set
        candidates.discard(existing)
        new_vset = self._ring_neighbors_among(existing, candidates)
        evicted = self._vsets[existing] - new_vset
        self._vsets[existing] = new_vset
        for old in evicted:
            self._teardown_paths_between(existing, old)

    # -- path management --------------------------------------------------------

    def _setup_path(self, source: int, target: int) -> None:
        """Install a vset path between ``source`` and ``target``."""
        if source == target:
            return
        path = self._route_for_setup(source, target)
        path_id = self._next_path_id
        self._next_path_id += 1
        record = _VsetPath(
            path_id=path_id, endpoint_a=source, endpoint_b=target, nodes=path
        )
        self._paths[path_id] = record
        for index, hop in enumerate(path):
            self._paths_through[hop].add(path_id)
            if index > 0:
                self._add_table_entry(hop, source, path[index - 1])
            if index < len(path) - 1:
                self._add_table_entry(hop, target, path[index + 1])

    def _teardown_paths_between(self, a: int, b: int) -> None:
        """Remove any active vset paths between endpoints ``a`` and ``b``."""
        stale = [
            record
            for record in self._paths.values()
            if record.active
            and {record.endpoint_a, record.endpoint_b} == {a, b}
        ]
        for record in stale:
            record.active = False
            path = record.nodes
            for index, hop in enumerate(path):
                self._paths_through[hop].discard(record.path_id)
                if index > 0:
                    self._remove_table_entry(hop, record.endpoint_a, path[index - 1])
                if index < len(path) - 1:
                    self._remove_table_entry(hop, record.endpoint_b, path[index + 1])

    def _add_table_entry(self, node: int, endpoint: int, next_hop: int) -> None:
        hops = self._table[node].setdefault(endpoint, {})
        hops[next_hop] = hops.get(next_hop, 0) + 1

    def _remove_table_entry(self, node: int, endpoint: int, next_hop: int) -> None:
        hops = self._table[node].get(endpoint)
        if not hops or next_hop not in hops:
            return
        hops[next_hop] -= 1
        if hops[next_hop] <= 0:
            del hops[next_hop]
        if not hops:
            del self._table[node][endpoint]

    def _route_for_setup(self, source: int, target: int) -> list[int]:
        """Path a setup request takes from ``source`` to ``target``.

        Greedy VRR forwarding over the current state, starting from the
        joining node's physical neighbourhood; falls back to the physical
        shortest path when greedy forwarding cannot make progress (which
        happens early in the bootstrap when little state exists).
        """
        greedy = self._greedy_route(source, target, restrict_to_joined=True)
        if greedy is not None:
            return greedy
        return self._physical_shortest_path(source, target)

    def _physical_shortest_path(self, source: int, target: int) -> list[int]:
        _, parents = self._topology.csr().spt_rows(source)
        return tree_path(parents, source, target)

    # -- greedy forwarding -------------------------------------------------------

    def _known_endpoints(self, node: int, *, restrict_to_joined: bool) -> set[int]:
        """Endpoints ``node`` can make progress toward: table entries + neighbours."""
        endpoints = set(self._table[node].keys())
        for neighbor in self._topology.neighbors(node):
            if not restrict_to_joined or neighbor in self._joined_set:
                endpoints.add(neighbor)
        endpoints.discard(node)
        return endpoints

    def _greedy_route(
        self, source: int, target: int, *, restrict_to_joined: bool = False
    ) -> list[int] | None:
        """Greedy forwarding in identifier space; None if it fails."""
        if source == target:
            return [source]
        target_id = self._ids[target]
        path = [source]
        current = source
        max_hops = 4 * self._topology.num_nodes + 16
        visited_states: set[tuple[int, int]] = set()
        while current != target and len(path) <= max_hops:
            endpoints = self._known_endpoints(
                current, restrict_to_joined=restrict_to_joined
            )
            if target in endpoints:
                chosen = target
            elif endpoints:
                chosen = min(
                    endpoints,
                    key=lambda e: (circular_distance(self._ids[e], target_id), e),
                )
                # Require strict progress relative to the current node.
                if circular_distance(self._ids[chosen], target_id) >= circular_distance(
                    self._ids[current], target_id
                ):
                    return None
            else:
                return None
            next_hop = self._next_hop_toward(current, chosen)
            if next_hop is None:
                return None
            state = (current, next_hop)
            if state in visited_states:
                return None
            visited_states.add(state)
            path.append(next_hop)
            current = next_hop
        if current != target:
            return None
        return path

    def _next_hop_toward(self, node: int, endpoint: int) -> int | None:
        """Next physical hop from ``node`` toward ``endpoint``."""
        if self._topology.has_edge(node, endpoint):
            return endpoint
        hops = self._table[node].get(endpoint)
        if not hops:
            return None
        return min(hops)

    # -- accessors ----------------------------------------------------------------

    @property
    def vset_size(self) -> int:
        """The configured number of virtual neighbours r."""
        return self._vset_size

    def vset_of(self, node: int) -> set[int]:
        """The node's current virtual neighbour set."""
        return set(self._vsets[node])

    def active_paths(self) -> list[tuple[int, int, list[int]]]:
        """All active vset paths as (endpoint_a, endpoint_b, node path)."""
        return [
            (record.endpoint_a, record.endpoint_b, list(record.nodes))
            for record in self._paths.values()
            if record.active
        ]

    # -- state accounting -----------------------------------------------------------

    def state_profile(
        self, nodes: Sequence[int]
    ) -> tuple[list[int], list[float], list[float]]:
        """One entry per active vset path through the node, plus neighbours.

        A path entry holds two endpoint names and two next hops, a
        neighbour entry one name and one next hop.
        """
        self._check_nodes(nodes)
        entries: list[int] = []
        per: list[float] = []
        for node in nodes:
            paths = len(self._paths_through[node])
            degree = self._topology.degree(node)
            entries.append(paths + degree)
            per.append(2.0 * paths + degree)
        return entries, per, list(per)

    # -- routing ---------------------------------------------------------------------

    def route(self, source: int, target: int) -> RouteResult:
        """Greedy VRR forwarding from ``source`` to ``target``."""
        self._check_endpoints(source, target)
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        greedy = self._greedy_route(source, target)
        if greedy is not None:
            return RouteResult(path=tuple(greedy), mechanism="greedy")
        # Greedy forwarding failed (local minimum); VRR would repair the ring
        # and retry.  We report the failure but still return the physical
        # shortest path so stretch/congestion accounting has a route, and we
        # flag it via the mechanism label.
        fallback = self._physical_shortest_path(source, target)
        return RouteResult(path=tuple(fallback), mechanism="greedy-failure", delivered=False)

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """VRR has no handshake: all packets use greedy forwarding."""
        return self.route(source, target)

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """Same as the first packet."""
        return self.route(source, target)
