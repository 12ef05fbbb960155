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

Build and attach: :meth:`VirtualRingRouting.converge` runs the join
simulation and freezes what routing reads into a :class:`RingTable` -- per
node, every endpoint it holds an entry for with the smallest next hop
toward it, plus its count of active vset paths -- and
:meth:`VirtualRingRouting.from_table` routes over that table alone.  The
join bookkeeping (paths, vsets) does not outlive the build; the artifact
store keeps the table as a slab directory.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import gt
from typing import Sequence

from repro.graphs.csr import tree_path
from repro.graphs.topology import Topology
from repro.naming.hashspace import circular_distance
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import RouteResult, RoutingScheme
from repro.utils.randomness import make_rng
from repro.utils.slab_dir import read_slab_dir, write_slab_dir

__all__ = ["RING_SLAB_SCHEMA", "RingTable", "VirtualRingRouting"]

#: On-disk layout version of a :class:`RingTable` slab directory.
RING_SLAB_SCHEMA = "repro-vrr-slabs/v1"


class RingTable:
    """VRR's converged routing table as CSR slabs over ``n = len(paths)``
    nodes.

    Row ``v`` is ``[offsets[v], offsets[v + 1])`` of ``endpoints``
    (ascending) and the aligned ``next_hops`` (the smallest next hop ``v``
    holds toward each); ``paths[v]`` counts the active vset paths through
    ``v``.
    """

    __slots__ = ("offsets", "endpoints", "next_hops", "paths")

    def __init__(self, offsets, endpoints, next_hops, paths) -> None:
        self.offsets = offsets
        self.endpoints = endpoints
        self.next_hops = next_hops
        self.paths = paths

    def check(self, num_nodes: int) -> None:
        """Raise ``ValueError`` unless the table covers ``num_nodes`` nodes,
        its offsets rise from 0 to the entry count, and every endpoint and
        next hop is in ``[0, n)``: O(n + entries)."""
        n, offsets, entries = num_nodes, self.offsets, len(self.endpoints)
        if (
            len(self.paths) != n
            or len(offsets) != n + 1
            or len(self.next_hops) != entries
            or offsets[0] != 0
            or offsets[n] != entries
            or any(map(gt, offsets, offsets[1:]))
        ):
            raise ValueError(f"ring table rows do not cover {n} nodes")
        for slab in (self.endpoints, self.next_hops):
            if entries and (min(slab) < 0 or max(slab) >= n):
                raise ValueError(f"ring table holds a node id outside [0, {n})")

    def slab_items(self) -> list[tuple[str, str, object]]:
        """``(name, typecode, slab)`` triples in manifest order."""
        return [(name, "q", getattr(self, name)) for name in self.__slots__]

    def slab_bytes(self) -> int:
        """Total raw slab payload in bytes (every item is 8 bytes)."""
        return sum(8 * len(slab) for _, _, slab in self.slab_items())

    def save_slabs(self, path) -> str:
        """Write as a raw slab directory (:data:`RING_SLAB_SCHEMA`)."""
        return write_slab_dir(path, RING_SLAB_SCHEMA, self.slab_items())

    @classmethod
    def from_slab_dir(cls, path) -> "RingTable":
        """Attach read-only to a :meth:`save_slabs` directory, checked as
        :meth:`check` (``ValueError`` when it fails)."""
        _, views = read_slab_dir(path, RING_SLAB_SCHEMA)
        table = cls(*(views[name] for name in cls.__slots__))
        table.check(len(table.paths))
        return table


def _ring_ids(num_nodes: int, vset_size: int, names) -> list[int]:
    """The ring identifiers (name hashes), after checking the options."""
    if vset_size < 2 or vset_size % 2 != 0:
        raise ValueError(f"vset_size must be a positive even number, got {vset_size}")
    names = list(names) if names is not None else [
        name_for_node(v) for v in range(num_nodes)
    ]
    if len(names) != num_nodes:
        raise ValueError(f"names must have exactly {num_nodes} entries")
    return [name.hash_value for name in names]


def _greedy_route(
    topology: Topology,
    ids: list[int],
    table: list[dict],
    source: int,
    target: int,
    joined: "set[int] | None" = None,
) -> list[int] | None:
    """Greedy forwarding in identifier space; None if it fails.

    A node can make progress toward its ``table`` entries and its
    neighbours (only the ``joined`` ones, while the ring is being built).
    An entry holds the next hops toward its endpoint and the smallest is
    taken: refcounted while the join runs, one per entry once frozen.
    """
    if source == target:
        return [source]
    target_id = ids[target]
    path = [source]
    current = source
    max_hops = 4 * topology.num_nodes + 16
    visited_states: set[tuple[int, int]] = set()
    while current != target and len(path) <= max_hops:
        endpoints = set(table[current])
        for neighbor in topology.neighbors(current):
            if joined is None or neighbor in joined:
                endpoints.add(neighbor)
        endpoints.discard(current)
        if target in endpoints:
            chosen = target
        elif endpoints:
            chosen = min(
                endpoints,
                key=lambda e: (circular_distance(ids[e], target_id), e),
            )
            # Require strict progress relative to the current node.
            if circular_distance(ids[chosen], target_id) >= circular_distance(
                ids[current], target_id
            ):
                return None
        else:
            return None
        if topology.has_edge(current, chosen):
            next_hop = chosen
        elif table[current].get(chosen):
            next_hop = min(table[current][chosen])
        else:
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


def _physical_shortest_path(topology: Topology, source: int, target: int) -> list[int]:
    _, parents = topology.csr().spt_rows(source)
    return tree_path(parents, source, target)


@dataclass
class _VsetPath:
    """One installed vset path between two endpoint nodes."""

    path_id: int
    endpoint_a: int
    endpoint_b: int
    nodes: list[int]
    active: bool = True


class _RingJoin:
    """The join simulation: every node joins, sets up vset paths to its
    virtual neighbours and tears down the paths it displaces.

    Its bookkeeping -- per-node ``endpoint -> {next_hop: refcount}``
    tables, the installed paths, the vsets -- lives only as long as the
    build; :meth:`freeze` keeps what routing reads.
    """

    def __init__(self, topology: Topology, ids: list[int], vset_size: int) -> None:
        n = topology.num_nodes
        self._topology = topology
        self._ids = ids
        self._vset_size = vset_size
        self._table: list[dict[int, dict[int, int]]] = [dict() for _ in range(n)]
        self._paths: dict[int, _VsetPath] = {}
        self._paths_through: list[set[int]] = [set() for _ in range(n)]
        self._vsets: list[set[int]] = [set() for _ in range(n)]
        self._joined_set: set[int] = set()

    def run(self, seed: int) -> "_RingJoin":
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
        return self

    def freeze(self) -> RingTable:
        """The converged table: per node, each endpoint with the smallest
        next hop toward it, and the count of active paths through it."""
        rows = [sorted(table.items()) for table in self._table]
        return RingTable(
            array("q", accumulate(map(len, rows), initial=0)),
            array("q", [endpoint for row in rows for endpoint, _ in row]),
            array("q", [min(hops) for row in rows for _, hops in row]),
            array("q", map(len, self._paths_through)),
        )

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
        targets = self._ring_neighbors_among(node, self._joined_set)
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
        path_id = len(self._paths)  # paths are flagged inactive, never dropped
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
        greedy = _greedy_route(
            self._topology, self._ids, self._table, source, target, self._joined_set
        )
        if greedy is not None:
            return greedy
        return _physical_shortest_path(self._topology, source, target)


class VirtualRingRouting(RoutingScheme):
    """Converged-state model of VRR with ``r`` virtual neighbours per node.

    ``VirtualRingRouting(topology, ...)`` is :meth:`converge` followed by
    :meth:`from_table`, the one place a scheme's state is set.

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
        table = type(self).converge(
            topology, seed=seed, vset_size=vset_size, names=names
        )
        adopted = type(self).from_table(
            topology, table, vset_size=vset_size, names=names
        )
        vars(self).update(vars(adopted))  # from_table sets all the state

    @staticmethod
    def converge(
        topology: Topology,
        *,
        seed: int = 0,
        vset_size: int = 4,
        names: Sequence[FlatName] | None = None,
    ) -> RingTable:
        """Run the join simulation on ``topology`` and freeze its table."""
        ids = _ring_ids(topology.num_nodes, vset_size, names)
        return _RingJoin(topology, ids, vset_size).run(seed).freeze()

    @classmethod
    def from_table(
        cls,
        topology: Topology,
        table: RingTable,
        *,
        vset_size: int = 4,
        names: Sequence[FlatName] | None = None,
    ) -> "VirtualRingRouting":
        """VRR over a converged ``table`` built on ``topology`` with the
        same ``vset_size`` and ``names``.

        Raises ``ValueError`` when the table does not fit the topology
        (:meth:`RingTable.check`, O(n + entries)).
        """
        scheme = cls.__new__(cls)
        RoutingScheme.__init__(scheme, topology)
        n = topology.num_nodes
        scheme._vset_size = vset_size
        scheme._ids = _ring_ids(n, vset_size, names)
        table.check(n)
        offsets, endpoints, hops = table.offsets, table.endpoints, table.next_hops
        #: Per node, endpoint -> (the next hop toward it,).
        scheme._table = [
            {endpoint: (hop,) for endpoint, hop in zip(endpoints[lo:hi], hops[lo:hi])}
            for lo, hi in zip(offsets, offsets[1:])
        ]
        scheme._path_counts = table.paths.tolist()
        return scheme

    # -- accessors ----------------------------------------------------------------

    @property
    def vset_size(self) -> int:
        """The configured number of virtual neighbours r."""
        return self._vset_size

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
            paths = self._path_counts[node]
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
        greedy = _greedy_route(self._topology, self._ids, self._table, source, target)
        if greedy is not None:
            return RouteResult(path=tuple(greedy), mechanism="greedy")
        # Greedy forwarding failed (local minimum); VRR would repair the ring
        # and retry.  We report the failure but still return the physical
        # shortest path so stretch/congestion accounting has a route, and we
        # flag it via the mechanism label.
        fallback = _physical_shortest_path(self._topology, source, target)
        return RouteResult(path=tuple(fallback), mechanism="greedy-failure", delivered=False)

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """VRR has no handshake: all packets use greedy forwarding."""
        return self.route(source, target)

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """Same as the first packet."""
        return self.route(source, target)
