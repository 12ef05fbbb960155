"""S4: small state and small stretch routing (Mao et al., NSDI 2007).

S4 adapts the stretch-3 compact-routing scheme of Thorup and Zwick to a
distributed setting, but -- as the paper demonstrates in §5 -- its use of
uniform-random landmarks together with Thorup-Zwick *clusters* breaks the
per-node state bound: "some nodes can be close to many nodes in the network,
exploding their cluster size" (§4.2 "Comparison with S4"), up to Θ̃(n) entries
on the footnote-6 tree topology and tens of thousands of entries on the
router-level Internet map (Fig. 2 / Fig. 7).

Model
-----
* Landmarks: the same uniform-random selection as NDDisco (probability
  sqrt(log n / n)); every node knows shortest paths to all landmarks.
* Cluster of v: ``C(v) = {w : d(v, w) < d(w, ℓw)}`` -- all nodes w strictly
  closer to v than to their own closest landmark.  v stores a shortest-path
  route to every cluster member.
* Label (address) of t: ``(ℓt, port at ℓt toward t)`` -- fixed size; no
  explicit source route is needed because every node on ℓt's shortest path
  to t (other than ℓt itself) has t in its cluster.
* Routing s→t: if t is a landmark or ``t ∈ C(s)``, use the direct shortest
  path; otherwise forward toward ℓt, and the moment the packet passes a node
  u with ``t ∈ C(u)`` it follows u's direct path (To-Destination
  shortcutting, which is intrinsic to S4).  Worst-case stretch 3.
* First packets: like the paper's evaluation, S4 is "coupled with" a
  consistent-hashing location service on the landmarks, so the first packet
  of a flow detours through the landmark that owns h(t) before being routed
  on; this is what makes S4's first-packet stretch large in Figs. 3-5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.addressing.labels import address_bits
from repro.core.landmarks import select_landmarks
from repro.core.resolution import LandmarkResolutionDatabase
from repro.core.substrate_build import (
    build_ball_tables,
    build_substrate_tables,
    cluster_sizes_from_members,
)
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.graphs.topology import Topology
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import LandmarkRouter, RouteResult, RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.nddisco import NDDiscoRouting

__all__ = ["S4Routing"]


class S4Routing(RoutingScheme):
    """Converged-state model of S4.

    ``S4Routing(topology, ...)`` builds its own landmark substrate (no
    vicinity) and adopts it through :meth:`from_tables`, the one place a
    scheme's state is set; a deployment running S4 beside ND-Disco calls
    :meth:`from_nddisco`, which adopts ND-Disco's tables, names and address
    bits instead.

    Parameters
    ----------
    topology:
        The (connected) network.
    seed:
        Seed for landmark selection (passing the same seed as an
        :class:`~repro.core.nddisco.NDDiscoRouting` instance gives both
        protocols identical landmark sets, as in the paper's comparisons).
    landmarks:
        Optional externally supplied landmark set.
    names:
        Flat names per node (used by the landmark location service).
    resolve_first_packet:
        If True (default), first packets detour through the location
        service's home landmark for the destination.
    substrate:
        Bench-only pass-through (ROADMAP item 2): an
        :class:`~repro.core.nddisco.NDDiscoRouting` whose tables (and,
        unless ``names`` is given, names) are adopted as
        ``from_tables(topology, substrate.tables, names)``, with its address
        bits when it was built on ``topology``.  ``landmarks``, if given
        too, must be its landmark set.
    threads:
        In-kernel thread fan-out for the landmark SPTs (own builds) and the
        per-node cluster ("ball") searches (``None`` resolves via
        ``REPRO_KERNEL_THREADS`` / CPU count); results are byte-identical
        for every width.
    """

    name = "S4"

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        landmarks: set[int] | None = None,
        names: Sequence[FlatName] | None = None,
        resolve_first_packet: bool = True,
        substrate: "object | None" = None,
        threads: int | None = None,
    ) -> None:
        n = topology.num_nodes
        if substrate is not None:
            if landmarks is not None and set(landmarks) != substrate.landmarks:
                raise ValueError("landmarks differ from the substrate's")
            tables = substrate.tables
            default_names = substrate.names
            bits = (
                substrate.address_bits if substrate.topology is topology else None
            )
        else:
            tables = build_substrate_tables(
                topology,
                select_landmarks(n, seed=seed) if landmarks is None else landmarks,
                include_vicinity=False,
                threads=threads,
            )
            default_names = [name_for_node(v) for v in range(n)]
            bits = None
        adopted = type(self)._adopt(
            topology,
            tables,
            default_names if names is None else list(names),
            bits,
            resolve_first_packet=resolve_first_packet,
            threads=threads,
        )
        vars(self).update(vars(adopted))  # from_tables sets all the state

    @classmethod
    def from_tables(
        cls,
        topology: Topology,
        tables: SubstrateTables,
        names: list[FlatName],
        *,
        resolve_first_packet: bool = True,
        threads: int | None = None,
    ) -> "S4Routing":
        """S4 over converged landmark ``tables`` built on ``topology``.

        Builds only the balls (S4's own search, fanned over ``threads``).
        The landmarks are ``tables.landmark_ids``; ``tables`` and ``names``
        are held as given, read-only, so S4 beside ND-Disco shares both.
        Raises ``ValueError`` when the tables do not fit the topology
        (:meth:`SubstrateTables.check_adoptable`; no vicinity needed),
        ``names`` has not one name per node or a node reaches no landmark
        (:func:`~repro.addressing.labels.address_bits`).
        """
        return cls._adopt(
            topology,
            tables,
            names,
            None,
            resolve_first_packet=resolve_first_packet,
            threads=threads,
        )

    @classmethod
    def from_nddisco(
        cls, nddisco: "NDDiscoRouting", *, threads: int | None = None
    ) -> "S4Routing":
        """S4 beside ``nddisco``: :meth:`from_tables` over its topology,
        tables and names, adopting the address bits it derived instead of
        deriving them again."""
        return cls._adopt(
            nddisco.topology,
            nddisco.tables,
            nddisco.names,
            nddisco.address_bits,
            threads=threads,
        )

    @classmethod
    def _adopt(
        cls,
        topology: Topology,
        tables: SubstrateTables,
        names: list[FlatName],
        bits: Sequence[int] | None,
        *,
        resolve_first_packet: bool = True,
        threads: int | None = None,
    ) -> "S4Routing":
        """:meth:`from_tables`, with every node's address bits (derived
        from ``tables`` when ``None``)."""
        scheme = cls.__new__(cls)
        RoutingScheme.__init__(scheme, topology)
        n = topology.num_nodes
        tables.check_adoptable(n, vicinity=False)
        if len(names) != n:
            raise ValueError(f"names must have exactly {n} entries, got {len(names)}")
        scheme._resolve_first_packet = resolve_first_packet
        scheme._names = names
        scheme._landmarks = set(tables.landmark_ids)
        scheme._tables = tables
        # The reverse-cluster ("ball") searches: for each node w, find every
        # node v with d(w, v) < d(w, ℓw); those v have w in their cluster.
        # The search tree also provides the shortest path from w back to v,
        # which is the (reversed) route v uses to reach w.  Kernel rows land
        # straight in the slabs, fanned over kernel threads.
        scheme._balls = build_ball_tables(
            topology, tables.closest_dist, threads=threads
        )
        # Every ball row starts with its owner, so "member != node" is the
        # minus-one in cluster_sizes_from_members.
        scheme._cluster_sizes = cluster_sizes_from_members(scheme._balls.members, n)
        # Location service over the landmarks (consistent hashing of names).
        if bits is None:
            bits = address_bits(topology, tables)
        scheme._resolution = LandmarkResolutionDatabase(
            scheme._landmarks, names, bits
        )
        return scheme

    # -- accessors -----------------------------------------------------------

    @property
    def tables(self) -> SubstrateTables:
        """The flat landmark-substrate slabs this scheme routes over.

        Shared with the sibling ND-Disco when adopted from its tables.
        Read-only.
        """
        return self._tables

    @property
    def balls(self) -> NodeSearchTables:
        """The reverse-cluster CSR slabs, one row per node.  Read-only."""
        return self._balls

    @property
    def landmarks(self) -> set[int]:
        """The landmark set (a copy)."""
        return set(self._landmarks)

    @property
    def resolution_database(self) -> LandmarkResolutionDatabase:
        """The landmark-hosted location service."""
        return self._resolution

    def closest_landmark(self, node: int) -> int:
        """Return ℓv for ``node`` (ValueError outside 0..n-1)."""
        self._check_endpoints(node, node)
        return self._tables.closest[node]

    def cluster_size(self, node: int) -> int:
        """Return |C(node)|: how many nodes ``node`` stores direct routes for."""
        return self._cluster_sizes[node]

    def landmark_path(self, landmark: int, node: int) -> list[int]:
        """Return the SPT path from ``landmark`` to ``node``."""
        if landmark not in self._landmarks:
            raise KeyError(f"{landmark} is not a landmark")
        self._check_endpoints(node, node)
        return self._tables.spt_path(landmark, node)

    # -- state accounting ------------------------------------------------------

    def state_profile(
        self, nodes: Sequence[int]
    ) -> tuple[list[int], list[float], list[float]]:
        """Cluster routes + landmark routes + location-service records.

        A route costs one name plus a one-byte next hop, a record the
        destination name plus its address (Fig. 7).
        """
        self._check_nodes(nodes)
        landmarks = self._landmarks
        resolution = self._resolution
        entries: list[int] = []
        per: list[float] = []
        fixed: list[float] = []
        for node in nodes:
            routes = self._cluster_sizes[node] + len(landmarks) - (node in landmarks)
            records = resolution.entries_at(node)
            route_bytes = resolution.route_bytes_at(node) if records else 0.0
            entries.append(routes + records)
            per.append(routes + 2.0 * records)
            fixed.append(routes + route_bytes)
        return entries, per, fixed

    # -- routing ----------------------------------------------------------------
    # The routing rule lives in :class:`_S4Router`; everything below is a
    # one-pair call on a fresh router.

    def router(self) -> "_S4Router":
        return _S4Router(self)

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """First packet: resolve the label at the location service, then route."""
        return self.router().first(source, target)

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """Later packets: the sender caches the label and compact-routes."""
        return self.router().later(source, target)


class _S4Router(LandmarkRouter):
    """S4's forwarding rule over the landmark and ball slabs.

    Direct if ``t`` is a landmark or ``t ∈ C(s)``, else toward ``ℓt`` with
    the intrinsic To-Destination splice at the first node holding ``t`` in
    its cluster; first packets detour through the location service.
    """

    def __init__(self, scheme: S4Routing) -> None:
        super().__init__(scheme)
        self.landmarks = scheme._landmarks
        self.closest = scheme.tables.closest
        # Ball membership / path extraction go through the slab table's
        # per-node position index.
        self._ball_table = scheme.balls
        self._ball_indexes = self._ball_table._indexes
        #: flat holder * n + member / source * n + target keys
        self._cluster_paths: dict[int, list[int]] = {}
        self._compact: dict[int, tuple[list[int], str]] = {}

    def in_cluster(self, holder: int, member: int) -> bool:
        if holder == member:
            return False
        index = self._ball_indexes[member]
        if index is None:
            index = self._ball_table._index(member)
        return holder in index

    def cluster_path(self, holder: int, member: int) -> list[int]:
        """``holder .. member``; needs :meth:`in_cluster`.  Read-only."""
        key = holder * self._num_nodes + member
        path = self._cluster_paths.get(key)
        if path is None:
            path = list(
                reversed(self._ball_table.path_from_owner(member, holder))
            )
            self._cluster_paths[key] = path
        return path

    def knows_direct(self, source: int, target: int) -> bool:
        return target in self.landmarks or self.in_cluster(source, target)

    def direct(self, source: int, target: int) -> list[int]:
        """The shortest path ``source`` holds; needs :meth:`knows_direct`."""
        if self.in_cluster(source, target):
            return self.cluster_path(source, target)
        return list(reversed(self.paths.down(target, source)))

    def compact(self, source: int, target: int) -> tuple[list[int], str]:
        """Memoized route assuming the label is known: path, mechanism."""
        key = source * self._num_nodes + target
        cached = self._compact.get(key)
        if cached is not None:
            return cached
        if source == target:
            result: tuple[list[int], str] = ([source], "self")
        elif self.knows_direct(source, target):
            result = (self.direct(source, target), "direct")
        else:
            landmark = self.closest[target]
            base = self.paths.up(landmark, source) + self.paths.down(
                landmark, target
            )[1:]
            result = (self._cluster_shortcut(base, target), "landmark-relay")
        self._compact[key] = result
        return result

    def _cluster_shortcut(self, route: list[int], target: int) -> list[int]:
        """Splice in a direct cluster path from the first node that has one."""
        if target in route[:-1]:
            return route[: route.index(target) + 1]
        for index in range(len(route) - 1):
            node = route[index]
            if self.in_cluster(node, target):
                return route[:index] + self.cluster_path(node, target)
        return route

    def _later(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        path, mechanism = self.compact(source, target)
        return RouteResult(path=tuple(path), mechanism=mechanism)
