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

from typing import Sequence

from repro.core.landmarks import select_landmarks
from repro.core.resolution import LandmarkResolutionDatabase
from repro.core.substrate_build import (
    build_ball_tables,
    build_substrate_tables,
    cluster_sizes_from_members,
)
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.addressing.labels import LabelCodec
from repro.graphs.topology import Topology
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import LandmarkRouter, RouteResult, RoutingScheme

__all__ = ["S4Routing"]


class S4Routing(RoutingScheme):
    """Converged-state model of S4.

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
        Optional :class:`~repro.core.nddisco.NDDiscoRouting` built on the
        same topology and landmark set.  The converged landmark substrate --
        SPT rows, closest-landmark rows, addresses, and (unless ``names``
        overrides them) names -- is deterministic given topology and
        landmarks, so it is reused instead of recomputed, exactly as one
        deployment running both schemes would share it.  Treated as
        read-only.  :class:`~repro.staticsim.simulation.StaticSimulation`
        passes NDDisco here when the schemes share a landmark set.
    threads:
        In-kernel thread fan-out for the landmark SPTs (own-substrate
        builds) and the per-node cluster ("ball") searches (``None``
        resolves via ``REPRO_KERNEL_THREADS`` / CPU count); results are
        byte-identical for every width.
    storage:
        Slab placement for an own-substrate build (``None``, ``"mmap"``,
        or a directory path -- see
        :func:`~repro.core.substrate_build.build_substrate_tables`).
        Ignored when a shared ``substrate`` supplies the slabs.
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
        storage: "str | None" = None,
    ) -> None:
        super().__init__(topology)
        n = topology.num_nodes
        self._resolve_first_packet = resolve_first_packet
        if names is not None:
            self._names = list(names)
        elif substrate is not None:
            self._names = list(substrate.names)
        else:
            self._names = [name_for_node(v) for v in range(n)]
        if len(self._names) != n:
            raise ValueError(f"names must have exactly {n} entries")

        self._landmarks: set[int] = (
            set(landmarks) if landmarks is not None else select_landmarks(n, seed=seed)
        )
        if not self._landmarks:
            raise ValueError("landmark set must be non-empty")

        # The landmark substrate -- SPT rows, closest-landmark rows and
        # addresses as flat :class:`SubstrateTables` slabs -- is a pure
        # function of topology and landmark set, so a sibling scheme's is
        # reused as-is (with its codec and address objects).
        if substrate is not None:
            # Identity is the common case; equality (same nodes and weighted
            # edges) admits substrates round-tripped through the scenario
            # engine's disk cache, which are content-equal distinct objects.
            if substrate.topology is not topology and substrate.topology != topology:
                raise ValueError("substrate must be built on the same topology")
            if substrate.landmarks != self._landmarks:
                raise ValueError("substrate must share this scheme's landmark set")
            self._codec = substrate.codec
            self._tables: SubstrateTables = substrate.tables
        else:
            self._codec = LabelCodec(topology)

        # Own landmark slabs (no vicinity) when nothing was shared, then the
        # reverse-cluster ("ball") searches: for each node w, find every node
        # v with d(w, v) < d(w, ℓw); those v have w in their cluster.  The
        # search tree also provides the shortest path from w back to v, which
        # is the (reversed) route v uses to reach w.  Both builds are
        # slab-direct: kernel rows land straight in the slabs, fanned over
        # kernel threads and optionally packed into mmap storage.
        if substrate is None:
            self._tables = build_substrate_tables(
                topology,
                self._landmarks,
                codec=self._codec,
                include_vicinity=False,
                threads=threads,
                storage=storage,
            )
        self._balls: NodeSearchTables = build_ball_tables(
            topology, self._tables.closest_dist, threads=threads
        )
        self._addresses = (
            self._tables.addresses()
            if substrate is None
            else list(substrate.addresses)
        )
        # Every ball row starts with its owner, so "member != node" is the
        # minus-one in cluster_sizes_from_members.
        self._cluster_sizes = cluster_sizes_from_members(self._balls.members, n)

        # Location service over the landmarks (consistent hashing of names).
        self._resolution = LandmarkResolutionDatabase(self._landmarks)
        self._resolution.populate(self._names, self._addresses)

    # -- accessors -----------------------------------------------------------

    @property
    def tables(self) -> SubstrateTables:
        """The flat landmark-substrate slabs this scheme routes over.

        Shared with the sibling ND-Disco instance when a ``substrate`` was
        supplied.  Read-only.
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
