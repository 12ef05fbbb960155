"""NDDisco: the name-dependent distributed compact routing protocol (§4.2).

NDDisco is the foundation Disco is built on.  Each node:

* knows shortest paths to every **landmark** (selected randomly with
  probability sqrt(log n / n)),
* knows shortest paths to every node in its **vicinity** (the Θ(√(n log n))
  closest nodes),
* owns an **address** (ℓv, ℓv ; v): its closest landmark plus an explicit,
  label-encoded route from that landmark down to itself,
* if it is a landmark, additionally hosts a share of the consistent-hashing
  **name-resolution database** mapping names to addresses (§4.3).

This module models the *converged* protocol state (what path-vector route
learning produces once it quiesces; the dynamic message exchange itself is
modelled in :mod:`repro.sim`) and answers the evaluation's state and routing
queries through the :class:`~repro.protocols.base.RoutingScheme` interface.

Routing behaviour:

* **first packet** -- the sender does not know the destination's address, so
  (as in the paper's evaluation setup, §5.1, where NDDisco is "coupled with
  the landmark-based name resolution database") the packet detours through
  the landmark that owns h(t) in the resolution database, then proceeds
  toward t via the compact route.  Set ``resolve_first_packet=False`` to get
  the pure name-dependent behaviour (sender magically knows the address),
  whose stretch is at most 5.
* **later packets** -- the destination's handshake either hands the sender an
  exact shortest path (when s ∈ V(t)) or confirms the relay route; stretch is
  at most 3 (Theorem 1 / [44]).
"""

from __future__ import annotations

from itertools import compress
from types import SimpleNamespace
from typing import Callable, Sequence

from repro.addressing.address import Address
from repro.addressing.labels import LabelCodec
from repro.core.landmarks import select_landmarks
from repro.core.resolution import LandmarkResolutionDatabase
from repro.core.shortcutting import (
    ShortcutMode,
    splice_up_down_stream,
    truncate_at_destination,
)
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.graphs.topology import Topology
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import LandmarkRouter, RouteResult, RoutingScheme

__all__ = ["NDDiscoRouting"]


class NDDiscoRouting(RoutingScheme):
    """Converged-state model of NDDisco.

    Parameters
    ----------
    topology:
        The (connected) network.
    seed:
        Seed for landmark selection.
    shortcut_mode:
        Shortcutting heuristic applied to relay routes.  The paper's headline
        results use ``NO_PATH_KNOWLEDGE``.
    vicinity_scale:
        Constant factor on the Θ(√(n log n)) vicinity size.
    landmarks:
        Optional externally chosen landmark set (operators may pick
        landmarks non-randomly, §6); defaults to the random rule.
    names:
        Flat names per node; default ``node-<id>``.
    vicinities:
        Optional vicinity rows, one per node (for instance learned by the
        message-level simulator); they replace the build's vicinity phase.
    resolve_first_packet:
        If True (default), first packets detour through the resolution
        database's home landmark for the destination name.
    resolution_virtual_nodes:
        Virtual ring points per landmark in the resolution database.
    threads:
        In-kernel thread fan-out for the slab-direct build's landmark SPT
        and vicinity phases (see
        :func:`~repro.core.substrate_build.build_substrate_tables`):
        ``None`` resolves via ``REPRO_KERNEL_THREADS`` / CPU count.
        Byte-identical for every width.
    storage / vicinity_storage / persist_storage:
        Slab placement for the slab-direct build -- ``None`` (RAM arrays),
        ``"mmap"`` (anonymous mmap), or a directory path (file-backed
        slabs, mmap-attachable afterwards); ``vicinity_storage`` overrides
        the choice for the vicinity slabs and ``persist_storage=False``
        skips finishing a directory into a complete artifact.  Ignored
        with pre-supplied ``vicinities``.
    build_stats / build_progress:
        Optional build instrumentation, forwarded to the slab-direct
        builder: ``build_stats`` (a dict) receives per-phase wall-clock
        seconds and slab byte counts, ``build_progress`` one line per
        phase.  ``repro substrate`` uses these for its large-n reporting.
    """

    name = "ND-Disco"

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        shortcut_mode: ShortcutMode = ShortcutMode.NO_PATH_KNOWLEDGE,
        vicinity_scale: float = 1.0,
        landmarks: set[int] | None = None,
        names: Sequence[FlatName] | None = None,
        vicinities: NodeSearchTables | None = None,
        resolve_first_packet: bool = True,
        resolution_virtual_nodes: int = 1,
        threads: int | None = None,
        storage: "str | None" = None,
        vicinity_storage: "str | None" = None,
        persist_storage: bool = True,
        build_stats: dict | None = None,
        build_progress: "Callable[[str], None] | None" = None,
    ) -> None:
        super().__init__(topology)
        self._shortcut_mode = shortcut_mode
        self._resolve_first_packet = resolve_first_packet
        n = topology.num_nodes

        self._names: list[FlatName] = (
            list(names) if names is not None else [name_for_node(v) for v in range(n)]
        )
        if len(self._names) != n:
            raise ValueError(
                f"names must have exactly {n} entries, got {len(self._names)}"
            )

        self._landmarks: set[int] = (
            set(landmarks) if landmarks is not None else select_landmarks(n, seed=seed)
        )
        for landmark in self._landmarks:
            if not 0 <= landmark < n:
                raise ValueError(f"landmark {landmark} out of range")
        if not self._landmarks:
            raise ValueError("landmark set must be non-empty")

        # The converged substrate: landmark SPT rows, closest-landmark
        # rows, vicinities, and address payloads as one set of flat typed
        # slabs (:class:`SubstrateTables`).  The slab-direct builder
        # (:func:`~repro.core.substrate_build.build_substrate_tables`)
        # writes kernel results straight into the preallocated slabs --
        # fanning the SPT and vicinity phases over kernel threads and
        # optionally packing into mmap-backed storage.  Injected
        # vicinities replace its vicinity phase, in RAM.  The scheme keeps
        # the tables object and reads every slab through it: no attribute
        # aliases a slab, so a pickled shell references the tables once
        # and an mmap- or shm-backed substrate stays picklable.
        self._codec = LabelCodec(topology)
        injected = vicinities is not None
        if injected and vicinities.num_nodes != n:
            raise ValueError("vicinities must cover every node")
        self._tables: SubstrateTables = build_substrate_tables(
            topology,
            self._landmarks,
            codec=self._codec,
            vicinity_scale=vicinity_scale,
            include_vicinity=not injected,
            threads=threads,
            storage=None if injected else storage,
            vicinity_storage=None if injected else vicinity_storage,
            persist=persist_storage,
            stats=build_stats,
            progress=build_progress,
        )
        if injected:
            self._tables.vicinity = vicinities
        self._addresses: list[Address] = self._tables.addresses()

        # Name-resolution database over the landmarks.
        self._resolution = LandmarkResolutionDatabase(
            self._landmarks, virtual_nodes=resolution_virtual_nodes
        )
        self._resolution.populate(self._names, self._addresses)

    # -- accessors used by Disco and the experiments ------------------------

    @property
    def tables(self) -> SubstrateTables:
        """The flat substrate slabs backing this scheme's state.

        Treat as read-only; the cache layer persists and shares these slabs
        as raw buffers, and pool workers may attach them zero-copy.
        """
        return self._tables

    @property
    def landmarks(self) -> set[int]:
        """The landmark set (a copy)."""
        return set(self._landmarks)

    @property
    def vicinities(self) -> "_BenchVicinities":
        """Bench-only shim (ROADMAP item 2): ``vicinities[v].distances``.

        The frozen ``bench/workloads/converge.py`` reads
        ``dict(nddisco.vicinities[node].distances.items())``; nothing in
        ``src/`` may.  Readers take ``tables.vicinity.row(v)``.
        """
        return _BenchVicinities(self._tables.vicinity)

    @property
    def closest_landmark_rows(self) -> tuple:
        """Bench-only shim (ROADMAP item 2): the closest-landmark slabs.

        The frozen ``bench/workloads/converge.py`` reads
        ``array("d", nddisco.closest_landmark_rows[1])``; nothing in
        ``src/`` may.  Readers take ``tables.closest`` /
        ``tables.closest_dist``.
        """
        return self._tables.closest, self._tables.closest_dist

    @property
    def addresses(self) -> list[Address]:
        """Per-node addresses (indexed by node id)."""
        return self._addresses

    @property
    def names(self) -> list[FlatName]:
        """Per-node flat names (indexed by node id)."""
        return self._names

    @property
    def codec(self) -> LabelCodec:
        """The label codec defining per-hop forwarding labels."""
        return self._codec

    @property
    def resolution_database(self) -> LandmarkResolutionDatabase:
        """The landmark-hosted name-resolution database."""
        return self._resolution

    @property
    def shortcut_mode(self) -> ShortcutMode:
        """The shortcutting heuristic in force."""
        return self._shortcut_mode

    @shortcut_mode.setter
    def shortcut_mode(self, mode: ShortcutMode) -> None:
        """Switch the shortcutting heuristic (routing-time only; no rebuild)."""
        if not isinstance(mode, ShortcutMode):
            raise TypeError(f"expected ShortcutMode, got {type(mode).__name__}")
        self._shortcut_mode = mode

    # The four accessors below raise ValueError for a node outside 0..n-1:
    # the slabs they read are flat, so such an id would read another row.

    def closest_landmark(self, node: int) -> int:
        """Return ℓv, the landmark closest to ``node``."""
        self._check_endpoints(node, node)
        return self._tables.closest[node]

    def address_of(self, node: int) -> Address:
        """Return the address of ``node``."""
        self._check_endpoints(node, node)
        return self._addresses[node]

    def landmark_distance(self, landmark: int, node: int) -> float:
        """Return d(landmark, node).

        Raises
        ------
        KeyError
            If ``landmark`` is not a landmark.
        """
        if landmark not in self._landmarks:
            raise KeyError(f"{landmark} is not a landmark")
        self._check_endpoints(node, node)
        return self._tables.spt_distance(landmark, node)

    def landmark_path(self, landmark: int, node: int) -> list[int]:
        """Return the landmark's SPT path from ``landmark`` to ``node``."""
        if landmark not in self._landmarks:
            raise KeyError(f"{landmark} is not a landmark")
        self._check_endpoints(node, node)
        return self._tables.spt_path(landmark, node)

    # -- state accounting ---------------------------------------------------

    def state_profile(
        self, nodes: Sequence[int]
    ) -> tuple[list[int], list[float], list[float]]:
        """Landmark and vicinity routes, label mappings, resolution records.

        A route (to a landmark or to a vicinity member other than the node
        itself) costs one name plus a one-byte next-hop label; a label
        mapping two bytes (label plus interface); a resolution record the
        destination name plus its full address (landmark name plus
        explicit-route labels).  Label mappings: "the node really needs to
        remember the mapping only for those forwarding labels that will
        actually be used; these will be for the neighbors leading along
        shortest paths to landmarks or nodes in the node's vicinity" (§4.5
        Theorem 2) -- the node's parents in the landmark SPTs (one strided
        read of the parent slab; -1 at a landmark's own root) and the
        vicinity members whose parent it is.
        """
        self._check_nodes(nodes)
        n = self._topology.num_nodes
        landmarks = self._landmarks
        resolution = self._resolution
        spt_parent = memoryview(self._tables.spt_parent)
        vicinity = self._tables.vicinity
        members = memoryview(vicinity.members)
        parents = memoryview(vicinity.parents)
        entries: list[int] = []
        per: list[float] = []
        fixed: list[float] = []
        for node in nodes:
            used = set(spt_parent[node::n])
            used.discard(-1)
            # The row's first slot is the node itself (settle order).
            lo, hi = vicinity.row_bounds(node)
            children = map(node.__eq__, parents[lo + 1 : hi])
            used.update(compress(members[lo + 1 : hi], children))
            routes = len(landmarks) - (node in landmarks) + hi - lo - 1
            records = resolution.entries_at(node)
            route_bytes = resolution.route_bytes_at(node) if records else 0.0
            entries.append(routes + len(used) + records)
            per.append(routes + 2.0 * records)
            fixed.append(routes + 2.0 * len(used) + route_bytes)
        return entries, per, fixed

    # -- routing ------------------------------------------------------------
    # The routing rule lives in :class:`_NDDiscoRouter`; everything below
    # is a one-pair call on a fresh router.

    def router(self) -> "_NDDiscoRouter":
        return _NDDiscoRouter(self)

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """First packet: resolve the name (if configured), then compact-route."""
        return self.router().first(source, target)

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """Later packets: handshake gives a shortest path when s ∈ V(t)."""
        return self.router().later(source, target)


class _NDDiscoRouter(LandmarkRouter):
    """NDDisco's forwarding rule (§4.2) over the substrate slabs.

    Direct if ``t ∈ V(s)`` or ``t`` is a landmark, else ``s ; ℓt ; t`` with
    the shortcutting heuristic of the scheme's mode (read once, when the
    router is built); first packets detour through the resolution landmark
    and later packets use the destination's handshake.  Path lengths are
    summed left to right, like :meth:`RouteResult.length`.
    """

    def __init__(self, scheme: NDDiscoRouting) -> None:
        super().__init__(scheme)
        self.landmarks = scheme._landmarks
        self.closest = scheme.tables.closest
        mode = scheme.shortcut_mode
        self._per_hop = mode.per_hop_heuristic
        self.uses_reverse = mode.uses_reverse_route
        # Vicinity membership and path extraction go straight through the
        # slab table's per-node position index instead of the dict-shaped
        # view objects.
        self.vic_table = scheme.tables.vicinity
        self._vic_indexes = self.vic_table._indexes
        self._addr: dict[int, list[int]] = {}
        #: flat source * n + target -> (path, mechanism)
        self._compact: dict[int, tuple[list[int], str]] = {}

    # -- building blocks ----------------------------------------------------

    def in_vicinity(self, node: int, member: int) -> bool:
        index = self._vic_indexes[node]
        if index is None:
            index = self.vic_table._index(node)
        return member in index

    def vicinity_path(self, node: int, member: int) -> list[int]:
        return self.vic_table.path_from_owner(node, member)

    def _address_path(self, node: int) -> list[int]:
        path = self._addr.get(node)
        if path is None:
            path = list(self.scheme._addresses[node].route.path)
            self._addr[node] = path
        return path

    def knows_direct(self, source: int, target: int) -> bool:
        return target in self.landmarks or self.in_vicinity(source, target)

    def direct(self, source: int, target: int) -> list[int]:
        """The shortest path ``source`` holds; needs :meth:`knows_direct`."""
        if self.in_vicinity(source, target):
            return self.vicinity_path(source, target)
        return list(reversed(self.paths.down(target, source)))

    def relay(self, source: int, target: int) -> list[int]:
        """The raw relay route s .. l_t .. t (no shortcuts); fresh list."""
        to_landmark = self.paths.up(self.closest[target], source)
        from_landmark = self._address_path(target)
        return to_landmark + from_landmark[1:]

    def _apply_per_hop(self, route: list[int]) -> list[int]:
        heuristic = self._per_hop
        if heuristic == "up-down-stream":
            return splice_up_down_stream(
                truncate_at_destination(route), self.vic_table, self.route_length
            )
        # Truncate at the destination, then the To-Destination splice.
        destination = route[-1]
        first_index = route.index(destination)
        route = route[: first_index + 1]  # slicing copies; fresh list
        if heuristic == "none" or len(route) <= 1:
            return route
        indexes = self._vic_indexes
        table = self.vic_table
        for index in range(len(route) - 1):
            node = route[index]
            member_index = indexes[node]
            if member_index is None:
                member_index = table._index(node)
            if destination in member_index:
                return route[:index] + table.path_from_owner(
                    node, destination
                )
        return route

    def shortcut(
        self, forward: list[int], reverse: list[int] | None
    ) -> list[int]:
        """Apply the mode's heuristic to the relay routes s .. t and t .. s.

        Every mode truncates at the destination; ``reverse`` (needed by the
        modes that compare directions) gets the same per-hop heuristic and
        is reversed, and the shorter direction wins, the forward one on a
        tie.  ``tests/oracles/shortcutting.py`` holds this to a dict-based
        reference, pair by pair, for all six modes.
        """
        forward = self._apply_per_hop(forward)
        if not self.uses_reverse:
            return forward
        assert reverse is not None
        reverse = self._apply_per_hop(reverse)
        reverse_as_forward = list(reversed(reverse))
        if self.route_length(reverse_as_forward) < self.route_length(forward):
            return reverse_as_forward
        return forward

    def compact(self, source: int, target: int) -> tuple[list[int], str]:
        """Memoized route assuming the address is known: path, mechanism."""
        key = source * self._num_nodes + target
        cached = self._compact.get(key)
        if cached is not None:
            return cached
        if source == target:
            result: tuple[list[int], str] = ([source], "self")
        elif self.knows_direct(source, target):
            result = (self.direct(source, target), "direct")
        else:
            forward = self.relay(source, target)
            reverse = (
                self.relay(target, source) if self.uses_reverse else None
            )
            result = (self.shortcut(forward, reverse), "landmark-relay")
        self._compact[key] = result
        return result

    # -- the route queries (first packets: LandmarkRouter._first) -----------

    def _later(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if self.knows_direct(source, target):
            return RouteResult(
                path=tuple(self.direct(source, target)), mechanism="direct"
            )
        return self.later_indirect(source, target)

    def later_indirect(self, source: int, target: int) -> RouteResult:
        """Later packets of a pair with no direct route."""
        if self.in_vicinity(target, source):
            # t knows the shortest path s ; t and informs s (handshake).
            reverse = self.vicinity_path(target, source)
            return RouteResult(
                path=tuple(reversed(reverse)), mechanism="handshake"
            )
        path, mechanism = self.compact(source, target)
        return RouteResult(path=tuple(path), mechanism=mechanism)

    def _pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        if source == target:
            result = RouteResult(path=(source,), mechanism="self")
            return result, result
        if self.knows_direct(source, target):
            result = RouteResult(
                path=tuple(self.direct(source, target)), mechanism="direct"
            )
            return result, result
        return (
            self._first(source, target),
            self.later_indirect(source, target),
        )


class _BenchVicinities:
    """``vicinities[v].distances``: node ``v``'s row as a member -> distance
    dict, built per index.  Only :attr:`NDDiscoRouting.vicinities` makes
    one, for the frozen ``bench/``."""

    __slots__ = ("_table",)

    def __init__(self, table: NodeSearchTables) -> None:
        self._table = table

    def __getitem__(self, node: int) -> SimpleNamespace:
        members, dists, _ = self._table.row(node)
        return SimpleNamespace(
            distances=dict(zip(members.tolist(), dists.tolist()))
        )
