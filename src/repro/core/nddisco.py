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

import ctypes
import time
import warnings
from array import array
from itertools import compress
from types import SimpleNamespace
from typing import Sequence

from repro.addressing.address import Address
from repro.addressing.explicit_route import ExplicitRoute
from repro.addressing.labels import address_bits, route_labels
from repro.core.landmarks import select_landmarks
from repro.core.resolution import LandmarkResolutionDatabase
from repro.core.shortcutting import (
    ShortcutMode,
    splice_up_down_stream,
    truncate_at_destination,
)
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.graphs import _ckernels
from repro.graphs.topology import Topology
from repro.naming.names import FlatName, name_for_node
from repro.protocols.base import LandmarkRouter, RouteResult, RoutingScheme

__all__ = ["NDDiscoRouting"]


class NDDiscoRouting(RoutingScheme):
    """Converged-state model of NDDisco.

    ``NDDiscoRouting(topology, ...)`` builds the substrate
    (:func:`~repro.core.substrate_build.build_substrate_tables`) and adopts
    it through :meth:`from_tables`, the one place a scheme's state is set.
    Build mechanics -- threads, slab placement, progress -- are the
    builder's options: build with them, then call :meth:`from_tables`.

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
    resolve_first_packet:
        If True (default), first packets detour through the resolution
        database's home landmark for the destination name.
    resolution_virtual_nodes:
        Virtual ring points per landmark in the resolution database.
    build_stats:
        Bench-only pass-through (ROADMAP item 2) to the builder's
        ``stats=``: per-phase wall-clock seconds and slab byte counts, plus
        ``address_seconds``, the time :meth:`from_tables` takes to derive
        every address's bits.
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
        resolve_first_packet: bool = True,
        resolution_virtual_nodes: int = 1,
        build_stats: dict | None = None,
    ) -> None:
        n = topology.num_nodes
        tables = build_substrate_tables(
            topology,
            select_landmarks(n, seed=seed) if landmarks is None else landmarks,
            vicinity_scale=vicinity_scale,
            stats=build_stats,
        )
        adopted = type(self).from_tables(
            topology,
            tables,
            [name_for_node(v) for v in range(n)] if names is None else list(names),
            shortcut_mode=shortcut_mode,
            resolve_first_packet=resolve_first_packet,
            resolution_virtual_nodes=resolution_virtual_nodes,
        )
        if build_stats is not None:
            build_stats["address_seconds"] = adopted._address_seconds
        vars(self).update(vars(adopted))  # from_tables sets all the state

    @classmethod
    def from_tables(
        cls,
        topology: Topology,
        tables: SubstrateTables,
        names: list[FlatName],
        *,
        shortcut_mode: ShortcutMode = ShortcutMode.NO_PATH_KNOWLEDGE,
        resolve_first_packet: bool = True,
        resolution_virtual_nodes: int = 1,
    ) -> "NDDiscoRouting":
        """ND-Disco over converged ``tables`` built on ``topology``.

        The landmarks are ``tables.landmark_ids``.  ``tables`` and
        ``names`` are held as given, read-only: schemes adopting the same
        tables share them.  Raises ``ValueError`` when the tables do not
        fit the topology (:meth:`SubstrateTables.check_adoptable`, with
        the vicinity table), ``names`` has not one name per node or a node
        reaches no landmark (:func:`~repro.addressing.labels.address_bits`).
        """
        scheme = cls.__new__(cls)
        RoutingScheme.__init__(scheme, topology)
        n = topology.num_nodes
        tables.check_adoptable(n, vicinity=True)
        if len(names) != n:
            raise ValueError(f"names must have exactly {n} entries, got {len(names)}")
        scheme._shortcut_mode = shortcut_mode
        scheme._resolve_first_packet = resolve_first_packet
        scheme._names = names
        scheme._landmarks = set(tables.landmark_ids)
        # The scheme keeps the tables object and reads every slab through
        # it: no attribute aliases a slab, so schemes attached to one tables
        # object share every slab, in arrays or mmap views alike.
        scheme._tables = tables
        started = time.perf_counter()
        scheme._address_bits = address_bits(topology, tables)
        scheme._address_seconds = time.perf_counter() - started
        scheme._resolution = LandmarkResolutionDatabase(
            scheme._landmarks,
            names,
            scheme._address_bits,
            virtual_nodes=resolution_virtual_nodes,
        )
        return scheme

    # -- accessors used by Disco and the experiments ------------------------

    @property
    def tables(self) -> SubstrateTables:
        """The flat substrate slabs backing this scheme's state.

        Treat as read-only; the cache layer stores these slabs as a slab
        directory, and every process that loads it maps the same files.
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
        """Bench-only shim (ROADMAP item 2): one :meth:`address_of` per node.

        The frozen ``bench/workloads/resolve.py`` reads
        ``routing.addresses``; nothing in ``src/`` may.  Readers take
        :attr:`address_bits` or ``tables.spt_path(closest[v], v)``.
        """
        return [self.address_of(node) for node in range(self._topology.num_nodes)]

    @property
    def address_bits(self) -> array:
        """Per-node address size in label bits (indexed by node id),
        derived on adoption from the SPT slabs and the degrees.  Read-only.
        """
        return self._address_bits

    @property
    def names(self) -> list[FlatName]:
        """Per-node flat names (indexed by node id)."""
        return self._names

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
        """Return the address of ``node``: its closest landmark's SPT path
        down to it, labelled on request (:func:`route_labels`)."""
        self._check_endpoints(node, node)
        landmark = self._tables.closest[node]
        path = self._tables.spt_path(landmark, node)
        route = ExplicitRoute(
            path=tuple(path),
            labels=tuple(route_labels(self._topology, path)),
            bits=self._address_bits[node],
        )
        return Address(node=node, landmark=landmark, route=route)

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

    def knows_direct(self, source: int, target: int) -> bool:
        return target in self.landmarks or self.in_vicinity(source, target)

    def direct(self, source: int, target: int) -> list[int]:
        """The shortest path ``source`` holds; needs :meth:`knows_direct`."""
        if self.in_vicinity(source, target):
            return self.vicinity_path(source, target)
        return list(reversed(self.paths.down(target, source)))

    def relay(self, source: int, target: int) -> list[int]:
        """The raw relay route s .. l_t .. t (no shortcuts); fresh list.
        The second half is t's address route, ``spt_path(l_t, t)``."""
        landmark = self.closest[target]
        to_landmark = self.paths.up(landmark, source)
        from_landmark = self.paths.down(landmark, target)
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

    # -- a measurement batch's relays in one kernel call -------------------

    def prefetch(
        self, pairs: Sequence[tuple[int, int]], *, first: bool, later: bool
    ) -> None:
        """Memoize in :meth:`compact` the landmark relays ``pairs`` need,
        from one ``relay_routes`` call of the C kernels.

        The relays are the later packets' ``(s, t)`` (no direct route, no
        handshake) and, for first packets, ``(home_landmark(t), t)``, or
        ``(s, t)`` when the name is not resolved.  The kernel repeats the
        relay branch of :meth:`compact` step for step; a pair it reports a
        non-zero status for stays out of the memo, so this rule routes it
        (and raises what it raises).  A no-op on the Python tier, in the
        Up-Down-Stream modes, and over read-only slab views (the churn
        engine's live tables), which ``ctypes`` cannot take.
        """
        clib = self.scheme.topology.csr()._clib
        if clib is None or self._per_hop == "up-down-stream":
            return
        scheme, n = self.scheme, self._num_nodes
        resolve = first and scheme._resolve_first_packet
        unresolved = first and not scheme._resolve_first_packet
        keys: dict[int, None] = {}  # flat source * n + target, in pair order
        resolved: set[int] = set()
        for source, target in pairs:
            if (
                source == target
                or not (0 <= source < n and 0 <= target < n)
                or self.knows_direct(source, target)
            ):
                continue
            if unresolved or (later and not self.in_vicinity(target, source)):
                keys[source * n + target] = None
            if resolve and target not in resolved:
                resolved.add(target)
                home = scheme._resolution.home_landmark(scheme._names[target])
                if home != target and not self.knows_direct(home, target):
                    keys[home * n + target] = None
        wanted = [key for key in keys if key not in self._compact]
        if wanted:
            self._relay_routes(clib, wanted)

    def _relay_routes(self, clib, keys: list[int]) -> None:
        """One ``relay_routes`` call over the flat pair ``keys``; memoizes
        each routed pair's path in :meth:`compact`."""
        tables, vicinity = self.scheme.tables, self.vic_table
        landmarks, spt_parent = tables.landmark_ids, tables.spt_parent
        members, lengths = vicinity.members, vicinity.lengths
        slabs = (
            landmarks, spt_parent, tables.closest,
            vicinity.offsets, members, vicinity.parents,
        )
        if any(memoryview(slab).readonly for slab in slabs):
            return
        n, count = self._num_nodes, len(keys)
        arg = _ckernels.buffer_arg
        pairs = array("q", [node for key in keys for node in divmod(key, n)])
        route_ends = array("q", bytes(8 * count))
        status = array("q", bytes(8 * count))
        routes = ctypes.POINTER(ctypes.c_int64)()
        total = clib.relay_routes(
            n,
            *self.scheme.topology.csr()._c_arena(),
            arg(landmarks, "q", len(landmarks), "landmark_ids"),
            len(landmarks),
            arg(spt_parent, "q", len(spt_parent), "spt_parent"),
            arg(tables.closest, "q", n, "closest"),
            arg(vicinity.offsets, "q", n + 1, "vicinity.offsets"),
            None if lengths is None else arg(lengths, "q", n, "vicinity.lengths"),
            arg(members, "q", len(members), "vicinity.members"),
            arg(vicinity.parents, "q", len(members), "vicinity.parents"),
            len(members),
            self._per_hop == "to-destination",
            self.uses_reverse,
            arg(pairs, "q", 2 * count, "pairs"),
            count,
            arg(route_ends, "q", count, "route_ends"),
            arg(status, "q", count, "status"),
            ctypes.byref(routes),
        )
        if total < 0:
            warnings.warn(
                _ckernels.NO_SCRATCH_WARNING.format("relay_routes"),
                RuntimeWarning,
                stacklevel=3,
            )
            return
        try:
            nodes = array("q", ctypes.string_at(routes, 8 * total)).tolist()
        finally:
            clib.buffer_free(routes)
        compact = self._compact
        start = 0
        for key, end, code in zip(keys, route_ends, status):
            if not code:
                compact[key] = (nodes[start:end], "landmark-relay")
            start = end

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
