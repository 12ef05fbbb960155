"""Batched route measurement over the substrate slabs.

The paper's headline numbers are measured over large samples of
source-target pairs, and after PR 1-4 moved the shortest-path kernels onto
flat arrays the *measurement loop* became the hot path: every pair routed
one at a time through the scheme objects, re-extracting the same landmark
SPT paths, re-scanning the same vicinities for group contacts, and
re-deriving identical relay segments for the first- and later-packet
routes of the same pair.

This module routes whole pair batches instead.  A per-batch
:class:`PairRouter` mirrors each scheme's routing logic *exactly* -- same
branches, same tie-breaks, same left-to-right float accumulation for path
lengths -- while sharing everything shareable across the batch:

* landmark SPT path extractions (and their reversals), keyed by
  ``(landmark, node)``;
* per-target relay state: the target's closest landmark, its address
  route, its resolver landmark and the resolver's onward route;
* compact routes, reused between a pair's first- and later-packet
  measurements (and, for Disco, between Disco and its embedded NDDisco);
* Disco's group-contact scan, driven by per-source flat candidate rows
  (hash / distance / id) instead of a rebuilt dict per query;
* one ``(u, v) -> weight`` edge map for all path-length sums.

Byte-identity with the one-pair-at-a-time loop is part of the contract and
is enforced by differential tests; ``measure_stretch(..., batch=False)``
keeps the historical loop as the oracle and as the perf baseline
(``repro bench``'s ``measurement_batch`` entry).

Schemes without a specialized router (VRR, path vector, the shortest-path
baseline) fall back to calling their route methods pair by pair, so the
batched entry points accept any :class:`RoutingScheme`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import _apply_per_hop
from repro.naming.hashspace import HASH_BITS
from repro.protocols.base import RouteResult, RoutingScheme
from repro.protocols.s4 import S4Routing

__all__ = ["PairRouter", "make_router", "route_pairs_batch"]


def _edge_weights(topology) -> dict[tuple[int, int], float]:
    """Both-direction ``(u, v) -> weight`` map for fast path-length sums."""
    weights: dict[tuple[int, int], float] = {}
    for u, v, w in topology.edges():
        weights[(u, v)] = w
        weights[(v, u)] = w
    return weights


class PairRouter:
    """Routes ``(source, target)`` pairs for one scheme, batch-scoped.

    The base class simply defers to the scheme's own route methods (the
    correct behavior for schemes without a specialized router); subclasses
    add the shared-state fast paths.  Routers are batch-scoped (see
    :func:`make_router`); a caller holding one across calls must check
    :meth:`reusable_for`, which guards the only routing-time knob
    (``shortcut_mode``).
    """

    def __init__(self, scheme: RoutingScheme) -> None:
        self.scheme = scheme
        self._weights: dict[tuple[int, int], float] | None = None

    def reusable_for(self, scheme: RoutingScheme) -> bool:
        """True while the cached state still matches ``scheme``'s knobs."""
        return True

    def first(self, source: int, target: int) -> RouteResult:
        return self.scheme.first_packet_route(source, target)

    def later(self, source: int, target: int) -> RouteResult:
        return self.scheme.later_packet_route(source, target)

    def pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        """Both route queries for one pair; subclasses fuse shared branches."""
        return self.first(source, target), self.later(source, target)

    def route_length(self, path: Sequence[int]) -> float:
        """Weighted length of ``path``; identical accumulation order to
        :meth:`RouteResult.length`."""
        if self._weights is None:
            self._weights = _edge_weights(self.scheme.topology)
        weights = self._weights
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += weights[(u, v)]
        return total


class _LandmarkPathCache:
    """Shared SPT path extraction/reversal memo over the parent slab."""

    __slots__ = ("_num_nodes", "_tables", "_down", "_up")

    def __init__(self, tables, num_nodes: int) -> None:
        self._tables = tables
        self._num_nodes = num_nodes
        # Caches keyed by the flat index landmark * n + node (int keys
        # hash faster than tuples in this hot path).
        self._down: dict[int, list[int]] = {}
        self._up: dict[int, list[int]] = {}

    def down(self, landmark: int, node: int) -> list[int]:
        """The SPT path ``landmark .. node``.  Treat as read-only."""
        key = landmark * self._num_nodes + node
        path = self._down.get(key)
        if path is None:
            path = self._tables.spt_path(landmark, node)
            self._down[key] = path
        return path

    def up(self, landmark: int, node: int) -> list[int]:
        """The reversed path ``node .. landmark``.  Treat as read-only."""
        key = landmark * self._num_nodes + node
        path = self._up.get(key)
        if path is None:
            path = list(reversed(self.down(landmark, node)))
            self._up[key] = path
        return path


class _NDDiscoRouter(PairRouter):
    """Batch router mirroring :class:`NDDiscoRouting` bit for bit."""

    def __init__(self, scheme: NDDiscoRouting) -> None:
        super().__init__(scheme)
        self.nd = scheme
        self.landmarks = scheme._landmarks
        self.vicinities = scheme._vicinities
        self.closest = scheme._closest_landmark
        self.mode = scheme.shortcut_mode
        self._per_hop = self.mode.per_hop_heuristic
        self._uses_reverse = self.mode.uses_reverse_route
        # Vicinity membership and path extraction go straight through the
        # slab table's per-node position index instead of the dict-shaped
        # view objects.
        self._vic_table = scheme.tables.vicinity
        self._vic_indexes = self._vic_table._indexes
        self.paths = _LandmarkPathCache(
            scheme.tables, scheme.topology.num_nodes
        )
        self._num_nodes = scheme.topology.num_nodes
        self._addr: dict[int, list[int]] = {}
        #: flat source * n + target -> (path, mechanism)
        self._compact: dict[int, tuple[list[int], str]] = {}
        self._onward: dict[int, tuple[int, tuple[list[int], str] | None]] = {}

    def reusable_for(self, scheme: RoutingScheme) -> bool:
        return self.mode is scheme.shortcut_mode

    # -- building blocks ----------------------------------------------------

    def _in_vicinity(self, node: int, member: int) -> bool:
        index = self._vic_indexes[node]
        if index is None:
            index = self._vic_table._index(node)
        return member in index

    def _vicinity_path(self, node: int, member: int) -> list[int]:
        return self._vic_table.path_from_owner(node, member)

    def _address_path(self, node: int) -> list[int]:
        path = self._addr.get(node)
        if path is None:
            path = list(self.nd._addresses[node].route.path)
            self._addr[node] = path
        return path

    def _knows_direct(self, source: int, target: int) -> bool:
        return target in self.landmarks or self._in_vicinity(source, target)

    def _direct(self, source: int, target: int) -> list[int]:
        if self._in_vicinity(source, target):
            return self._vicinity_path(source, target)
        return list(reversed(self.paths.down(target, source)))

    def relay(self, source: int, target: int) -> list[int]:
        """The raw relay route s .. l_t .. t (no shortcuts); fresh list."""
        to_landmark = self.paths.up(self.closest[target], source)
        from_landmark = self._address_path(target)
        return to_landmark + from_landmark[1:]

    def _apply_per_hop(self, route: list[int]) -> list[int]:
        heuristic = self._per_hop
        if heuristic == "up-down-stream":
            return _apply_per_hop(
                self.scheme.topology, route, self.vicinities, heuristic
            )
        # Inline truncate_at_destination + the To-Destination splice.
        destination = route[-1]
        first_index = route.index(destination)
        route = route[: first_index + 1]  # slicing copies; fresh list
        if heuristic == "none" or len(route) <= 1:
            return route
        indexes = self._vic_indexes
        table = self._vic_table
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
        """Mirror of :func:`~repro.core.shortcutting.apply_shortcuts`."""
        forward = self._apply_per_hop(forward)
        if not self._uses_reverse:
            return forward
        assert reverse is not None
        reverse = self._apply_per_hop(reverse)
        reverse_as_forward = list(reversed(reverse))
        if self.route_length(reverse_as_forward) < self.route_length(forward):
            return reverse_as_forward
        return forward

    def compact(self, source: int, target: int) -> tuple[list[int], str]:
        """Memoized mirror of :meth:`NDDiscoRouting.compact_route`."""
        key = source * self._num_nodes + target
        cached = self._compact.get(key)
        if cached is not None:
            return cached
        if source == target:
            result: tuple[list[int], str] = ([source], "self")
        elif self._knows_direct(source, target):
            result = (self._direct(source, target), "direct")
        else:
            forward = self.relay(source, target)
            reverse = (
                self.relay(target, source) if self._uses_reverse else None
            )
            result = (self.shortcut(forward, reverse), "landmark-relay")
        self._compact[key] = result
        return result

    def _resolver_onward(
        self, target: int
    ) -> tuple[int, tuple[list[int], str] | None]:
        cached = self._onward.get(target)
        if cached is None:
            resolver = self.nd._resolution.home_landmark(
                self.nd._names[target]
            )
            onward = (
                self.compact(resolver, target) if resolver != target else None
            )
            cached = (resolver, onward)
            self._onward[target] = cached
        return cached

    # -- the two route queries ----------------------------------------------

    def first(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if self._knows_direct(source, target):
            return RouteResult(
                path=tuple(self._direct(source, target)), mechanism="direct"
            )
        if not self.nd._resolve_first_packet:
            path, mechanism = self.compact(source, target)
            return RouteResult(path=tuple(path), mechanism=mechanism)
        resolver, onward = self._resolver_onward(target)
        to_resolver = self.paths.up(resolver, source)
        if resolver == target:
            return RouteResult(
                path=tuple(to_resolver), mechanism="resolver-is-target"
            )
        assert onward is not None
        full = to_resolver + onward[0][1:]
        index = full.index(target)
        return RouteResult(
            path=tuple(full[: index + 1]), mechanism="resolve-then-route"
        )

    def later(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if self._knows_direct(source, target):
            return RouteResult(
                path=tuple(self._direct(source, target)), mechanism="direct"
            )
        return self._later_indirect(source, target)

    def _later_indirect(self, source: int, target: int) -> RouteResult:
        if self._in_vicinity(target, source):
            reverse = self._vicinity_path(target, source)
            return RouteResult(
                path=tuple(reversed(reverse)), mechanism="handshake"
            )
        path, mechanism = self.compact(source, target)
        return RouteResult(path=tuple(path), mechanism=mechanism)

    def pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        if source == target:
            result = RouteResult(path=(source,), mechanism="self")
            return result, result
        if self._knows_direct(source, target):
            result = RouteResult(
                path=tuple(self._direct(source, target)), mechanism="direct"
            )
            return result, result
        return (
            self.first(source, target),
            self._later_indirect(source, target),
        )


class _DiscoRouter(PairRouter):
    """Batch router mirroring :class:`DiscoRouting` bit for bit."""

    def __init__(self, scheme: DiscoRouting) -> None:
        super().__init__(scheme)
        self.disco = scheme
        self.nd = _NDDiscoRouter(scheme._nddisco)
        self.grouping = scheme._grouping
        self._hashes = scheme._grouping._hashes
        #: source -> parallel (hash, distance, member) candidate rows over
        #: the source's vicinity (owner excluded), built on first use.
        self._contacts: dict[int, tuple[list[int], list[float], list[int]]] = {}

    def reusable_for(self, scheme: RoutingScheme) -> bool:
        return (
            self.nd.mode is scheme.shortcut_mode
            and scheme.shortcut_mode is scheme.nddisco.shortcut_mode
        )

    def route_length(self, path: Sequence[int]) -> float:
        return self.nd.route_length(path)

    def _candidate_rows(
        self, source: int
    ) -> tuple[list[int], list[float], list[int]]:
        rows = self._contacts.get(source)
        if rows is None:
            node_hashes = self._hashes
            table = self.nd._vic_table
            # The owner is always the row's first member (settle order),
            # so slicing from position 1 is exactly the scheme's
            # ``member != source`` filter.
            lo, hi = table.row_bounds(source)
            ids = memoryview(table.members)[lo + 1 : hi].tolist()
            dists = memoryview(table.dists)[lo + 1 : hi].tolist()
            hashes = [node_hashes[member] for member in ids]
            rows = (hashes, dists, ids)
            self._contacts[source] = rows
        return rows

    def _group_contact(self, source: int, target: int) -> int | None:
        """Flat-row mirror of :meth:`SloppyGrouping.best_group_contact`.

        Same total order -- longest common prefix, then smaller distance,
        then smaller id -- expressed over the candidate rows with the
        xor/bit-length prefix computation inlined.
        """
        hashes, dists, ids = self._candidate_rows(source)
        if not hashes:
            return None
        target_hash = self._hashes[target]
        best_node = None
        best_match = -1
        best_dist = 0.0
        for position, candidate_hash in enumerate(hashes):
            diff = candidate_hash ^ target_hash
            match = HASH_BITS - diff.bit_length() if diff else HASH_BITS
            if match < best_match:
                continue
            distance = dists[position]
            if match == best_match:
                # Rows are id-ascending within equal distance only by
                # vicinity settle order, so break distance ties by the
                # explicit id comparison the original total order used.
                if distance > best_dist or (
                    distance == best_dist and ids[position] > best_node
                ):
                    continue
            best_match = match
            best_dist = distance
            best_node = ids[position]
        return best_node

    def _via_contact(self, source: int, contact: int, target: int) -> list[int]:
        nd = self.nd
        to_contact = nd._vicinity_path(source, contact)
        if contact == target:
            return to_contact
        return to_contact + nd.relay(contact, target)[1:]

    def _reverse_first(self, source: int, target: int) -> list[int]:
        nd = self.nd
        if nd._knows_direct(target, source):
            return nd._direct(target, source)
        if self.grouping.stores_address_of(target, source):
            return nd.relay(target, source)
        contact = self._group_contact(target, source)
        if contact is not None and self.grouping.stores_address_of(
            contact, source
        ):
            return self._via_contact(target, contact, source)
        return nd.relay(target, source)

    def first(self, source: int, target: int) -> RouteResult:
        nd = self.nd
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if nd._knows_direct(source, target):
            return RouteResult(
                path=tuple(nd._direct(source, target)), mechanism="direct"
            )
        if self.grouping.stores_address_of(source, target):
            path, _ = nd.compact(source, target)
            return RouteResult(path=tuple(path), mechanism="known-address")

        contact = self._group_contact(source, target)
        if contact is not None and self.grouping.stores_address_of(
            contact, target
        ):
            forward = self._via_contact(source, contact, target)
            reverse = (
                self._reverse_first(source, target)
                if nd._uses_reverse
                else None
            )
            path = nd.shortcut(forward, reverse)
            return RouteResult(path=tuple(path), mechanism="group-contact")

        result = nd.first(source, target)
        return RouteResult(path=result.path, mechanism="resolution-fallback")

    def later(self, source: int, target: int) -> RouteResult:
        return self.nd.later(source, target)

    def pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        nd = self.nd
        if source == target:
            result = RouteResult(path=(source,), mechanism="self")
            return result, result
        if nd._knows_direct(source, target):
            result = RouteResult(
                path=tuple(nd._direct(source, target)), mechanism="direct"
            )
            return result, result
        return (
            self.first(source, target),
            nd._later_indirect(source, target),
        )


class _S4Router(PairRouter):
    """Batch router mirroring :class:`S4Routing` bit for bit."""

    def __init__(self, scheme: S4Routing) -> None:
        super().__init__(scheme)
        self.s4 = scheme
        self.landmarks = scheme._landmarks
        self.closest = scheme._closest_landmark
        # Ball membership / path extraction go through the slab table's
        # per-node position index.
        self._ball_table = scheme.balls
        self._ball_indexes = self._ball_table._indexes
        self.paths = _LandmarkPathCache(
            scheme.tables, scheme.topology.num_nodes
        )
        self._num_nodes = scheme.topology.num_nodes
        #: flat holder * n + member / source * n + target keys
        self._cluster_paths: dict[int, list[int]] = {}
        self._compact: dict[int, tuple[list[int], str]] = {}
        self._onward: dict[int, tuple[int, tuple[list[int], str] | None]] = {}

    def _in_cluster(self, holder: int, member: int) -> bool:
        if holder == member:
            return False
        index = self._ball_indexes[member]
        if index is None:
            index = self._ball_table._index(member)
        return holder in index

    def _cluster_path(self, holder: int, member: int) -> list[int]:
        key = holder * self._num_nodes + member
        path = self._cluster_paths.get(key)
        if path is None:
            path = list(
                reversed(self._ball_table.path_from_owner(member, holder))
            )
            self._cluster_paths[key] = path
        return path

    def _knows_direct(self, source: int, target: int) -> bool:
        return target in self.landmarks or self._in_cluster(source, target)

    def _direct(self, source: int, target: int) -> list[int]:
        if self._in_cluster(source, target):
            return self._cluster_path(source, target)
        return list(reversed(self.paths.down(target, source)))

    def compact(self, source: int, target: int) -> tuple[list[int], str]:
        key = source * self._num_nodes + target
        cached = self._compact.get(key)
        if cached is not None:
            return cached
        if source == target:
            result: tuple[list[int], str] = ([source], "self")
        elif self._knows_direct(source, target):
            result = (self._direct(source, target), "direct")
        else:
            landmark = self.closest[target]
            base = self.paths.up(landmark, source) + self.paths.down(
                landmark, target
            )[1:]
            result = (self._cluster_shortcut(base, target), "landmark-relay")
        self._compact[key] = result
        return result

    def _cluster_shortcut(self, route: list[int], target: int) -> list[int]:
        if target in route[:-1]:
            return route[: route.index(target) + 1]
        for index in range(len(route) - 1):
            node = route[index]
            if self._in_cluster(node, target):
                return route[:index] + self._cluster_path(node, target)
        return route

    def _resolver_onward(
        self, target: int
    ) -> tuple[int, tuple[list[int], str] | None]:
        cached = self._onward.get(target)
        if cached is None:
            resolver = self.s4._resolution.home_landmark(
                self.s4._names[target]
            )
            onward = (
                self.compact(resolver, target) if resolver != target else None
            )
            cached = (resolver, onward)
            self._onward[target] = cached
        return cached

    def first(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if self._knows_direct(source, target):
            return RouteResult(
                path=tuple(self._direct(source, target)), mechanism="direct"
            )
        if not self.s4._resolve_first_packet:
            path, mechanism = self.compact(source, target)
            return RouteResult(path=tuple(path), mechanism=mechanism)
        resolver, onward = self._resolver_onward(target)
        to_resolver = self.paths.up(resolver, source)
        if resolver == target:
            return RouteResult(
                path=tuple(to_resolver), mechanism="resolver-is-target"
            )
        assert onward is not None
        full = to_resolver + onward[0][1:]
        if target in full[:-1]:
            full = full[: full.index(target) + 1]
        return RouteResult(path=tuple(full), mechanism="resolve-then-route")

    def later(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        path, mechanism = self.compact(source, target)
        return RouteResult(path=tuple(path), mechanism=mechanism)

    def pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        if source == target:
            result = RouteResult(path=(source,), mechanism="self")
            return result, result
        return self.first(source, target), self.later(source, target)


def make_router(scheme: RoutingScheme) -> PairRouter:
    """Build the batch router for ``scheme`` (generic fallback otherwise).

    Routers are batch-scoped on purpose: caching them for the scheme's
    lifetime was measured to retain several MB of extracted paths and
    candidate rows across a scenario suite -- exactly the per-measurement
    state the slab refactor evicted from the schemes -- so each
    measurement call builds a fresh router and lets its caches die with
    the batch.  (:meth:`PairRouter.reusable_for` still guards any caller
    that chooses to hold one across calls.)
    """
    if type(scheme) is NDDiscoRouting:
        return _NDDiscoRouter(scheme)
    if type(scheme) is DiscoRouting:
        # Disco shares its shortcut mode with the embedded NDDisco (the
        # setter keeps them in lockstep); if a caller desynchronized them
        # by hand, defer to the scheme's own per-pair methods.
        if scheme.shortcut_mode is scheme.nddisco.shortcut_mode:
            return _DiscoRouter(scheme)
        return PairRouter(scheme)
    if type(scheme) is S4Routing:
        return _S4Router(scheme)
    return PairRouter(scheme)


def route_pairs_batch(
    scheme: RoutingScheme, pairs: Iterable[tuple[int, int]]
) -> list[tuple[RouteResult, RouteResult]]:
    """Route every pair; returns ``(first_packet, later_packets)`` per pair.

    Byte-identical to calling ``scheme.first_packet_route`` /
    ``scheme.later_packet_route`` pair by pair, but shares the batch-wide
    state described in the module docstring.
    """
    router = make_router(scheme)
    return [router.pair(source, target) for source, target in pairs]
