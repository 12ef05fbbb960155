"""The common routing-scheme interface.

Every protocol in this reproduction -- Disco, NDDisco, S4, VRR, path vector,
shortest-path -- is modelled in its *converged* state: the object is built
from a topology (plus a seed for any randomized choices) and then answers the
three questions the evaluation asks:

1. how much data-plane state does node ``v`` hold (entries and bytes)?
2. what route does the *first packet* of a flow from ``s`` to ``t`` take?
3. what route do *later packets* take?

The answers feed the state, stretch, and congestion metrics.  Control-plane
messaging is evaluated separately in the discrete-event simulator
(:mod:`repro.sim`), because it is a dynamic quantity that a converged-state
model cannot capture.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.graphs.topology import Topology

__all__ = [
    "LandmarkPathCache",
    "LandmarkRouter",
    "PairRouter",
    "RouteResult",
    "RoutingScheme",
]


@dataclass(frozen=True)
class RouteResult:
    """The outcome of routing one packet.

    Attributes
    ----------
    path:
        The sequence of nodes traversed, starting at the source and ending at
        the destination.  A failed delivery yields an empty tuple.
    mechanism:
        A short label describing which protocol case produced the route
        (e.g. ``"vicinity"``, ``"landmark-relay"``, ``"greedy"``); used by the
        reports to break results down by case.
    delivered:
        True if the packet reached the destination.
    """

    path: tuple[int, ...]
    mechanism: str
    delivered: bool = True

    @property
    def hop_count(self) -> int:
        """Number of edges traversed (0 for an empty or single-node path)."""
        return max(len(self.path) - 1, 0)

    def length(self, topology: Topology) -> float:
        """Total weighted length of the path on ``topology``."""
        total = 0.0
        for u, v in zip(self.path, self.path[1:]):
            total += topology.edge_weight(u, v)
        return total


class RoutingScheme(abc.ABC):
    """Abstract converged-state model of a routing protocol.

    Subclasses perform all precomputation in ``__init__`` (from a
    :class:`~repro.graphs.Topology` and a seed) and then answer state and
    routing queries.  All query methods must be deterministic.
    """

    #: Human-readable protocol name used in reports (subclasses override).
    name: str = "abstract"

    def __init__(self, topology: Topology) -> None:
        if topology.num_nodes == 0:
            raise ValueError("cannot build a routing scheme on an empty topology")
        if not topology.is_connected():
            raise ValueError(
                "routing schemes require a connected topology; "
                "use Topology.largest_component_subgraph() first"
            )
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """The topology this scheme was built on."""
        return self._topology

    # -- state accounting --------------------------------------------------

    @abc.abstractmethod
    def state_profile(
        self, nodes: Sequence[int]
    ) -> tuple[list[int], list[float], list[float]]:
        """Data-plane state of ``nodes``: ``(entries, per, fixed)``.

        ``entries[i]`` counts the routing-table entries ``nodes[i]`` holds:
        "everything necessary to forward a packet after the protocol has
        converged" (§5.2) -- forwarding entries, name-resolution entries,
        label mappings, and address mappings, as applicable.  With
        ``b``-byte names the same state is ``per[i] * b + fixed[i]`` bytes
        (floats both).

        The split is exact.  Every byte term of every scheme is linear in
        the name size, and every constant is a multiple of 1/8 (label bits
        / 8) far below 2**50, so every partial sum is a double held exactly
        and the total does not depend on the order of the additions.

        This is each scheme's one state definition: :meth:`state_entries`,
        :meth:`state_bytes` and :func:`repro.metrics.state.measure_state`
        read it.  Raises ``ValueError`` if a node is out of range.
        """

    def state_entries(self, node: int) -> int:
        """Number of data-plane routing-table entries held by ``node``."""
        return self.state_profile((node,))[0][0]

    def state_bytes(self, node: int, *, name_bytes: int = 4) -> float:
        """Data-plane state at ``node`` in bytes, with ``name_bytes``-sized names."""
        if name_bytes <= 0:
            raise ValueError(f"name_bytes must be > 0, got {name_bytes}")
        _, per, fixed = self.state_profile((node,))
        return per[0] * name_bytes + fixed[0]

    # -- routing -----------------------------------------------------------

    @abc.abstractmethod
    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """Route the first packet of a flow from ``source`` to ``target``."""

    @abc.abstractmethod
    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """Route packets after the first (post-handshake) for the flow."""

    def router(self) -> "PairRouter":
        """A fresh :class:`PairRouter` over this scheme's converged state.

        Schemes whose routing rule lives in a specialized router (Disco,
        ND-Disco, S4) override this; their route methods are one-pair calls
        on the router it returns.  The router reads the scheme's
        routing-time knobs when it is built, so build one per call or per
        measurement batch and never keep it on the scheme.
        """
        return PairRouter(self)

    # -- shared helpers ----------------------------------------------------

    def _check_endpoints(self, source: int, target: int) -> None:
        n = self._topology.num_nodes
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range (n={n})")
        if not 0 <= target < n:
            raise ValueError(f"target {target} out of range (n={n})")

    def _check_nodes(self, nodes: Sequence[int]) -> None:
        """:meth:`_check_endpoints` for a batch: its least and greatest node."""
        if nodes:
            for node in (min(nodes), max(nodes)):
                self._check_endpoints(node, node)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(topology={self._topology.name!r}, "
            f"n={self._topology.num_nodes})"
        )


class PairRouter:
    """Routes ``(source, target)`` pairs for one scheme, call- or batch-scoped.

    The specialized subclasses living beside Disco, ND-Disco and S4 *are*
    those schemes' routing rules: ``scheme.first_packet_route`` builds a
    fresh router and routes one pair, a measurement builds one router and
    routes the whole batch, sharing everything shareable across it
    (landmark path extractions, relay segments, compact routes, edge
    weights).  Both are the same code; the only difference is how warm the
    memos are.  This base class defers to the scheme's own route methods,
    the right behavior for schemes that implement them directly (VRR, path
    vector, the shortest-path baseline).

    Routers are deliberately short-lived: keeping one for the scheme's
    lifetime was measured to retain several MB of extracted paths across a
    scenario suite, so the memos die with the call or the batch.  The
    exception is the vicinity and ball membership index
    (``NodeSearchTables._index``), which lives on the scheme's tables and
    outlives every router (see :mod:`repro.metrics.batch` for its size and
    why it stays).

    The public entry points validate both endpoints; subclasses implement
    the ``_first`` / ``_later`` / ``_pair`` hooks.
    """

    def __init__(self, scheme: RoutingScheme) -> None:
        self.scheme = scheme
        #: ``(u, v) -> weight``, filled per edge touched.
        self._weights: dict[tuple[int, int], float] = {}

    def first(self, source: int, target: int) -> RouteResult:
        """The first-packet route ``source -> target``."""
        self.scheme._check_endpoints(source, target)
        return self._first(source, target)

    def later(self, source: int, target: int) -> RouteResult:
        """The later-packet route ``source -> target``."""
        self.scheme._check_endpoints(source, target)
        return self._later(source, target)

    def pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        """Both route queries for one pair."""
        self.scheme._check_endpoints(source, target)
        return self._pair(source, target)

    def prefetch(
        self, pairs: Sequence[tuple[int, int]], *, first: bool, later: bool
    ) -> None:
        """Prepare to route ``pairs`` (their ``first`` and/or ``later``
        packet routes): a measurement calls this once, before its per-pair
        loop.  Routes come out the same with or without it; a no-op here.
        """

    def _first(self, source: int, target: int) -> RouteResult:
        return self.scheme.first_packet_route(source, target)

    def _later(self, source: int, target: int) -> RouteResult:
        return self.scheme.later_packet_route(source, target)

    def _pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        """Subclasses fuse the branches the two queries share."""
        return self._first(source, target), self._later(source, target)

    def route_length(self, path: Sequence[int]) -> float:
        """Weighted length of ``path``; identical accumulation order to
        :meth:`RouteResult.length`."""
        weights = self._weights
        total = 0.0
        for edge in zip(path, path[1:]):
            weight = weights.get(edge)
            if weight is None:
                weight = weights[edge] = self.scheme.topology.edge_weight(*edge)
            total += weight
        return total


class LandmarkPathCache:
    """Router-scoped SPT path extraction/reversal memo over the parent slab."""

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


class LandmarkRouter(PairRouter):
    """The first-packet rule ND-Disco and S4 share, written once.

    Both schemes route a first packet the same way: the direct route if the
    source holds one, else (with ``resolve_first_packet``) up the SPT of the
    landmark that owns ``h(t)`` in the resolution database and on from there
    by the scheme's compact route, cut where it first meets the target.
    Subclasses supply ``knows_direct``, ``direct`` and ``compact``.
    """

    def __init__(self, scheme: RoutingScheme) -> None:
        super().__init__(scheme)
        self._num_nodes = scheme.topology.num_nodes
        self.paths = LandmarkPathCache(scheme.tables, self._num_nodes)
        #: target -> (resolver, compact route resolver .. target)
        self._onward: dict[int, tuple[int, tuple[list[int], str] | None]] = {}

    def _resolver_onward(
        self, target: int
    ) -> tuple[int, tuple[list[int], str] | None]:
        cached = self._onward.get(target)
        if cached is None:
            resolver = self.scheme._resolution.home_landmark(
                self.scheme._names[target]
            )
            onward = (
                self.compact(resolver, target) if resolver != target else None
            )
            cached = (resolver, onward)
            self._onward[target] = cached
        return cached

    def _first(self, source: int, target: int) -> RouteResult:
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if self.knows_direct(source, target):
            return RouteResult(
                path=tuple(self.direct(source, target)), mechanism="direct"
            )
        if not self.scheme._resolve_first_packet:
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
        return RouteResult(
            path=tuple(full[: full.index(target) + 1]),
            mechanism="resolve-then-route",
        )
