"""Consistent hashing over a set of servers.

Disco's name-resolution module (§4.3) runs "a consistent hashing database
over the (globally-known) set of landmarks": each node's (name, address)
record is stored at the landmark that owns the node's hash.

:class:`VNodeRing` implements the classic construction of Karger et al.
[22]: servers are hashed onto the ring (optionally at multiple virtual
points to smooth the load imbalance, as §4.5 notes), and a key is owned by
the first server clockwise from the key's hash.  It is the one ring in the
package: the converged database (:mod:`repro.core.resolution`), the
Fig. 8 registration count (:mod:`repro.sim.convergence`) and the sharded
service (:mod:`repro.resolution.service`) all place records through it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable

from repro.naming.hashspace import HASH_BITS, HASH_SPACE
from repro.utils.validation import require_positive

__all__ = ["VNodeRing", "ring_point"]


def ring_point(server: Hashable, replica: int) -> int:
    """The ring position of ``server``'s ``replica``-th virtual node.

    sha256 over ``f"{server!r}#{replica}"``, top ``HASH_BITS`` bits.
    """
    material = f"{server!r}#{replica}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[: HASH_BITS // 8], "big")


class VNodeRing:
    """An immutable consistent-hash ring with virtual nodes.

    Tokens live in one sorted flat list with a parallel owner list, so a
    successor lookup is a single :func:`bisect.bisect_left`.  Construction
    inserts servers in sorted order; a token that lands on a taken point
    is nudged one step clockwise until free, so the token set -- and
    therefore every placement -- is a function of the membership alone.

    Membership updates (:meth:`with_server` / :meth:`without_server`)
    return a *new* ring sharing nothing mutable with the old one.  The
    incremental merge path is taken only when no collision nudge is
    involved on either side; any nudge falls back to a full from-scratch
    build, so incremental and from-scratch construction always agree
    (pinned by the differential suite).
    """

    __slots__ = ("_tokens", "_owners", "_server_tokens", "_virtual_nodes", "_nudged")

    def __init__(self, servers: Iterable[int] = (), *, virtual_nodes: int = 1) -> None:
        require_positive("virtual_nodes", virtual_nodes)
        self._virtual_nodes = virtual_nodes
        point_owner: dict[int, int] = {}
        server_tokens: dict[int, tuple[int, ...]] = {}
        nudged = False
        for server in sorted(set(servers)):
            points: list[int] = []
            for replica in range(virtual_nodes):
                point = ring_point(server, replica)
                while point in point_owner:
                    point = (point + 1) % HASH_SPACE
                    nudged = True
                point_owner[point] = server
                points.append(point)
            server_tokens[server] = tuple(points)
        self._tokens: list[int] = sorted(point_owner)
        self._owners: list[int] = [point_owner[token] for token in self._tokens]
        self._server_tokens = server_tokens
        self._nudged = nudged

    # -- accessors -----------------------------------------------------------

    @property
    def servers(self) -> frozenset[int]:
        """The ring membership."""
        return frozenset(self._server_tokens)

    @property
    def virtual_nodes(self) -> int:
        """Ring tokens per server."""
        return self._virtual_nodes

    @property
    def tokens(self) -> tuple[int, ...]:
        """All ring tokens in sorted order."""
        return tuple(self._tokens)

    def tokens_of(self, server: int) -> tuple[int, ...]:
        """The tokens owned by ``server`` (in replica order, not sorted)."""
        return self._server_tokens[server]

    def __len__(self) -> int:
        return len(self._server_tokens)

    def __contains__(self, server: int) -> bool:
        return server in self._server_tokens

    # -- lookups -------------------------------------------------------------

    def successor(self, key: int) -> int:
        """The server owning ``key``: first token at or clockwise of it.

        Raises
        ------
        LookupError
            If the ring has no servers.
        """
        if not self._tokens:
            raise LookupError("virtual-node ring has no servers")
        index = bisect.bisect_left(self._tokens, key % HASH_SPACE)
        if index == len(self._tokens):
            index = 0
        return self._owners[index]

    def successors(self, key: int, count: int) -> tuple[int, ...]:
        """Up to ``count`` distinct servers clockwise of ``key``, owner first."""
        require_positive("count", count)
        if not self._tokens:
            raise LookupError("virtual-node ring has no servers")
        owners = self._owners
        total = len(owners)
        index = bisect.bisect_left(self._tokens, key % HASH_SPACE)
        result: list[int] = []
        for offset in range(total):
            server = owners[(index + offset) % total]
            if server not in result:
                result.append(server)
                if len(result) == count:
                    break
        return tuple(result)

    # -- immutable membership updates ---------------------------------------

    def with_server(self, server: int) -> "VNodeRing":
        """A new ring with ``server`` added (``self`` if already present)."""
        if server in self._server_tokens:
            return self
        fresh_points: list[int] = []
        for replica in range(self._virtual_nodes):
            fresh_points.append(ring_point(server, replica))
        collision = (
            self._nudged
            or len(set(fresh_points)) != len(fresh_points)
            or any(self._token_exists(point) for point in fresh_points)
        )
        if collision:
            return VNodeRing(
                list(self._server_tokens) + [server],
                virtual_nodes=self._virtual_nodes,
            )
        ring = VNodeRing.__new__(VNodeRing)
        ring._virtual_nodes = self._virtual_nodes
        ring._nudged = False
        tokens = list(self._tokens)
        owners = list(self._owners)
        for point in sorted(fresh_points):
            index = bisect.bisect_left(tokens, point)
            tokens.insert(index, point)
            owners.insert(index, server)
        ring._tokens = tokens
        ring._owners = owners
        ring._server_tokens = {**self._server_tokens, server: tuple(fresh_points)}
        return ring

    def without_server(self, server: int) -> "VNodeRing":
        """A new ring with ``server`` removed.

        Raises
        ------
        KeyError
            If the server is not on the ring.
        """
        if server not in self._server_tokens:
            raise KeyError(server)
        remaining = [s for s in self._server_tokens if s != server]
        if self._nudged:
            # A nudge anywhere means token positions depend on the build
            # order; only a from-scratch rebuild is guaranteed to match one.
            return VNodeRing(remaining, virtual_nodes=self._virtual_nodes)
        ring = VNodeRing.__new__(VNodeRing)
        ring._virtual_nodes = self._virtual_nodes
        ring._nudged = False
        dead = set(self._server_tokens[server])
        ring._tokens = [t for t in self._tokens if t not in dead]
        ring._owners = [o for o in self._owners if o != server]
        ring._server_tokens = {
            s: points for s, points in self._server_tokens.items() if s != server
        }
        return ring

    def _token_exists(self, point: int) -> bool:
        index = bisect.bisect_left(self._tokens, point)
        return index < len(self._tokens) and self._tokens[index] == point

    def affected_arcs(
        self, server: int, replicas: int
    ) -> list[tuple[int, int]] | None:
        """Hash arcs whose ``replicas``-way successor set includes ``server``.

        A key's replica set changes when ``server`` joins or leaves exactly
        when ``server`` is among the key's first ``replicas`` distinct
        clockwise owners *on the ring that contains the server* (the new
        ring for a join, the old ring for a leave).  For each of the
        server's tokens ``t`` this walks counter-clockwise until ``replicas``
        distinct other owners (or another of the server's own tokens) have
        been passed; keys in the clockwise arc ``(start, t]`` -- start
        exclusive, matching bisect successor semantics -- are exactly the
        affected ones.  Returns ``None`` when every key is affected (the
        membership is no larger than the replication factor, or an arc
        wraps the whole ring).

        The rebalance scan filter is pinned exact (not just conservative)
        by the differential suite: arc-filtered recomputation must equal
        brute-force recomputation of every placement.
        """
        require_positive("replicas", replicas)
        if server not in self._server_tokens:
            raise KeyError(server)
        others = len(self._server_tokens) - 1
        if others < replicas:
            return None
        tokens, owners = self._tokens, self._owners
        total = len(tokens)
        arcs: list[tuple[int, int]] = []
        for i, owner in enumerate(owners):
            if owner != server:
                continue
            seen: set[int] = set()
            j = (i - 1) % total
            steps = 0
            start = None
            while steps < total:
                other = owners[j]
                if other == server:
                    start = tokens[j]
                    break
                seen.add(other)
                if len(seen) >= replicas:
                    start = tokens[j]
                    break
                j = (j - 1) % total
                steps += 1
            if start is None:
                return None
            arcs.append((start, tokens[i]))
        return arcs
