"""Disco: name-independent compact routing on flat names (§4.4-§4.5).

Disco composes three pieces, all built in this package:

1. **NDDisco** (:class:`~repro.core.nddisco.NDDiscoRouting`) -- landmarks,
   vicinities, and addresses with explicit routes;
2. the **landmark name-resolution database** (§4.3), used as a fallback and
   for overlay finger lookups;
3. the **distributed name database**: sloppy groups, the Symphony-style
   overlay, and the direction-monotone dissemination protocol that places
   every node's address at all members of its sloppy group.

Routing a first packet from s to t (§4.4 "Routing"):

* if s holds a direct route (t is a landmark or t ∈ V(s)) -- use it;
* else if s stores t's address (s ∈ G(t)) -- route via NDDisco;
* otherwise s picks the vicinity member w with the longest prefix match
  between h(w) and h(t); w.h.p. w ∈ G(t) and knows t's address, so the packet
  travels s ; w ; ℓt ; t (stretch ≤ 7, Theorem 1);
* in the vanishingly rare case that w does not know t's address, the packet
  falls back to the landmark resolution database (§4.3).

Later packets use NDDisco with the destination's handshake (stretch ≤ 3).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from array import array

from repro.addressing.address import NAME_BYTES_IPV4
from repro.core.nddisco import NDDiscoRouting
from repro.core.overlay import DisseminationOverlay
from repro.core.shortcutting import ShortcutMode
from repro.core.sloppy_groups import SloppyGrouping
from repro.core.tables import SubstrateTables
from repro.graphs.topology import Topology
from repro.naming.hashspace import HASH_BITS, hash_prefix
from repro.protocols.base import PairRouter, RouteResult, RoutingScheme

__all__ = ["DiscoRouting"]


class DiscoRouting(RoutingScheme):
    """Converged-state model of the full Disco protocol.

    Parameters
    ----------
    topology:
        The (connected) network.
    seed:
        Seed for landmark selection and overlay finger draws.
    num_fingers:
        Outgoing overlay fingers per node (1 or 3 in the paper).
    estimated_n:
        Estimate(s) of the network size used for sloppy grouping -- a single
        value or a per-node mapping.  Defaults to the true n.  The
        §5.2 error-injection experiment passes per-node perturbed values.
    nddisco:
        The :class:`NDDiscoRouting` built on the same topology whose
        landmarks, vicinities, addresses, names and shortcut mode Disco
        routes over (an experiment evaluating both protocols builds the
        substrate once).  Defaults to ``NDDiscoRouting(topology,
        seed=seed)``.
    """

    name = "Disco"

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        num_fingers: int = 1,
        estimated_n: float | Mapping[int, float] | None = None,
        nddisco: NDDiscoRouting | None = None,
    ) -> None:
        super().__init__(topology)
        if nddisco is None:
            nddisco = NDDiscoRouting(topology, seed=seed)
        elif nddisco.topology.num_nodes != topology.num_nodes:
            raise ValueError("nddisco was built on a different topology")
        self._nddisco = nddisco
        self._grouping = SloppyGrouping(self._nddisco.names, estimated_n)
        self._overlay = DisseminationOverlay(
            self._grouping, num_fingers=num_fingers, seed=seed
        )
        self._group_entry_counts, self._group_entry_bytes = (
            self._compute_group_storage()
        )

    # -- construction helpers ------------------------------------------------

    def _compute_group_storage(self) -> tuple[array, array]:
        """Count stored sloppy-group address mappings (and bytes) per node.

        Node ``h`` stores node ``o``'s address iff their hashes share at
        least ``max(k_h, k_o)`` bits (the converged core-group condition).
        Buckets are built per distinct prefix length so the computation is
        O(n · #distinct-k) rather than O(n²).
        """
        grouping = self._grouping
        n = grouping.num_nodes
        distinct_ks = sorted({grouping.prefix_bits_of(v) for v in range(n)})
        # A mapping entry is the owner's name plus its address: its
        # landmark's name and its route labels (IPv4-sized names).
        entry_bytes = [
            NAME_BYTES_IPV4 + (NAME_BYTES_IPV4 + bits / 8.0)
            for bits in self._nddisco.address_bits
        ]

        # buckets[(bits, owner_k)][prefix] -> (count, total mapping bytes)
        buckets: dict[tuple[int, int], dict[int, tuple[int, float]]] = {}
        for owner_k in distinct_ks:
            owners = [v for v in range(n) if grouping.prefix_bits_of(v) == owner_k]
            for bits in distinct_ks:
                needed = max(bits, owner_k)
                key = (needed, owner_k)
                if key in buckets:
                    continue
                bucket: dict[int, tuple[int, float]] = {}
                for owner in owners:
                    prefix = hash_prefix(grouping.hash_of(owner), needed)
                    count, total = bucket.get(prefix, (0, 0.0))
                    bucket[prefix] = (count + 1, total + entry_bytes[owner])
                buckets[key] = bucket

        counts = array("q", bytes(8 * n))
        byte_totals = array("d", bytes(8 * n))
        for holder in range(n):
            holder_k = grouping.prefix_bits_of(holder)
            holder_hash = grouping.hash_of(holder)
            total_count = 0
            total_bytes = 0.0
            for owner_k in distinct_ks:
                needed = max(holder_k, owner_k)
                bucket = buckets[(needed, owner_k)]
                prefix = hash_prefix(holder_hash, needed)
                count, bytes_sum = bucket.get(prefix, (0, 0.0))
                total_count += count
                total_bytes += bytes_sum
            # Exclude the holder's own record (it knows its own address anyway
            # and the paper counts stored *mappings* for other nodes).
            counts[holder] = max(0, total_count - 1)
            byte_totals[holder] = max(0.0, total_bytes - entry_bytes[holder])
        return counts, byte_totals

    # -- accessors -------------------------------------------------------------

    @property
    def nddisco(self) -> NDDiscoRouting:
        """The underlying name-dependent protocol instance."""
        return self._nddisco

    @property
    def tables(self) -> SubstrateTables:
        """The embedded substrate's flat slabs."""
        return self._nddisco.tables

    @property
    def shortcut_mode(self) -> ShortcutMode:
        """The shortcutting heuristic in force: the embedded NDDisco's."""
        return self._nddisco.shortcut_mode

    @shortcut_mode.setter
    def shortcut_mode(self, mode: ShortcutMode) -> None:
        self._nddisco.shortcut_mode = mode

    @property
    def grouping(self) -> SloppyGrouping:
        """The sloppy grouping in force."""
        return self._grouping

    @property
    def overlay(self) -> DisseminationOverlay:
        """The dissemination overlay."""
        return self._overlay

    @property
    def landmarks(self) -> set[int]:
        """The landmark set."""
        return self._nddisco.landmarks

    def group_address_entries(self, node: int) -> int:
        """Sloppy-group address mappings stored at ``node`` (excluding its own)."""
        return self._group_entry_counts[node]

    # -- state accounting -------------------------------------------------------

    def state_profile(
        self, nodes: Sequence[int]
    ) -> tuple[list[int], list[float], list[float]]:
        """NDDisco's state plus sloppy-group address mappings and overlay links.

        Each stored address mapping -- a sloppy-group member's or an overlay
        neighbour's -- costs the owner's name plus its address (Fig. 7
        accounting).  The group byte totals were summed at construction with
        IPv4-sized names, two per mapping, which the fixed part takes back out.
        """
        entries, per, fixed = self._nddisco.state_profile(nodes)
        counts = self._group_entry_counts
        ipv4_bytes = self._group_entry_bytes
        bits = self._nddisco.address_bits
        for index, node in enumerate(nodes):
            links = self._overlay.neighbors(node)
            mappings = counts[node] + len(links)
            entries[index] += mappings
            per[index] += 2.0 * mappings
            fixed[index] += (
                ipv4_bytes[node] - 2.0 * NAME_BYTES_IPV4 * counts[node]
                + sum(bits[neighbor] for neighbor in links) / 8.0
            )
        return entries, per, fixed

    # -- routing ----------------------------------------------------------------
    # The routing rule lives in :class:`_DiscoRouter`; the route methods
    # are one-pair calls on a fresh router.

    def router(self) -> "_DiscoRouter":
        return _DiscoRouter(self)

    def first_packet_route(self, source: int, target: int) -> RouteResult:
        """Route the first packet of a flow (stretch ≤ 7 w.h.p.)."""
        return self.router().first(source, target)

    def later_packet_route(self, source: int, target: int) -> RouteResult:
        """Route packets after the first (stretch ≤ 3, via NDDisco handshake)."""
        return self._nddisco.later_packet_route(source, target)


class _DiscoRouter(PairRouter):
    """Disco's first-packet rule (§4.4) on top of the NDDisco router.

    Direct route, else a stored address, else the sloppy-group contact
    ``s ; w ; ℓt ; t``, else the landmark resolution database; later
    packets are NDDisco's.
    """

    def __init__(self, scheme: DiscoRouting) -> None:
        super().__init__(scheme)
        self.nd = scheme._nddisco.router()
        self.grouping = scheme._grouping
        self._hashes = scheme._grouping._hashes
        #: source -> parallel (hash, distance, member) candidate rows over
        #: the source's vicinity (owner excluded), built on first use.
        self._contacts: dict[int, tuple[list[int], list[float], list[int]]] = {}

    def prefetch(
        self, pairs: Sequence[tuple[int, int]], *, first: bool, later: bool
    ) -> None:
        """Later packets are ND-Disco's, so its relays are prefetched; first
        packets (group contacts) are routed pair by pair."""
        self.nd.prefetch(pairs, first=False, later=later)

    def _candidate_rows(
        self, source: int
    ) -> tuple[list[int], list[float], list[int]]:
        rows = self._contacts.get(source)
        if rows is None:
            node_hashes = self._hashes
            table = self.nd.vic_table
            # The owner is always the row's first member (settle order),
            # so slicing from position 1 drops exactly the source itself.
            lo, hi = table.row_bounds(source)
            ids = memoryview(table.members)[lo + 1 : hi].tolist()
            dists = memoryview(table.dists)[lo + 1 : hi].tolist()
            hashes = [node_hashes[member] for member in ids]
            rows = (hashes, dists, ids)
            self._contacts[source] = rows
        return rows

    def _group_contact(self, source: int, target: int) -> int | None:
        """The vicinity member of ``source`` most likely to know ``target``'s
        address.

        The total order is the longest common prefix, then smaller
        distance, then smaller id, over the flat candidate rows, with the
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
                # vicinity settle order, so break distance ties by an
                # explicit id comparison.
                if distance > best_dist or (
                    distance == best_dist and ids[position] > best_node
                ):
                    continue
            best_match = match
            best_dist = distance
            best_node = ids[position]
        return best_node

    def _via_contact(self, source: int, contact: int, target: int) -> list[int]:
        """The raw s ; w ; ℓt ; t route through group contact ``contact``."""
        nd = self.nd
        to_contact = nd.vicinity_path(source, contact)
        if contact == target:
            return to_contact
        return to_contact + nd.relay(contact, target)[1:]

    def _reverse_first(self, source: int, target: int) -> list[int]:
        """The symmetric t ; w' ; ℓs ; s route used by reverse-path selection."""
        nd = self.nd
        if nd.knows_direct(target, source):
            return nd.direct(target, source)
        if self.grouping.stores_address_of(target, source):
            return nd.relay(target, source)
        contact = self._group_contact(target, source)
        if contact is not None and self.grouping.stores_address_of(
            contact, source
        ):
            return self._via_contact(target, contact, source)
        return nd.relay(target, source)

    def _first(self, source: int, target: int) -> RouteResult:
        nd = self.nd
        if source == target:
            return RouteResult(path=(source,), mechanism="self")
        if nd.knows_direct(source, target):
            return RouteResult(
                path=tuple(nd.direct(source, target)), mechanism="direct"
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
                if nd.uses_reverse
                else None
            )
            path = nd.shortcut(forward, reverse)
            return RouteResult(path=tuple(path), mechanism="group-contact")

        # Vanishingly rare: no vicinity member knows the address.  Fall back
        # to the landmark resolution database (§4.3 / §4.4).
        result = nd._first(source, target)
        return RouteResult(path=result.path, mechanism="resolution-fallback")

    def _later(self, source: int, target: int) -> RouteResult:
        return self.nd._later(source, target)

    def _pair(self, source: int, target: int) -> tuple[RouteResult, RouteResult]:
        nd = self.nd
        if source == target:
            result = RouteResult(path=(source,), mechanism="self")
            return result, result
        if nd.knows_direct(source, target):
            result = RouteResult(
                path=tuple(nd.direct(source, target)), mechanism="direct"
            )
            return result, result
        return (
            self._first(source, target),
            nd.later_indirect(source, target),
        )
