"""Sharded name-resolution service over the landmark set (§4.3 served live).

The converged model (:class:`repro.core.resolution.LandmarkResolutionDatabase`)
counts what each landmark stores for a fixed landmark set.  A
*serving* resolution layer additionally needs:

* **replication** -- the paper stores each record at the landmark owning
  the name's hash; a service replicates it on the next ``r`` distinct
  successors clockwise so single-shard loss does not lose records until
  the next soft-state refresh;
* **membership churn** -- landmarks leave and join (driven here by
  :class:`~repro.dynamics.engine.ChurnEngine` node events), and the ring
  must rebalance *deterministically* and *incrementally*: the service
  keeps its stored names in a ring-ordered index, so a rebalance reads
  only the records in the hash arcs whose successor sets actually change
  -- O(v log n + affected) for v tokens and n names, never the table;
* **an immutable ring** -- lookups concurrent with a rebalance see either
  the old or the new ring, never a half-updated one, so membership
  updates build a new :class:`VNodeRing` rather than mutating in place.

The ring is :class:`repro.naming.VNodeRing`, the one placement ring of
the package (re-exported here), so the service's home shard of a name is
the converged database's home landmark by construction.
``tests/test_resolution_service.py`` checks service placements, replica
sets, and rebalance outcomes against brute-force recomputation across
randomized churn sequences.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.sloppy_groups import SloppyGrouping
from repro.naming.consistent_hash import VNodeRing
from repro.naming.hashspace import HASH_BITS, common_prefix_length
from repro.naming.names import FlatName
from repro.utils.validation import require_positive

__all__ = [
    "GroupContactIndex",
    "RebalanceReport",
    "ResolutionRecord",
    "ShardedResolutionService",
    "VNodeRing",
]


@dataclass(frozen=True)
class ResolutionRecord:
    """One soft-state record: a node's name, its address, and its insert time.

    The service stores ``address`` and never reads it: the substrate's
    callers pass the node id, whose address is the substrate's slab row.
    """

    name: FlatName
    address: object
    inserted_at: float = 0.0


@dataclass(frozen=True)
class RebalanceReport:
    """What one shard join/leave cost the service.

    Attributes
    ----------
    shard:
        The shard that joined or left.
    kind:
        ``"join"`` or ``"leave"``.
    scanned:
        Records whose hash fell in the affected arcs (candidates for a
        placement change); the whole table when ``whole_ring`` is set.
        These are the only records the rebalance read, so this is its
        cost, not just its candidate count.
    moved_copies:
        Record copies created on shards that did not previously hold them.
    lost_records:
        Records dropped entirely because their only copy lived on a shard
        that left unannounced (``lost=True``); they return at the owner's
        next soft-state refresh, which is the staleness window the
        resolution scenarios measure.
    arcs:
        Number of affected hash arcs (one per token of the shard).
    whole_ring:
        True when the arc filter degenerated to a full scan.
    """

    shard: int
    kind: str
    scanned: int
    moved_copies: int
    lost_records: int
    arcs: int
    whole_ring: bool


class ShardedResolutionService:
    """r-way replicated name→address storage on the landmark shards.

    Parameters
    ----------
    shards:
        Initial shard ids (the landmark set, in Disco's use).
    virtual_nodes:
        Ring tokens per shard (the §4.5 load-smoothing knob).
    replicas:
        Distinct successor shards holding each record.  ``1`` reproduces
        the paper's single-home placement: the home shard of every name
        then matches :meth:`LandmarkResolutionDatabase.home_landmark`
        bit-for-bit.
    refresh_interval:
        Soft-state refresh period t; records time out after ``2t + 1``
        exactly as in the converged model.
    """

    def __init__(
        self,
        shards: Iterable[int],
        *,
        virtual_nodes: int = 1,
        replicas: int = 1,
        refresh_interval: float = 10.0,
    ) -> None:
        shard_list = sorted(set(shards))
        if not shard_list:
            raise ValueError("resolution service requires at least one shard")
        require_positive("replicas", replicas)
        require_positive("refresh_interval", refresh_interval)
        self._ring = VNodeRing(shard_list, virtual_nodes=virtual_nodes)
        self._replicas = replicas
        self._refresh_interval = float(refresh_interval)
        self._records: dict[FlatName, ResolutionRecord] = {}
        self._placements: dict[FlatName, tuple[int, ...]] = {}
        # The stored names in ring order: one sorted ``(hash_value, name)``
        # entry per record.  The hashes are compared in C and a tie falls to
        # FlatName's own order, so this is ``sorted(self._records)``.
        # populate() and _forget() are the only writers of the two dicts
        # above and of this list.
        self._index: list[tuple[int, FlatName]] = []
        self._shard_counts: dict[int, int] = {shard: 0 for shard in shard_list}

    # -- configuration accessors --------------------------------------------

    @property
    def ring(self) -> VNodeRing:
        """The current (immutable) placement ring."""
        return self._ring

    @property
    def shards(self) -> list[int]:
        """Current shard ids (sorted)."""
        return sorted(self._shard_counts)

    @property
    def replicas(self) -> int:
        """Distinct successor shards per record."""
        return self._replicas

    @property
    def timeout(self) -> float:
        """The soft-state timeout 2t + 1."""
        return 2.0 * self._refresh_interval + 1.0

    def __len__(self) -> int:
        return len(self._records)

    # -- placement -----------------------------------------------------------

    def compute_placement(self, name: FlatName) -> tuple[int, ...]:
        """The replica set the current ring assigns to ``name``, home first."""
        return self._ring.successors(name.hash_value, self._replicas)

    def placement_of(self, name: FlatName) -> tuple[int, ...]:
        """The *stored* replica set of ``name`` (KeyError if absent)."""
        return self._placements[name]

    def home_shard(self, name: FlatName) -> int:
        """The shard owning ``name``'s hash (the paper's home landmark)."""
        return self._ring.successor(name.hash_value)

    # -- storage -------------------------------------------------------------

    def populate(
        self,
        names: Iterable[FlatName],
        addresses: Iterable[object],
        *,
        now: float = 0.0,
    ) -> None:
        """Bulk-insert/refresh (name, address) pairs.

        An address is stored as given and never read.

        The one place the stored key set grows.  A refresh of a live name
        leaves the ring-order index alone; one new name is a bisect insert
        and several are merged in one sort (n single inserts would move
        O(n^2) pointers).
        """
        records = self._records
        fresh: list[tuple[int, FlatName]] = []
        try:
            for name, address in zip(names, addresses):
                record = ResolutionRecord(
                    name=name, address=address, inserted_at=now
                )
                self._set_placement(name, self.compute_placement(name))
                stored = len(records)
                records[name] = record
                if len(records) > stored:  # new, seen without a second hash
                    fresh.append((name.hash_value, name))
        finally:
            # Also when a pair part-way raises: what was stored is indexed.
            if len(fresh) == 1:
                bisect.insort(self._index, fresh[0])
            elif fresh:
                self._index.extend(fresh)
                self._index.sort()

    def lookup_record(
        self, name: FlatName, *, now: float | None = None
    ) -> ResolutionRecord | None:
        """The full stored record for ``name``, or None if absent or stale."""
        record = self._records.get(name)
        if record is None:
            return None
        if now is not None and record.inserted_at < now - self.timeout:
            return None
        return record

    def expire_older_than(self, now: float) -> int:
        """Drop records past the ``2t + 1`` timeout; returns count dropped."""
        cutoff = now - self.timeout
        stale = [
            name
            for name, record in self._records.items()
            if record.inserted_at < cutoff
        ]
        self._forget(stale)
        return len(stale)

    # -- membership churn ----------------------------------------------------

    def add_shard(self, shard: int) -> RebalanceReport:
        """Add ``shard`` and rebalance only the affected hash arcs."""
        if shard in self._shard_counts:
            return RebalanceReport(
                shard=shard,
                kind="join",
                scanned=0,
                moved_copies=0,
                lost_records=0,
                arcs=0,
                whole_ring=False,
            )
        new_ring = self._ring.with_server(shard)
        arcs = new_ring.affected_arcs(shard, self._replicas)
        self._ring = new_ring
        self._shard_counts[shard] = 0
        scanned = moved = 0
        for name in self._affected_names(arcs):
            scanned += 1
            old = self._placements[name]
            new = self.compute_placement(name)
            if new != old:
                moved += len(set(new) - set(old))
                self._set_placement(name, new)
        return RebalanceReport(
            shard=shard,
            kind="join",
            scanned=scanned,
            moved_copies=moved,
            lost_records=0,
            arcs=0 if arcs is None else len(arcs),
            whole_ring=arcs is None,
        )

    def remove_shard(self, shard: int, *, lost: bool = True) -> RebalanceReport:
        """Remove ``shard``; rebalance the arcs it served.

        With ``lost=True`` (a crash / unannounced leave) the copies the
        shard held vanish: records with surviving replicas re-replicate
        from the survivors, records whose *only* copy lived there are
        dropped until their owner's next soft-state refresh re-inserts
        them.  ``lost=False`` models a graceful drain where every copy is
        handed off first.

        Raises
        ------
        KeyError
            If the shard is not a member.
        ValueError
            If it is the last shard.
        """
        if shard not in self._shard_counts:
            raise KeyError(shard)
        if len(self._shard_counts) == 1:
            raise ValueError("cannot remove the last resolution shard")
        arcs = self._ring.affected_arcs(shard, self._replicas)
        self._ring = self._ring.without_server(shard)
        scanned = moved = 0
        dropped: list[FlatName] = []
        for name in self._affected_names(arcs):
            scanned += 1
            old = self._placements[name]
            survivors = set(old) - {shard}
            if lost and not survivors:
                dropped.append(name)
                continue
            new = self.compute_placement(name)
            moved += len(set(new) - survivors)
            self._set_placement(name, new)
        self._forget(dropped)
        self._shard_counts.pop(shard)
        return RebalanceReport(
            shard=shard,
            kind="leave",
            scanned=scanned,
            moved_copies=moved,
            lost_records=len(dropped),
            arcs=0 if arcs is None else len(arcs),
            whole_ring=arcs is None,
        )

    # -- state accounting ----------------------------------------------------

    def entries_at(self, shard: int) -> int:
        """Record copies stored at ``shard`` (0 for non-members)."""
        return self._shard_counts.get(shard, 0)

    def load_distribution(self) -> dict[int, int]:
        """Record copies per shard (the §4.5 load-imbalance view).

        With ``replicas=1`` shard ``s`` holds what the converged
        :meth:`LandmarkResolutionDatabase.entries_at` counts at ``s``.
        """
        return dict(self._shard_counts)

    # -- internals -----------------------------------------------------------

    def _affected_names(
        self, arcs: list[tuple[int, int]] | None
    ) -> list[FlatName]:
        """Stored names in the affected arcs, in ascending ring order.

        Two bisects per arc into the ring-order index: a clockwise arc
        ``(start, end]`` holds the entries from the first hash above
        ``start`` to the first above ``end`` (a 1-tuple sorts before every
        entry at its hash), in two pieces when it wraps zero
        (:meth:`VNodeRing.affected_arcs` never returns an empty arc: a
        token's walk ends at another token).  ``None`` is the whole table.
        """
        index = self._index
        if arcs is None:
            return [name for _, name in index]
        ranges: list[tuple[int, int]] = []
        for start, end in arcs:
            lo = bisect.bisect_left(index, (start + 1,))
            hi = bisect.bisect_left(index, (end + 1,))
            if start < end:
                ranges.append((lo, hi))
            else:
                ranges += [(0, hi), (lo, len(index))]
        ranges.sort()
        names: list[FlatName] = []
        reach = 0  # ranges that touch or overlap yield each name once
        for lo, hi in ranges:
            names += [name for _, name in index[max(lo, reach) : hi]]
            reach = max(reach, hi)
        return names

    def _set_placement(self, name: FlatName, placement: tuple[int, ...]) -> None:
        old = self._placements.get(name, ())
        for shard in old:
            self._shard_counts[shard] -= 1
        for shard in placement:
            self._shard_counts[shard] += 1
        self._placements[name] = placement

    def _forget(self, names: list[FlatName]) -> None:
        """Drop ``names`` (all stored): the one place the key set shrinks."""
        if not names:
            return
        index = self._index
        cuts: list[int] = []
        for name in names:
            del self._records[name]
            for shard in self._placements.pop(name):
                if shard in self._shard_counts:
                    self._shard_counts[shard] -= 1
            cuts.append(bisect.bisect_left(index, (name.hash_value, name)))
        # Rebuilt from the slices between the cuts: linear for any batch,
        # where per-entry deletes move O(n) pointers each.
        cuts.sort()
        kept = index[: cuts[0]]
        for cut, until in zip(cuts, cuts[1:] + [len(index)]):
            kept += index[cut + 1 : until]
        self._index = kept


class GroupContactIndex:
    """Bisect-backed sloppy-group contact selection (§4.4 served live).

    A full scan reads every vicinity member per query
    (``tests/oracles/sloppy_groups.py``); a serving process answers the
    same question with one bisect into the member list sorted by hash.
    The longest-prefix-match winners form a contiguous run around the
    query hash's insertion point (they share the maximal prefix
    interval), so the scan for the ``(distance, node)`` tie-break touches
    only that run.  Results are
    bit-identical to the oracle (pinned by the differential suite).

    Candidate rows are indexed lazily per source node and assumed stable
    for the index lifetime (vicinities are converged state).
    """

    def __init__(self, grouping: SloppyGrouping) -> None:
        self._grouping = grouping
        #: source -> (hashes, nodes, distances), parallel and hash-sorted.
        self._tables: dict[int, tuple[list[int], list[int], list[float]]] = {}

    @property
    def grouping(self) -> SloppyGrouping:
        """The converged grouping this index serves."""
        return self._grouping

    def best_contact(
        self,
        source: int,
        target: int,
        row: Sequence[Sequence],
    ) -> tuple[float, int] | None:
        """The vicinity member most likely to know ``target``'s address.

        ``row`` is ``source``'s vicinity row, ``(members, distances, ...)``
        as :meth:`~repro.core.tables.NodeSearchTables.row` returns it.
        The order is the longest hash-prefix match with h(target), ties
        broken by smaller distance then smaller node id.  Returns the winner as ``(distance, node)``,
        or None for an empty row.
        """
        table = self._tables.get(source)
        if table is None:
            members, distances = row[0], row[1]
            hash_of = self._grouping.hash_of
            triples = sorted(
                zip(map(hash_of, members), members, distances)
            )
            table = (
                [h for h, _, _ in triples],
                [node for _, node, _ in triples],
                [distance for _, _, distance in triples],
            )
            self._tables[source] = table
        hashes, nodes, distances = table
        if not hashes:
            return None
        target_hash = self._grouping.hash_of(target)
        position = bisect.bisect_left(hashes, target_hash)
        best_match = -1
        for neighbor in (position - 1, position):
            if 0 <= neighbor < len(hashes):
                best_match = max(
                    best_match,
                    common_prefix_length(hashes[neighbor], target_hash),
                )
        if best_match < 0:
            return None
        if best_match == 0:
            lo, hi = 0, len(hashes)
        else:
            shift = HASH_BITS - best_match
            low_value = (target_hash >> shift) << shift
            lo = bisect.bisect_left(hashes, low_value)
            hi = bisect.bisect_left(hashes, low_value + (1 << shift))
        best: tuple[float, int] | None = None
        for index in range(lo, hi):
            key = (distances[index], nodes[index])
            if best is None or key < best:
                best = key
        return best
