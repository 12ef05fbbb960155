"""The landmark resolution database record by record (§4.3).

``LandmarkResolutionDatabase`` keeps what the state accounting reads of the
converged database: a record count and a route-bit sum per landmark.  This
oracle keeps the records themselves -- one ``name -> record`` dict per
landmark, placed by its own ring -- plus the paper's soft state, a record
refreshed every t and timed out after 2t + 1.  The converged database must
count exactly its records (``entries_at``, ``route_bytes_at``), and at
``replicas=1`` ``ShardedResolutionService`` must store, serve, expire and
count exactly what it does: the same home landmark per name, the same
records, the same sweep.

:func:`scheme_addresses` builds one :class:`Address` per node of a
scheme, the objects the schemes held before an address was a row of the
SPT slabs: the closest landmark's path, its per-hop labels and their bits
summed hop by hop (not by the schemes' walk,
:func:`~repro.addressing.labels.address_bits`).
"""

from __future__ import annotations

from typing import Iterable

from oracles.labels import explicit_route
from repro.addressing.address import Address
from repro.naming.consistent_hash import VNodeRing
from repro.naming.names import FlatName
from repro.resolution.service import ResolutionRecord

__all__ = ["SoftStateDatabase", "scheme_addresses", "scheme_records"]


def scheme_addresses(scheme) -> list[Address]:
    """One :class:`Address` per node of an ND-Disco or S4 ``scheme``."""
    topology, tables = scheme.topology, scheme.tables
    out = []
    for node in range(tables.num_nodes):
        landmark = tables.closest[node]
        route = explicit_route(topology, tables.spt_path(landmark, node))
        out.append(Address(node=node, landmark=landmark, route=route))
    return out


class SoftStateDatabase:
    """(name -> address) records on the landmarks, with insert times, a
    ``2t + 1`` timeout and a sweep."""

    def __init__(
        self,
        landmarks: Iterable[int],
        *,
        virtual_nodes: int = 1,
        refresh_interval: float = 10.0,
    ) -> None:
        landmark_list = sorted(set(landmarks))
        if not landmark_list:
            raise ValueError("resolution database requires at least one landmark")
        if refresh_interval <= 0:
            raise ValueError(
                f"refresh_interval must be > 0, got {refresh_interval}"
            )
        self._ring = VNodeRing(landmark_list, virtual_nodes=virtual_nodes)
        self._records: dict[int, dict[FlatName, ResolutionRecord]] = {
            landmark: {} for landmark in landmark_list
        }
        self.timeout = 2.0 * refresh_interval + 1.0

    @property
    def landmarks(self) -> list[int]:
        """The landmark ids hosting the database (sorted)."""
        return sorted(self._records)

    def home_landmark(self, name: FlatName) -> int:
        return self._ring.successor(name.hash_value)

    def insert(
        self, name: FlatName, address: Address, *, now: float = 0.0
    ) -> int:
        landmark = self.home_landmark(name)
        self._records[landmark][name] = ResolutionRecord(
            name=name, address=address, inserted_at=now
        )
        return landmark

    def populate(
        self,
        names: Iterable[FlatName],
        addresses: Iterable[Address],
        *,
        now: float = 0.0,
    ) -> None:
        for name, address in zip(names, addresses):
            self.insert(name, address, now=now)

    def lookup_record(self, name: FlatName) -> ResolutionRecord | None:
        return self._records[self.home_landmark(name)].get(name)

    def lookup(self, name: FlatName) -> Address | None:
        record = self.lookup_record(name)
        return record.address if record is not None else None

    def expire_older_than(self, now: float) -> int:
        """Drop records older than the timeout; returns the count dropped."""
        cutoff = now - self.timeout
        dropped = 0
        for records in self._records.values():
            stale = [
                name for name, record in records.items()
                if record.inserted_at < cutoff
            ]
            for name in stale:
                del records[name]
            dropped += len(stale)
        return dropped

    def load_distribution(self) -> dict[int, int]:
        """Entries per landmark (the load-imbalance view of §4.5)."""
        return {
            landmark: len(records) for landmark, records in self._records.items()
        }

    def records_at(self, landmark: int) -> list[ResolutionRecord]:
        """The records stored at ``landmark`` (none for a non-host)."""
        return list(self._records.get(landmark, {}).values())

    def entries_at(self, landmark: int) -> int:
        return len(self.records_at(landmark))

    def route_bytes_at(self, landmark: int) -> float:
        bits = sum(record.address.route.bits for record in self.records_at(landmark))
        return bits / 8.0


def scheme_records(scheme) -> SoftStateDatabase:
    """The records behind an ND-Disco or S4 scheme's resolution database:
    every node's name and address, on the same landmarks and ring width."""
    database = SoftStateDatabase(
        scheme.landmarks,
        virtual_nodes=scheme.resolution_database._ring.virtual_nodes,
    )
    database.populate(scheme._names, scheme_addresses(scheme))
    return database
