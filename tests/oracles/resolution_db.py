"""The converged resolution database given a soft-state clock (§4.3).

``LandmarkResolutionDatabase`` holds the converged records only; the
paper's soft state -- a record refreshed every t and timed out after
2t + 1 -- is served by ``ShardedResolutionService``.  At ``replicas=1`` the
service must store, serve, expire and count exactly what this subclass
does: the same home landmark per name, the same records, the same sweep.
"""

from __future__ import annotations

from typing import Iterable

from repro.addressing.address import Address
from repro.core.resolution import LandmarkResolutionDatabase, ResolutionRecord
from repro.naming.names import FlatName


def stored_record(
    database: LandmarkResolutionDatabase, name: FlatName
) -> ResolutionRecord | None:
    """The record ``database`` holds for ``name`` at its home, or None."""
    return database._records[database.home_landmark(name)].get(name)


class SoftStateDatabase(LandmarkResolutionDatabase):
    """The database with insert times, a ``2t + 1`` timeout and a sweep."""

    def __init__(
        self,
        landmarks: Iterable[int],
        *,
        virtual_nodes: int = 1,
        refresh_interval: float = 10.0,
    ) -> None:
        if refresh_interval <= 0:
            raise ValueError(
                f"refresh_interval must be > 0, got {refresh_interval}"
            )
        super().__init__(landmarks, virtual_nodes=virtual_nodes)
        self.timeout = 2.0 * refresh_interval + 1.0

    @property
    def landmarks(self) -> list[int]:
        """The landmark ids hosting the database (sorted)."""
        return sorted(self._records)

    def insert(
        self, name: FlatName, address: Address, *, now: float = 0.0
    ) -> int:
        landmark = self.home_landmark(name)
        self._records[landmark][name] = ResolutionRecord(
            name=name, address=address, inserted_at=now
        )
        return landmark

    def lookup_record(self, name: FlatName) -> ResolutionRecord | None:
        return stored_record(self, name)

    def lookup(self, name: FlatName) -> Address | None:
        record = stored_record(self, name)
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
