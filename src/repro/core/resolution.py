"""The landmark name-resolution database (§4.3).

"We can solve this by running a consistent hashing database over the
(globally-known) set of landmarks...  Every node is aware of its own address
(ℓv, ℓv ; v), so it can insert it into the database, and other nodes can
query the database to determine v's address.  This state is soft: it can be
updated, for example, every t minutes and timed out after 2t + 1 minutes."

:class:`LandmarkResolutionDatabase` models the converged content of that
database: which landmark stores which (name → address) record, how many
entries each landmark therefore carries (this feeds the per-node state
accounting of Theorem 2 and Fig. 7), and the lookup path a query would take.
Soft-state refresh/timeout behaviour is exercised by the discrete-event
simulator, which drives :meth:`insert` / :meth:`expire_older_than` with a
virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.addressing.address import Address
from repro.naming.consistent_hash import VNodeRing
from repro.naming.names import FlatName

__all__ = ["ResolutionRecord", "LandmarkResolutionDatabase"]


@dataclass(frozen=True)
class ResolutionRecord:
    """One soft-state record: a node's name, its address, and its insert time."""

    name: FlatName
    address: Address
    inserted_at: float = 0.0


class LandmarkResolutionDatabase:
    """Consistent-hashing storage of (name → address) records on landmarks.

    Parameters
    ----------
    landmarks:
        The landmark node ids that jointly host the database.
    virtual_nodes:
        Ring points per landmark; 1 reproduces the simple construction, and
        larger values provide the "multiple hash functions" load smoothing
        mentioned in §4.5.
    refresh_interval:
        The soft-state refresh period t (minutes in the paper, arbitrary
        virtual-time units here).  Records expire after ``2 * t + 1``.
    """

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
        self._refresh_interval = refresh_interval
        self._records: dict[int, dict[FlatName, ResolutionRecord]] = {
            landmark: {} for landmark in landmark_list
        }

    # -- configuration accessors -------------------------------------------

    @property
    def landmarks(self) -> list[int]:
        """The landmark ids hosting the database (sorted)."""
        return sorted(self._records)

    @property
    def refresh_interval(self) -> float:
        """The soft-state refresh period t."""
        return self._refresh_interval

    @property
    def timeout(self) -> float:
        """The soft-state timeout 2t + 1."""
        return 2.0 * self._refresh_interval + 1.0

    # -- storage ------------------------------------------------------------

    def home_landmark(self, name: FlatName) -> int:
        """Return the landmark that owns ``name`` under consistent hashing."""
        return self._ring.successor(name.hash_value)

    def insert(
        self, name: FlatName, address: Address, *, now: float = 0.0
    ) -> int:
        """Insert/refresh the record for ``name``; returns the home landmark."""
        landmark = self.home_landmark(name)
        self._records[landmark][name] = ResolutionRecord(
            name=name, address=address, inserted_at=now
        )
        return landmark

    def lookup(self, name: FlatName) -> Address | None:
        """Return the stored address for ``name``, or None if absent."""
        landmark = self.home_landmark(name)
        record = self._records[landmark].get(name)
        return record.address if record is not None else None

    def lookup_record(self, name: FlatName) -> ResolutionRecord | None:
        """Return the full stored record for ``name``, or None if absent."""
        landmark = self.home_landmark(name)
        return self._records[landmark].get(name)

    def expire_older_than(self, now: float) -> int:
        """Drop records older than the soft-state timeout; returns count dropped."""
        dropped = 0
        cutoff = now - self.timeout
        for records in self._records.values():
            stale = [name for name, rec in records.items() if rec.inserted_at < cutoff]
            for name in stale:
                del records[name]
                dropped += 1
        return dropped

    # -- state accounting ---------------------------------------------------

    def entries_at(self, landmark: int) -> int:
        """Number of resolution records stored at ``landmark`` (0 for non-hosts)."""
        return len(self._records.get(landmark, ()))

    def route_bytes_at(self, landmark: int) -> float:
        """Explicit-route bytes of the addresses stored at ``landmark``.

        A record costs two names (its own and its address's landmark, see
        :meth:`Address.mapping_entry_bytes`) plus its route's label bits /
        8, so ``landmark`` holds ``2 * name_bytes * entries_at(landmark) +
        route_bytes_at(landmark)`` bytes of resolution state.
        """
        records = self._records.get(landmark, {}).values()
        return sum(record.address.route.bits for record in records) / 8.0

    def load_distribution(self) -> dict[int, int]:
        """Return entries per landmark (the load-imbalance view of §4.5)."""
        return {landmark: len(records) for landmark, records in self._records.items()}

    def populate(
        self,
        names: Iterable[FlatName],
        addresses: Iterable[Address],
        *,
        now: float = 0.0,
    ) -> None:
        """Bulk-insert the (name, address) pairs (converged-state construction)."""
        for name, address in zip(names, addresses):
            self.insert(name, address, now=now)
