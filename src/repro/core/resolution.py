"""The landmark name-resolution database (§4.3).

"We can solve this by running a consistent hashing database over the
(globally-known) set of landmarks...  Every node is aware of its own address
(ℓv, ℓv ; v), so it can insert it into the database, and other nodes can
query the database to determine v's address.  This state is soft: it can be
updated, for example, every t minutes and timed out after 2t + 1 minutes."

:class:`LandmarkResolutionDatabase` models the converged content of that
database: which landmark stores which (name → address) record and how many
entries and route bytes each landmark therefore carries (this feeds the
per-node state accounting of Theorem 2 and Fig. 7).  The soft state itself
-- refresh every t, expiry after 2t + 1 -- is served by
:class:`repro.resolution.ShardedResolutionService`, which
``tests/oracles/resolution_db.py`` holds to this database given the same
clock.
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
    """

    def __init__(self, landmarks: Iterable[int], *, virtual_nodes: int = 1) -> None:
        landmark_list = sorted(set(landmarks))
        if not landmark_list:
            raise ValueError("resolution database requires at least one landmark")
        self._ring = VNodeRing(landmark_list, virtual_nodes=virtual_nodes)
        self._records: dict[int, dict[FlatName, ResolutionRecord]] = {
            landmark: {} for landmark in landmark_list
        }

    # -- storage ------------------------------------------------------------

    def home_landmark(self, name: FlatName) -> int:
        """Return the landmark that owns ``name`` under consistent hashing."""
        return self._ring.successor(name.hash_value)

    def insert(self, name: FlatName, address: Address) -> int:
        """Insert/replace the record for ``name``; returns the home landmark."""
        landmark = self.home_landmark(name)
        self._records[landmark][name] = ResolutionRecord(name=name, address=address)
        return landmark

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

    def populate(
        self, names: Iterable[FlatName], addresses: Iterable[Address]
    ) -> None:
        """Bulk-insert the (name, address) pairs (converged-state construction)."""
        for name, address in zip(names, addresses):
            self.insert(name, address)
