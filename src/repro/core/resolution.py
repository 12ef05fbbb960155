"""The landmark name-resolution database (§4.3).

"We can solve this by running a consistent hashing database over the
(globally-known) set of landmarks...  Every node is aware of its own address
(ℓv, ℓv ; v), so it can insert it into the database, and other nodes can
query the database to determine v's address.  This state is soft: it can be
updated, for example, every t minutes and timed out after 2t + 1 minutes."

:class:`LandmarkResolutionDatabase` models the converged content of that
database as what the state accounting reads of it: how many (name →
address) records each landmark stores and how many explicit-route bits
those addresses carry (this feeds the per-node state accounting of
Theorem 2 and Fig. 7).  The records themselves -- and the soft state,
refresh every t and expiry after 2t + 1 -- are served by
:class:`repro.resolution.ShardedResolutionService`;
``tests/oracles/resolution_db.py`` keeps the record-by-record database that
both are held to.
"""

from __future__ import annotations

from typing import Iterable

from repro.naming.consistent_hash import VNodeRing
from repro.naming.names import FlatName

__all__ = ["LandmarkResolutionDatabase"]


class LandmarkResolutionDatabase:
    """Consistent-hashing storage of (name → address) records on landmarks.

    Parameters
    ----------
    landmarks:
        The landmark node ids that jointly host the database.
    names:
        The stored names, one per node.
    route_bits:
        The explicit-route label bits of each node's address, aligned with
        ``names`` (:func:`repro.addressing.labels.address_bits`).
    virtual_nodes:
        Ring points per landmark; 1 reproduces the simple construction, and
        larger values provide the "multiple hash functions" load smoothing
        mentioned in §4.5.
    """

    def __init__(
        self,
        landmarks: Iterable[int],
        names: Iterable[FlatName],
        route_bits: Iterable[int],
        *,
        virtual_nodes: int = 1,
    ) -> None:
        landmark_list = sorted(set(landmarks))
        if not landmark_list:
            raise ValueError("resolution database requires at least one landmark")
        self._ring = VNodeRing(landmark_list, virtual_nodes=virtual_nodes)
        entries = dict.fromkeys(landmark_list, 0)
        bits = dict.fromkeys(landmark_list, 0)
        successor = self._ring.successor
        # Keyed by name like a store: a name given twice is one record,
        # the last address given for it.
        for name, route in dict(zip(names, route_bits)).items():
            home = successor(name.hash_value)
            entries[home] += 1
            bits[home] += route
        self._entries = entries
        self._route_bits = bits

    def home_landmark(self, name: FlatName) -> int:
        """Return the landmark that owns ``name`` under consistent hashing."""
        return self._ring.successor(name.hash_value)

    # -- state accounting ---------------------------------------------------

    def entries_at(self, landmark: int) -> int:
        """Number of resolution records stored at ``landmark`` (0 for non-hosts)."""
        return self._entries.get(landmark, 0)

    def route_bytes_at(self, landmark: int) -> float:
        """Explicit-route bytes of the addresses stored at ``landmark``.

        A record costs two names (its own and its address's landmark) plus
        its route's label bits / 8, so ``landmark`` holds ``2 * name_bytes
        * entries_at(landmark) + route_bytes_at(landmark)`` bytes of
        resolution state.
        """
        return self._route_bits.get(landmark, 0) / 8.0
