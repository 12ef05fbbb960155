"""Flat names, the circular hash space, and consistent hashing.

Disco routes on *flat names*: arbitrary bit strings with no location
semantics (§2).  This package provides:

* :class:`repro.naming.FlatName` -- an immutable name with its SHA-256 hash,
  exposed both as an integer position in the circular hash space and as a
  bit string for prefix matching.
* :mod:`repro.naming.hashspace` -- arithmetic on the circular hash space
  (clockwise distances, prefix matching, successor ordering) used by the
  sloppy groups and the dissemination overlay.
* :class:`repro.naming.VNodeRing` -- the immutable virtual-node
  consistent-hash ring every resolution record is placed by, run over the
  landmark set for name resolution (§4.3).
"""

from repro.naming.names import FlatName, name_for_node
from repro.naming.hashspace import (
    HASH_BITS,
    HASH_SPACE,
    circular_distance,
    clockwise_distance,
    common_prefix_length,
    hash_prefix,
)
from repro.naming.consistent_hash import VNodeRing, ring_point

__all__ = [
    "FlatName",
    "HASH_BITS",
    "HASH_SPACE",
    "VNodeRing",
    "circular_distance",
    "clockwise_distance",
    "common_prefix_length",
    "hash_prefix",
    "name_for_node",
    "ring_point",
]
