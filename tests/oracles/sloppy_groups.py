"""The sloppy-group definitions of §4.4, written out member by member.

:class:`repro.core.sloppy_groups.SloppyGrouping` answers the two questions
the program asks -- does ``holder`` store ``owner``'s address, and does a
node believe another is in its group -- in O(1).  These functions spell out
the sets the paper defines from them, scanning every node:

* :func:`group_of` -- G(v), the nodes sharing v's first k bits by v's k;
* :func:`stored_addresses` -- the owners whose addresses v stores, the
  count ``DiscoRouting`` keeps per node;
* :func:`core_group_of` -- G'(v), the members v and the member agree on;
* :func:`best_group_contact` -- the vicinity member with the longest prefix
  match to the target (ties by distance, then id), the answer
  ``resolution.GroupContactIndex``'s bisect must equal.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.sloppy_groups import SloppyGrouping
from repro.naming.hashspace import common_prefix_length, hash_prefix

__all__ = [
    "best_group_contact",
    "core_group_of",
    "group_of",
    "stored_addresses",
]


def group_of(grouping: SloppyGrouping, node: int) -> set[int]:
    """G(node): nodes sharing node's first k bits, by node's own k."""
    k = grouping.prefix_bits_of(node)
    own_prefix = hash_prefix(grouping.hash_of(node), k)
    return {
        other
        for other in range(grouping.num_nodes)
        if hash_prefix(grouping.hash_of(other), k) == own_prefix
    }


def stored_addresses(grouping: SloppyGrouping, holder: int) -> set[int]:
    """The nodes whose addresses ``holder`` stores (itself included)."""
    return {
        owner
        for owner in range(grouping.num_nodes)
        if grouping.stores_address_of(holder, owner)
    }


def core_group_of(grouping: SloppyGrouping, node: int) -> set[int]:
    """G'(node): members on which node and the member both agree."""
    return {
        other
        for other in range(grouping.num_nodes)
        if grouping.stores_address_of(other, node)
        and grouping.stores_address_of(node, other)
    }


def best_group_contact(
    grouping: SloppyGrouping, target: int, candidates: Mapping[int, float]
) -> int | None:
    """The vicinity member most likely to know ``target``'s address.

    "s locally computes h(t).  It then examines its vicinity and finds the
    node w in V(s) which has the longest prefix match between h(w) and
    h(t)" (§4.4).  ``candidates`` maps vicinity members to their distance
    from s; the longest prefix match wins, with ties broken by smaller
    distance then smaller node id.  None if ``candidates`` is empty.
    """
    target_hash = grouping.hash_of(target)
    best_node: int | None = None
    best_key: tuple[int, float, int] | None = None
    for node, distance in candidates.items():
        match = common_prefix_length(grouping.hash_of(node), target_hash)
        key = (-match, distance, node)
        if best_key is None or key < best_key:
            best_key = key
            best_node = node
    return best_node
