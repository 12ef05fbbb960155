"""Sloppy groups: hash-prefix grouping of nodes (§4.4).

"Node v is a member of a 'sloppy group' of nodes that have in common the
first few bits of h(v).  Specifically, let G(v) be the set of nodes w for
which the first k := floor(log2(sqrt(n)/log n)) bits of h(w) match those of
h(v)."

The grouping is *sloppy* because k is computed from each node's own estimate
of n, which may differ slightly across nodes.  The paper leans on two
properties of this definition, both exposed here:

* **Consistency** -- k changes only when the estimate of n changes by a
  constant factor, so churn does not reshuffle groups.
* **Graceful disagreement** -- nodes whose estimates of n are within a factor
  of two disagree by at most one bit of prefix, so there is a "core group"
  G'(v) on which everyone agrees; dissemination over the ring reaches all of
  it.

:class:`SloppyGrouping` captures a converged grouping given (possibly
per-node) estimates of n, and answers the membership and storage questions
the static simulator needs: does v believe w is in its group, and does v
store w's address.  Which vicinity member of s shares the longest prefix
with t is :class:`repro.resolution.GroupContactIndex`'s question.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.naming.hashspace import HASH_BITS, common_prefix_length, hash_prefix
from repro.naming.names import FlatName
from repro.utils.validation import require_positive

__all__ = ["group_prefix_bits", "SloppyGrouping"]


def group_prefix_bits(estimated_n: float) -> int:
    """Return k = floor(log2(sqrt(n) / log n)) clamped to [0, HASH_BITS].

    For very small n the formula is non-positive; k = 0 then means "a single
    group containing everyone", which is the correct degenerate behaviour
    (every node stores every address, and state is trivially fine at that
    scale).
    """
    require_positive("estimated_n", estimated_n)
    if estimated_n < 4:
        return 0
    value = math.sqrt(estimated_n) / math.log(estimated_n)
    if value <= 1.0:
        return 0
    return min(HASH_BITS, int(math.floor(math.log2(value))))


class SloppyGrouping:
    """A converged sloppy grouping of named nodes.

    Parameters
    ----------
    names:
        Flat names indexed by node id (``names[v]`` is v's name).
    estimated_n:
        Either a single estimate shared by all nodes, or a per-node mapping
        (used by the n-estimate-error experiment, §5.2).  Each node derives
        its own prefix length k from its own estimate.
    """

    def __init__(
        self,
        names: Sequence[FlatName],
        estimated_n: float | Mapping[int, float] | None = None,
    ) -> None:
        if not names:
            raise ValueError("names must be non-empty")
        self._num_nodes = len(names)
        self._hashes = [name.hash_value for name in names]
        if estimated_n is None:
            estimates: dict[int, float] = {
                node: float(self._num_nodes) for node in range(self._num_nodes)
            }
        elif isinstance(estimated_n, Mapping):
            estimates = {
                node: float(estimated_n.get(node, self._num_nodes))
                for node in range(self._num_nodes)
            }
        else:
            estimates = {
                node: float(estimated_n) for node in range(self._num_nodes)
            }
        for node, estimate in estimates.items():
            require_positive(f"estimated_n[{node}]", estimate)
        # k is a function of the estimate alone: once per distinct value.
        bits_of = {
            estimate: group_prefix_bits(estimate)
            for estimate in set(estimates.values())
        }
        self._prefix_bits = {
            node: bits_of[estimate] for node, estimate in estimates.items()
        }

    # -- basic accessors ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the grouping."""
        return self._num_nodes

    def hash_of(self, node: int) -> int:
        """Return the hash-space position of ``node``'s name."""
        return self._hashes[node]

    def prefix_bits_of(self, node: int) -> int:
        """Return the prefix length k that ``node`` uses (from its own n estimate)."""
        return self._prefix_bits[node]

    # -- group membership --------------------------------------------------

    def believes_same_group(self, believer: int, other: int) -> bool:
        """Return True if ``believer`` considers ``other`` part of its own group."""
        k = self._prefix_bits[believer]
        return common_prefix_length(
            self._hashes[believer], self._hashes[other]
        ) >= k

    def stores_address_of(self, holder: int, owner: int) -> bool:
        """Return True if ``holder`` stores ``owner``'s address after convergence.

        In the converged state this is the *core-group* condition: the two
        hashes must share at least ``max(k_holder, k_owner)`` bits, so both
        the owner (who originates the announcement) and the holder (who must
        accept and retain it) consider each other group members.  The
        dynamic dissemination simulator verifies this model (§5.2
        static-accuracy experiment).
        """
        if holder == owner:
            return True
        needed = max(self._prefix_bits[holder], self._prefix_bits[owner])
        return common_prefix_length(
            self._hashes[holder], self._hashes[owner]
        ) >= needed

    def group_sizes(self) -> dict[int, int]:
        """Return the size of each group keyed by its prefix value.

        Only meaningful when all nodes share one estimate of n (and hence one
        k); with per-node estimates the notion of "the" group is fuzzy, and
        this method uses the majority k.
        """
        ks = sorted(self._prefix_bits.values())
        k = ks[len(ks) // 2]
        sizes: dict[int, int] = {}
        for value in self._hashes:
            prefix = hash_prefix(value, k)
            sizes[prefix] = sizes.get(prefix, 0) + 1
        return sizes
