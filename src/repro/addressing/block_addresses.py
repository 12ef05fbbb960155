"""The fixed-size address alternative of §4.2 (hierarchical block assignment).

The paper's default address embeds an explicit route, which is variable
length (worst case Õ(√n) bits on a ring).  §4.2 sketches the alternative:

    "The explicit route could be eliminated.  Briefly, an address would be
    fixed at O(log n) bits; each landmark ℓ would dynamically partition this
    block of addresses among its neighbors in proportion to their number of
    descendants, and this would continue recursively down the shortest-path
    tree rooted at ℓ, analogous to a hierarchical assignment of IP
    addresses."

The paper chose the explicit-route design because it is simpler and because
the block scheme "actually increase[s] the mean address size in practice".
This module implements the block scheme so that claim can be measured (see
the address-design ablation experiment): each landmark owns a 2^B-value
block, recursively split among subtree children proportionally to their
descendant counts (every subtree gets at least one value), and a node's
address is (landmark id, block offset).  Forwarding works by each node
remembering, per child, the sub-range delegated to it -- state that is
already covered by the label-mapping accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.graphs.topology import Topology
from repro.utils.validation import require_positive

__all__ = ["BlockAddress", "BlockAddressAllocator"]


@dataclass(frozen=True)
class BlockAddress:
    """A fixed-size address: (landmark, offset within the landmark's block).

    Attributes
    ----------
    node:
        The addressed node.
    landmark:
        The landmark whose shortest-path tree the node hangs off.
    offset:
        The node's position within the landmark's address block.
    bits:
        The (fixed) number of bits of the offset field.
    """

    node: int
    landmark: int
    offset: int
    bits: int

    @property
    def size_bytes(self) -> float:
        """Address size in fractional bytes: landmark id (4 B) + offset bits."""
        return 4.0 + self.bits / 8.0


class BlockAddressAllocator:
    """Assigns fixed-size block addresses down a landmark's shortest-path tree.

    Parameters
    ----------
    topology:
        The network.
    tree_parents:
        For one landmark's shortest-path tree: mapping node -> parent (the
        landmark itself is absent or maps to a negative value).
    landmark:
        The tree's root.
    block_bits:
        Number of offset bits.  Defaults to ``ceil(log2(n)) + 2`` -- O(log n)
        with the small constant slack the recursive proportional split needs
        to guarantee every subtree at least one value.
    """

    def __init__(
        self,
        topology: Topology,
        landmark: int,
        tree_parents: Mapping[int, int],
        *,
        block_bits: int | None = None,
    ) -> None:
        self._topology = topology
        self._landmark = landmark
        self._parents = {
            node: parent for node, parent in tree_parents.items() if parent >= 0
        }
        n = topology.num_nodes
        require_positive("num_nodes", n)
        if block_bits is None:
            block_bits = max(1, math.ceil(math.log2(max(n, 2)))) + 2
        require_positive("block_bits", block_bits)
        self._block_bits = block_bits

        self._children: dict[int, list[int]] = {}
        for node, parent in self._parents.items():
            self._children.setdefault(parent, []).append(node)
        for children in self._children.values():
            children.sort()

        self._subtree_sizes: dict[int, int] = {}
        self._compute_subtree_size(landmark)
        self._offsets: dict[int, int] = {}
        self._ranges: dict[int, tuple[int, int]] = {}
        self._assign(landmark, 0, 1 << block_bits)

    # -- construction helpers -------------------------------------------------

    def _compute_subtree_size(self, root: int) -> int:
        # Iterative post-order to avoid recursion limits on deep trees (rings).
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self._subtree_sizes[node] = 1 + sum(
                    self._subtree_sizes[child]
                    for child in self._children.get(node, ())
                )
                continue
            stack.append((node, True))
            for child in self._children.get(node, ()):
                stack.append((child, False))
        return self._subtree_sizes[root]

    def _assign(self, root: int, start: int, size: int) -> None:
        """Recursively split [start, start+size) among ``root`` and its subtrees."""
        stack = [(root, start, size)]
        while stack:
            node, node_start, node_size = stack.pop()
            if node_size < 1:
                raise ValueError(
                    f"address block exhausted at node {node}; "
                    f"increase block_bits (currently {self._block_bits})"
                )
            self._ranges[node] = (node_start, node_size)
            self._offsets[node] = node_start
            children = self._children.get(node, ())
            if not children:
                continue
            # One value for the node itself, the rest split proportionally to
            # descendant counts.  Every child is guaranteed at least as many
            # values as it has subtree nodes, so the recursion never runs out
            # as long as the root block holds >= n values (the default block
            # size holds ~4n).
            remaining = node_size - 1
            total_descendants = sum(self._subtree_sizes[c] for c in children)
            if remaining < total_descendants:
                raise ValueError(
                    f"address block too small at node {node}: {remaining} values "
                    f"for {total_descendants} descendants; increase block_bits"
                )
            block_end = node_start + node_size
            cursor = node_start + 1
            descendants_after = total_descendants
            for index, child in enumerate(children):
                child_nodes = self._subtree_sizes[child]
                descendants_after -= child_nodes
                if index == len(children) - 1:
                    share = block_end - cursor
                else:
                    proportional = int(
                        round(remaining * child_nodes / total_descendants)
                    )
                    share = max(child_nodes, proportional)
                    # Leave enough room for every remaining child's subtree.
                    share = min(share, block_end - cursor - descendants_after)
                stack.append((child, cursor, share))
                cursor += share

    # -- queries -----------------------------------------------------------------

    @property
    def block_bits(self) -> int:
        """Number of offset bits in every address."""
        return self._block_bits

    def covered_nodes(self) -> set[int]:
        """Nodes of the landmark's tree that received an address."""
        return set(self._offsets)

    def address_of(self, node: int) -> BlockAddress:
        """Return the fixed-size address of ``node``.

        Raises
        ------
        KeyError
            If the node is not part of this landmark's tree.
        """
        return BlockAddress(
            node=node,
            landmark=self._landmark,
            offset=self._offsets[node],
            bits=self._block_bits,
        )

    def range_of(self, node: int) -> tuple[int, int]:
        """Return the (start, size) sub-block delegated to ``node``'s subtree."""
        return self._ranges[node]
