"""Tests for repro.addressing.block_addresses (§4.2 fixed-size alternative)."""

from __future__ import annotations

import pytest

from oracles.reference_paths import dijkstra
from repro.addressing.block_addresses import BlockAddressAllocator
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.generators import gnm_random_graph, line_graph, star_graph


def tree_parents_for(topology, root):
    """Full shortest-path-tree parent map rooted at ``root`` (root -> -1)."""
    _, parents = dijkstra(topology, root)
    full = {node: parents.get(node, -1) for node in topology.nodes()}
    full[root] = -1
    return full


@pytest.fixture(scope="module")
def gnm_allocator():
    topology = gnm_random_graph(120, seed=6, average_degree=6.0)
    allocator = BlockAddressAllocator(topology, 0, tree_parents_for(topology, 0))
    return topology, allocator


class TestAllocation:
    def test_covers_every_node(self, gnm_allocator):
        topology, allocator = gnm_allocator
        assert allocator.covered_nodes() == set(topology.nodes())

    def test_offsets_unique(self, gnm_allocator):
        topology, allocator = gnm_allocator
        offsets = [allocator.address_of(v).offset for v in topology.nodes()]
        assert len(set(offsets)) == topology.num_nodes

    def test_offsets_within_block(self, gnm_allocator):
        topology, allocator = gnm_allocator
        limit = 1 << allocator.block_bits
        for node in topology.nodes():
            assert 0 <= allocator.address_of(node).offset < limit

    def test_block_bits_is_logarithmic(self, gnm_allocator):
        topology, allocator = gnm_allocator
        assert allocator.block_bits <= 12  # ceil(log2(120)) + 2 = 9

    def test_child_ranges_nested_in_parent(self, gnm_allocator):
        topology, allocator = gnm_allocator
        parents = tree_parents_for(topology, 0)
        for node in topology.nodes():
            parent = parents[node]
            if parent < 0:
                continue
            child_start, child_size = allocator.range_of(node)
            parent_start, parent_size = allocator.range_of(parent)
            assert parent_start <= child_start
            assert child_start + child_size <= parent_start + parent_size

    def test_address_size_fixed(self, gnm_allocator):
        topology, allocator = gnm_allocator
        sizes = {allocator.address_of(v).size_bytes for v in topology.nodes()}
        assert len(sizes) == 1  # every address has the same (fixed) size

    def test_block_too_small_rejected(self):
        line = line_graph(40)
        with pytest.raises(ValueError):
            BlockAddressAllocator(line, 0, tree_parents_for(line, 0), block_bits=3)


class TestForwarding:
    def test_route_reaches_every_node(self, gnm_allocator):
        topology, allocator = gnm_allocator
        parents = tree_parents_for(topology, 0)
        for node in list(topology.nodes())[::7]:
            offset = allocator.address_of(node).offset
            path = allocator.route(offset)
            assert path[0] == 0
            assert path[-1] == node
            # The forwarding path follows tree edges.
            for child, parent in zip(path[1:], path):
                assert parents[child] == parent

    def test_forward_rejects_foreign_offset(self, gnm_allocator):
        topology, allocator = gnm_allocator
        # A leaf's block contains only its own offset.
        leaf = max(
            topology.nodes(),
            key=lambda v: (allocator.range_of(v)[1] == 1, v),
        )
        start, size = allocator.range_of(leaf)
        if size == 1:
            foreign = (start + 1) % (1 << allocator.block_bits)
            with pytest.raises(ValueError):
                allocator.forward(leaf, foreign)

    def test_star_topology(self):
        star = star_graph(12)
        allocator = BlockAddressAllocator(star, 0, tree_parents_for(star, 0))
        for leaf in range(1, 13):
            assert allocator.route(allocator.address_of(leaf).offset) == [0, leaf]

    def test_line_topology_deep_tree(self):
        line = line_graph(50)
        allocator = BlockAddressAllocator(line, 0, tree_parents_for(line, 0))
        assert allocator.route(allocator.address_of(49).offset) == list(range(50))


class TestPaperClaim:
    def test_block_addresses_larger_than_explicit_on_internet_like(self):
        """§4.2: the fixed-block design 'actually increase[s] the mean address
        size in practice' compared to explicit routes."""
        from repro.graphs.generators import internet_router_level

        topology = internet_router_level(300, seed=9)
        nddisco = NDDiscoRouting(topology, seed=9)
        explicit_mean = sum(
            a.route.size_bytes for a in nddisco.addresses
        ) / topology.num_nodes

        landmark = nddisco.closest_landmark(0)
        allocator = BlockAddressAllocator(
            topology, landmark, tree_parents_for(topology, landmark)
        )
        block_mean = sum(
            allocator.address_of(v).size_bytes for v in topology.nodes()
        ) / topology.num_nodes
        assert block_mean > explicit_mean
