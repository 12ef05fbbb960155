"""Tests for repro.graphs.generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    internet_router_level,
    ring_graph,
    two_level_tree,
)
from small_graphs import grid_graph, line_graph, star_graph


class TestGnmRandomGraph:
    def test_node_and_edge_counts(self):
        topology = gnm_random_graph(100, 300, seed=1)
        assert topology.num_nodes == 100
        # _ensure_connected may add a handful of stitching edges.
        assert 300 <= topology.num_edges <= 310

    def test_average_degree_default(self):
        topology = gnm_random_graph(200, seed=2)
        assert topology.average_degree() == pytest.approx(8.0, rel=0.1)

    def test_connected(self):
        for seed in range(5):
            assert gnm_random_graph(80, seed=seed, average_degree=4.0).is_connected()

    def test_deterministic(self):
        a = gnm_random_graph(50, seed=7)
        b = gnm_random_graph(50, seed=7)
        assert a.content_key() == b.content_key()

    def test_different_seeds_differ(self):
        a = gnm_random_graph(50, seed=1)
        b = gnm_random_graph(50, seed=2)
        assert a.content_key() != b.content_key()

    def test_unit_weights(self):
        topology = gnm_random_graph(30, seed=3)
        assert all(w == 1.0 for _, _, w in topology.edges())

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gnm_random_graph(5, 100)

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            gnm_random_graph(0)


class TestGeometricRandomGraph:
    def test_connected_and_sized(self):
        topology = geometric_random_graph(150, seed=1)
        assert topology.num_nodes == 150
        assert topology.is_connected()

    def test_average_degree_reasonable(self):
        topology = geometric_random_graph(300, seed=2, average_degree=8.0)
        assert 5.0 <= topology.average_degree() <= 12.0

    def test_weights_are_latencies(self):
        topology = geometric_random_graph(100, seed=3, latency_scale=100.0)
        weights = [w for _, _, w in topology.edges()]
        assert all(w > 0 for w in weights)
        assert any(w != 1.0 for w in weights)

    def test_deterministic(self):
        a, b = (geometric_random_graph(60, seed=5) for _ in range(2))
        assert a.content_key() == b.content_key()

    def test_latency_scale_scales_weights(self):
        small = geometric_random_graph(60, seed=5, latency_scale=1.0)
        large = geometric_random_graph(60, seed=5, latency_scale=10.0)
        total = [sum(w for _, _, w in t.edges()) for t in (small, large)]
        assert total[1] == pytest.approx(10.0 * total[0], rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            geometric_random_graph(0)
        with pytest.raises(ValueError):
            geometric_random_graph(10, average_degree=0)


class TestInternetLikeGenerators:
    def test_as_level_connected(self):
        topology = internet_as_level(200, seed=1)
        assert topology.is_connected()
        assert topology.num_nodes == 200

    def test_as_level_heavy_tail(self):
        topology = internet_as_level(400, seed=2)
        degrees = sorted(topology.degree_sequence(), reverse=True)
        # Preferential attachment: the hub is far above the median degree.
        assert degrees[0] >= 5 * degrees[len(degrees) // 2]

    def test_as_level_unit_weights(self):
        topology = internet_as_level(100, seed=3)
        assert all(w == 1.0 for _, _, w in topology.edges())

    def test_as_level_rejects_tiny(self):
        with pytest.raises(ValueError):
            internet_as_level(2, attachment_edges=2)

    def test_router_level_connected(self):
        topology = internet_router_level(300, seed=1)
        assert topology.is_connected()
        assert topology.num_nodes == 300

    def test_router_level_has_low_degree_stubs_and_hubs(self):
        topology = internet_router_level(400, seed=2)
        degrees = topology.degree_sequence()
        assert min(degrees) <= 2
        assert max(degrees) >= 15

    def test_router_level_backbone_fraction_validated(self):
        with pytest.raises(ValueError):
            internet_router_level(100, backbone_fraction=0.0)
        with pytest.raises(ValueError):
            internet_router_level(100, backbone_fraction=1.5)

    def test_deterministic(self):
        for generator in (internet_as_level, internet_router_level):
            a, b = (generator(80, seed=9) for _ in range(2))
            assert a.content_key() == b.content_key()


class TestStructuredGraphs:
    def test_ring(self):
        topology = ring_graph(10)
        assert topology.num_edges == 10
        assert all(topology.degree(v) == 2 for v in topology.nodes())
        assert topology.is_connected()

    def test_ring_single_node(self):
        assert ring_graph(1).num_edges == 0

    def test_line(self):
        topology = line_graph(5)
        assert topology.num_edges == 4
        assert topology.degree(0) == 1
        assert topology.degree(2) == 2

    def test_grid(self):
        topology = grid_graph(3, 4)
        assert topology.num_nodes == 12
        assert topology.num_edges == 3 * 3 + 2 * 4
        assert topology.is_connected()

    def test_star(self):
        topology = star_graph(7)
        assert topology.num_nodes == 8
        assert topology.degree(0) == 7
        assert all(topology.degree(v) == 1 for v in range(1, 8))

    def test_two_level_tree_structure(self):
        branching = 4
        topology = two_level_tree(branching)
        assert topology.num_nodes == 1 + branching + branching * branching
        assert topology.degree(0) == branching
        # Grandchildren are leaves.
        assert topology.degree(topology.num_nodes - 1) == 1
        assert topology.is_connected()

    def test_two_level_tree_weights(self):
        topology = two_level_tree(3, child_weight=2.0)
        # Root-child edges have weight 1, child-grandchild edges weight 2.
        assert topology.edge_weight(0, 1) == 1.0
        grandchild = 1 + 3  # first grandchild of child 1
        assert topology.edge_weight(1, grandchild) == 2.0


class TestGeneratorProperties:
    @settings(deadline=None, max_examples=15)
    @given(
        n=st.integers(min_value=10, max_value=120),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_all_generators_connected(self, n, seed):
        assert gnm_random_graph(n, seed=seed, average_degree=4.0).is_connected()
        assert geometric_random_graph(n, seed=seed, average_degree=6.0).is_connected()
        assert internet_as_level(max(n, 10), seed=seed).is_connected()
