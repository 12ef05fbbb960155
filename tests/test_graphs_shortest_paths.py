"""Tests for repro.graphs.shortest_paths, including networkx oracles."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import gnm_random_graph
from repro.graphs.shortest_paths import (
    all_pairs_sampled_distances,
    dijkstra,
    dijkstra_k_nearest,
    dijkstra_radius,
    extract_path,
    path_length,
    shortest_path,
    shortest_path_tree,
)
from repro.graphs.topology import Topology


@pytest.fixture()
def weighted_graph() -> Topology:
    """A small weighted graph with a known structure.

        0 -1- 1 -1- 2
        |         /
        4       1
        |     /
        3 --/
    """
    return Topology.from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 4.0), (2, 3, 1.0)]
    )


class TestDijkstra:
    def test_distances(self, weighted_graph):
        distances, _ = dijkstra(weighted_graph, 0)
        assert distances == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}

    def test_predecessors_form_paths(self, weighted_graph):
        _, predecessors = dijkstra(weighted_graph, 0)
        assert extract_path(predecessors, 0, 3) == [0, 1, 2, 3]

    def test_targets_early_stop_still_correct(self, weighted_graph):
        distances, _ = dijkstra(weighted_graph, 0, targets=[1])
        assert distances[1] == 1.0

    def test_source_only_in_singleton(self):
        topology = Topology.from_edges(1, [])
        distances, predecessors = dijkstra(topology, 0)
        assert distances == {0: 0.0}
        assert predecessors == {}

    def test_unreachable_nodes_absent(self):
        topology = Topology.from_edges(4, [(0, 1)])
        distances, _ = dijkstra(topology, 0)
        assert 2 not in distances
        assert 3 not in distances

    def test_matches_networkx_on_random_graph(self):
        topology = gnm_random_graph(60, seed=9, average_degree=5.0)
        graph = topology.to_networkx()
        for source in (0, 7, 31):
            distances, _ = dijkstra(topology, source)
            expected = nx.single_source_dijkstra_path_length(graph, source)
            assert distances == pytest.approx(expected)

    def test_matches_networkx_on_weighted_graph(self):
        from repro.graphs.generators import geometric_random_graph

        topology = geometric_random_graph(80, seed=10, average_degree=7.0)
        graph = topology.to_networkx()
        distances, _ = dijkstra(topology, 5)
        expected = nx.single_source_dijkstra_path_length(graph, 5)
        assert set(distances) == set(expected)
        for node, value in expected.items():
            assert distances[node] == pytest.approx(value)


class TestDijkstraKNearest:
    def test_returns_exactly_k(self, weighted_graph):
        distances, _ = dijkstra_k_nearest(weighted_graph, 0, 2)
        assert len(distances) == 2
        assert set(distances) == {0, 1}

    def test_k_larger_than_component(self, weighted_graph):
        distances, _ = dijkstra_k_nearest(weighted_graph, 0, 100)
        assert len(distances) == 4

    def test_members_are_the_closest(self):
        topology = gnm_random_graph(50, seed=4, average_degree=5.0)
        k = 10
        near, _ = dijkstra_k_nearest(topology, 0, k)
        full, _ = dijkstra(topology, 0)
        cutoff = max(near.values())
        # Every node strictly closer than the cutoff must be included.
        for node, distance in full.items():
            if distance < cutoff:
                assert node in near

    def test_invalid_k(self, weighted_graph):
        with pytest.raises(ValueError):
            dijkstra_k_nearest(weighted_graph, 0, 0)

    def test_paths_extractable(self, weighted_graph):
        distances, predecessors = dijkstra_k_nearest(weighted_graph, 0, 3)
        for node in distances:
            path = extract_path(predecessors, 0, node)
            assert path[0] == 0
            assert path[-1] == node


class TestDijkstraRadius:
    def test_strict_boundary(self, weighted_graph):
        distances, _ = dijkstra_radius(weighted_graph, 0, 2.0)
        assert set(distances) == {0, 1}  # node 2 is at exactly 2.0 -> excluded

    def test_inclusive_boundary(self, weighted_graph):
        distances, _ = dijkstra_radius(weighted_graph, 0, 2.0, inclusive=True)
        assert set(distances) == {0, 1, 2}

    def test_zero_radius_returns_source(self, weighted_graph):
        distances, _ = dijkstra_radius(weighted_graph, 0, 0.0)
        assert set(distances) == {0}

    def test_negative_radius_rejected(self, weighted_graph):
        with pytest.raises(ValueError):
            dijkstra_radius(weighted_graph, 0, -1.0)

    def test_radius_covers_whole_graph(self, weighted_graph):
        distances, _ = dijkstra_radius(weighted_graph, 0, 100.0)
        assert len(distances) == 4


class TestPathHelpers:
    def test_extract_path_source_equals_target(self):
        assert extract_path({}, 3, 3) == [3]

    def test_extract_path_unreachable_raises(self):
        with pytest.raises(ValueError):
            extract_path({}, 0, 5)

    def test_extract_path_cycle_detection(self):
        with pytest.raises(ValueError):
            extract_path({1: 2, 2: 1}, 0, 1)

    def test_shortest_path_endpoints(self, weighted_graph):
        path = shortest_path(weighted_graph, 0, 3)
        assert path == [0, 1, 2, 3]

    def test_path_length(self, weighted_graph):
        assert path_length(weighted_graph, [0, 1, 2, 3]) == pytest.approx(3.0)

    def test_path_length_single_node(self, weighted_graph):
        assert path_length(weighted_graph, [2]) == 0.0

    def test_path_length_invalid_edge(self, weighted_graph):
        with pytest.raises(ValueError):
            path_length(weighted_graph, [0, 2])

    def test_path_length_empty_raises(self, weighted_graph):
        with pytest.raises(ValueError):
            path_length(weighted_graph, [])

    def test_shortest_path_tree_is_full_dijkstra(self, weighted_graph):
        distances, _ = shortest_path_tree(weighted_graph, 2)
        assert len(distances) == 4


class TestAllPairsSampled:
    def test_matches_individual_queries(self, weighted_graph):
        pairs = [(0, 3), (3, 0), (1, 2)]
        result = all_pairs_sampled_distances(weighted_graph, pairs)
        assert result[(0, 3)] == pytest.approx(3.0)
        assert result[(3, 0)] == pytest.approx(3.0)
        assert result[(1, 2)] == pytest.approx(1.0)

    def test_unreachable_pair_raises(self):
        topology = Topology.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            all_pairs_sampled_distances(topology, [(0, 3)])

    def test_groups_by_source(self):
        topology = gnm_random_graph(40, seed=8, average_degree=5.0)
        pairs = [(0, 5), (0, 7), (3, 9)]
        result = all_pairs_sampled_distances(topology, pairs)
        assert set(result) == set(pairs)


class TestPropertyBased:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dijkstra_matches_networkx_random_seeds(self, seed):
        topology = gnm_random_graph(30, seed=seed, average_degree=4.0)
        graph = topology.to_networkx()
        distances, _ = dijkstra(topology, 0)
        expected = nx.single_source_dijkstra_path_length(graph, 0)
        assert distances == pytest.approx(expected)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=20),
    )
    def test_k_nearest_is_prefix_of_full_ordering(self, seed, k):
        topology = gnm_random_graph(25, seed=seed, average_degree=4.0)
        near, _ = dijkstra_k_nearest(topology, 0, k)
        full, _ = dijkstra(topology, 0)
        ordered = sorted(full.values())
        expected_count = min(k, len(full))
        assert len(near) == expected_count
        assert max(near.values()) <= ordered[expected_count - 1] + 1e-9
