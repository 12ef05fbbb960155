"""Tests for repro.graphs.io, repro.graphs.sampling, and repro.graphs.analysis."""

from __future__ import annotations

import pytest

from oracles.reference_paths import to_networkx
from repro.graphs.analysis import estimate_diameter, profile_topology
from repro.graphs.generators import gnm_random_graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.sampling import one_destination_per_node, sample_nodes, sample_pairs
from repro.graphs.topology import Topology
from small_graphs import line_graph


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        topology = gnm_random_graph(40, seed=1, average_degree=5.0)
        path = tmp_path / "graph.edges"
        write_edge_list(topology, path)
        loaded = read_edge_list(path)
        assert loaded.content_key() == topology.content_key()
        assert loaded.name == topology.name

    def test_round_trip_weighted(self, tmp_path):
        topology = Topology.from_edges(3, [(0, 1, 2.5), (1, 2, 0.125)])
        path = tmp_path / "weighted.edges"
        write_edge_list(topology, path)
        loaded = read_edge_list(path)
        assert loaded.edge_weight(0, 1) == 2.5
        assert loaded.edge_weight(1, 2) == 0.125

    def test_read_without_header_infers_size(self, tmp_path):
        path = tmp_path / "raw.edges"
        path.write_text("0 1\n1 2\n")
        loaded = read_edge_list(path)
        assert loaded.num_nodes == 3
        assert loaded.num_edges == 2

    def test_read_ignores_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# a comment\n\n0 1\n# another\n1 2 4.0\n")
        loaded = read_edge_list(path)
        assert loaded.num_edges == 2

    def test_read_name_override(self, tmp_path):
        path = tmp_path / "named.edges"
        path.write_text("0 1\n")
        assert read_edge_list(path, name="custom").name == "custom"

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(path)

    def test_non_numeric_raises(self, tmp_path):
        path = tmp_path / "bad2.edges"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_edge_list(path)

    def test_negative_node_raises(self, tmp_path):
        path = tmp_path / "bad3.edges"
        path.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            read_edge_list(path)

    def test_node_exceeding_header_raises(self, tmp_path):
        path = tmp_path / "bad4.edges"
        path.write_text("# nodes 2\n0 5\n")
        with pytest.raises(ValueError, match="declares"):
            read_edge_list(path)


class TestSampling:
    def test_sample_nodes_subset(self, small_gnm):
        nodes = sample_nodes(small_gnm, 10, seed=1)
        assert len(nodes) == 10
        assert len(set(nodes)) == 10
        assert all(0 <= v < small_gnm.num_nodes for v in nodes)

    def test_sample_nodes_all_when_count_large(self, small_gnm):
        nodes = sample_nodes(small_gnm, 10_000, seed=1)
        assert nodes == list(small_gnm.nodes())

    def test_sample_nodes_deterministic(self, small_gnm):
        assert sample_nodes(small_gnm, 10, seed=5) == sample_nodes(
            small_gnm, 10, seed=5
        )

    def test_sample_pairs_distinct_endpoints(self, small_gnm):
        pairs = sample_pairs(small_gnm, 50, seed=2)
        assert len(pairs) == 50
        assert all(s != t for s, t in pairs)

    def test_sample_pairs_all_when_exhaustive(self):
        topology = line_graph(4)
        pairs = sample_pairs(topology, 1000, seed=0)
        assert len(pairs) == 4 * 3

    def test_sample_pairs_requires_two_nodes(self):
        with pytest.raises(ValueError):
            sample_pairs(Topology.from_edges(1, []), 5)

    def test_one_destination_per_node(self, small_gnm):
        pairs = one_destination_per_node(small_gnm, seed=3)
        assert len(pairs) == small_gnm.num_nodes
        assert all(s != t for s, t in pairs)
        assert [s for s, _ in pairs] == list(small_gnm.nodes())

    def test_one_destination_deterministic(self, small_gnm):
        assert one_destination_per_node(small_gnm, seed=4) == one_destination_per_node(
            small_gnm, seed=4
        )


class TestAnalysis:
    def test_estimate_diameter_line(self):
        topology = line_graph(10)
        assert estimate_diameter(topology) == pytest.approx(9.0)

    def test_estimate_diameter_lower_bounds_truth(self, small_gnm):
        import networkx as nx

        estimate = estimate_diameter(small_gnm, sweeps=4)
        true_diameter = nx.diameter(to_networkx(small_gnm))
        # weighted estimate on a unit-weight graph equals hop diameter here
        assert estimate <= true_diameter + 1e-9
        assert estimate >= true_diameter * 0.5

    def test_profile_topology_fields(self, small_gnm):
        profile = profile_topology(small_gnm, pair_samples=50, seed=1)
        assert profile.num_nodes == small_gnm.num_nodes
        assert profile.num_edges == small_gnm.num_edges
        assert profile.average_degree == pytest.approx(small_gnm.average_degree())
        assert profile.max_degree == small_gnm.max_degree()
        assert profile.path_length_summary.count == 50
        assert profile.estimated_diameter > 0
