"""Tests for repro.protocols.s4."""

from __future__ import annotations

import pytest

from oracles.reference_paths import dijkstra, path_length
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.generators import two_level_tree
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from repro.protocols.s4 import S4Routing


class TestClusters:
    def test_cluster_definition(self, s4_small, small_gnm):
        """w ∈ C(v) iff d(v, w) < d(w, ℓw)."""
        landmark_distance = {}
        for node in range(small_gnm.num_nodes):
            landmark = s4_small.closest_landmark(node)
            landmark_distance[node] = dijkstra(small_gnm, landmark)[0][node]
        for holder in (0, 7, 21):
            distances, _ = dijkstra(small_gnm, holder)
            for member in range(small_gnm.num_nodes):
                if member == holder:
                    continue
                expected = distances[member] < landmark_distance[member]
                assert s4_small.router().in_cluster(holder, member) == expected

    def test_cluster_size_consistency(self, s4_small, small_gnm):
        for node in range(0, small_gnm.num_nodes, 5):
            explicit = sum(
                1
                for member in range(small_gnm.num_nodes)
                if s4_small.router().in_cluster(node, member)
            )
            assert s4_small.cluster_size(node) == explicit

    def test_node_not_in_own_cluster(self, s4_small):
        assert not s4_small.router().in_cluster(4, 4)

    def test_cluster_path_is_shortest(self, s4_small, small_gnm):
        holder = next(
            v for v in range(small_gnm.num_nodes) if s4_small.cluster_size(v) > 0
        )
        member = next(
            m
            for m in range(small_gnm.num_nodes)
            if s4_small.router().in_cluster(holder, m)
        )
        path = s4_small.router().cluster_path(holder, member)
        distances, _ = dijkstra(small_gnm, holder)
        assert path[0] == holder
        assert path[-1] == member
        assert path_length(small_gnm, path) == pytest.approx(distances[member])


class TestStateExplosion:
    def test_two_level_tree_root_has_large_cluster(self):
        """The footnote-6 construction: the root's cluster is Θ(n)."""
        topology = two_level_tree(12)  # 157 nodes
        # Choose landmarks among the grandchildren only, so neither the root
        # nor the children are landmarks -- the adversarial case the paper
        # describes (random selection hits it with high probability at scale).
        grandchildren = list(range(1 + 12, topology.num_nodes))
        landmarks = set(grandchildren[::20]) or {grandchildren[0]}
        s4 = S4Routing(topology, landmarks=landmarks)
        root_cluster = s4.cluster_size(0)
        assert root_cluster >= 0.5 * len(grandchildren)

    def test_disco_stays_bounded_on_same_tree(self):
        topology = two_level_tree(12)
        grandchildren = list(range(1 + 12, topology.num_nodes))
        landmarks = set(grandchildren[::20]) or {grandchildren[0]}
        s4 = S4Routing(topology, landmarks=landmarks)
        nddisco = NDDiscoRouting(topology, landmarks=landmarks)
        s4_max = max(s4.state_entries(v) for v in topology.nodes())
        nd_max = max(nddisco.state_entries(v) for v in topology.nodes())
        assert nd_max < s4_max

    def test_state_imbalance_on_internet_like_graph(self, small_internet):
        s4 = S4Routing(small_internet, seed=2)
        report = measure_state(s4)
        summary = report.entry_summary
        # Heavy tail: max well above the mean on preferential-attachment graphs.
        assert summary.maximum >= 1.5 * summary.mean


class TestRouting:
    def test_self_route(self, s4_small):
        assert s4_small.first_packet_route(3, 3).path == (3,)

    def test_routes_are_walks(self, s4_small, small_gnm):
        for source, target in [(0, 63), (10, 50), (45, 2)]:
            for result in (
                s4_small.first_packet_route(source, target),
                s4_small.later_packet_route(source, target),
            ):
                assert result.path[0] == source
                assert result.path[-1] == target
                for a, b in zip(result.path, result.path[1:]):
                    assert small_gnm.has_edge(a, b)

    def test_later_packet_stretch_bound(self, s4_small):
        """S4 (Thorup-Zwick) guarantees stretch 3 once the label is known."""
        report = measure_stretch(s4_small, pair_sample=250, seed=4)
        assert report.later_summary.maximum <= 3.0 + 1e-9

    def test_first_packet_resolution_detour_can_exceed_3(self, small_geometric):
        """With the location-service detour the first packet has no stretch
        bound; on latency-weighted graphs it visibly exceeds 3."""
        s4 = S4Routing(small_geometric, seed=3)
        report = measure_stretch(s4, pair_sample=300, seed=5)
        assert report.first_summary.maximum > 3.0

    def test_first_packet_without_resolution_bounded(self, small_gnm):
        s4 = S4Routing(small_gnm, seed=1, resolve_first_packet=False)
        report = measure_stretch(s4, pair_sample=250, seed=6)
        assert report.first_summary.maximum <= 3.0 + 1e-9

    def test_shares_landmarks_with_nddisco_when_given(self, small_gnm, nddisco_small):
        s4 = S4Routing(small_gnm, landmarks=nddisco_small.landmarks)
        assert s4.landmarks == nddisco_small.landmarks

    def test_landmark_path_rejects_non_landmark_root(self, s4_small):
        landmark = next(iter(s4_small.landmarks))
        path = s4_small.landmark_path(landmark, 9)
        assert path[0] == landmark and path[-1] == 9
        non_landmark = next(
            v
            for v in range(s4_small.topology.num_nodes)
            if v not in s4_small.landmarks
        )
        with pytest.raises(KeyError, match=f"{non_landmark} is not a landmark"):
            s4_small.landmark_path(non_landmark, 0)

    def test_out_of_range(self, s4_small):
        with pytest.raises(ValueError):
            s4_small.first_packet_route(0, 10_000)

    def test_names_length_validated(self, small_gnm):
        from repro.naming.names import name_for_node

        with pytest.raises(ValueError):
            S4Routing(small_gnm, names=[name_for_node(0)])
