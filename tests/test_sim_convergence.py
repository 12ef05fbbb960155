"""Tests for the path-vector agents and the convergence runners."""

from __future__ import annotations

import pytest

from repro.core.landmarks import select_landmarks
from repro.core.vicinity import vicinity_size
from oracles.reference_paths import dijkstra
from repro.graphs.generators import gnm_random_graph, line_graph
from repro.graphs.topology import Topology
from repro.sim.convergence import (
    simulate_disco_convergence,
    simulate_nddisco_convergence,
    simulate_path_vector_convergence,
    simulate_s4_convergence,
)


@pytest.fixture(scope="module")
def convergence_topology():
    return gnm_random_graph(48, seed=21, average_degree=6.0)


@pytest.fixture(scope="module")
def path_vector_report(convergence_topology):
    return simulate_path_vector_convergence(convergence_topology, keep_tables=True)


class TestPathVectorConvergence:
    def test_every_node_learns_every_destination(
        self, convergence_topology, path_vector_report
    ):
        n = convergence_topology.num_nodes
        assert path_vector_report.tables is not None
        for node in range(n):
            assert len(path_vector_report.tables[node]) == n

    def test_costs_match_dijkstra(self, convergence_topology, path_vector_report):
        tables = path_vector_report.tables
        for source in (0, 17, 40):
            distances, _ = dijkstra(convergence_topology, source)
            for destination, (cost, path) in tables[source].items():
                assert cost == pytest.approx(distances[destination])
                assert path[0] == source
                assert path[-1] == destination

    def test_paths_are_valid_walks(self, convergence_topology, path_vector_report):
        tables = path_vector_report.tables
        for node in (3, 30):
            for _, (cost, path) in tables[node].items():
                for a, b in zip(path, path[1:]):
                    assert convergence_topology.has_edge(a, b)

    def test_messaging_scales_linearly_in_n(self):
        small = simulate_path_vector_convergence(
            gnm_random_graph(24, seed=1, average_degree=6.0)
        )
        large = simulate_path_vector_convergence(
            gnm_random_graph(96, seed=1, average_degree=6.0)
        )
        # Entries per node grow at least ~linearly with n (Ω(n) messaging).
        assert large.entries_per_node >= 2.5 * small.entries_per_node

    def test_report_totals_consistent(self, convergence_topology, path_vector_report):
        n = convergence_topology.num_nodes
        assert path_vector_report.messages_per_node == pytest.approx(
            path_vector_report.total_messages / n
        )
        assert path_vector_report.entries_per_node == pytest.approx(
            path_vector_report.total_entries / n
        )
        assert path_vector_report.num_nodes == n


class TestNDDiscoConvergence:
    def test_tables_bounded_by_capacity(self, convergence_topology):
        report = simulate_nddisco_convergence(
            convergence_topology, seed=3, keep_tables=True
        )
        n = convergence_topology.num_nodes
        capacity = vicinity_size(n)
        landmarks = report.extra["num_landmarks"]
        assert report.tables is not None
        for node in range(n):
            # self + landmarks + vicinity capacity is the hard ceiling.
            assert len(report.tables[node]) <= 1 + landmarks + capacity

    def test_landmark_routes_always_present(self, convergence_topology):
        landmarks = select_landmarks(convergence_topology.num_nodes, seed=3)
        report = simulate_nddisco_convergence(
            convergence_topology, seed=3, landmarks=landmarks, keep_tables=True
        )
        assert report.tables is not None
        for node in range(convergence_topology.num_nodes):
            for landmark in landmarks:
                if landmark != node:
                    assert landmark in report.tables[node]

    def test_landmark_routes_are_shortest(self, convergence_topology):
        landmarks = select_landmarks(convergence_topology.num_nodes, seed=3)
        report = simulate_nddisco_convergence(
            convergence_topology, seed=3, landmarks=landmarks, keep_tables=True
        )
        for landmark in landmarks:
            distances, _ = dijkstra(convergence_topology, landmark)
            for node in range(convergence_topology.num_nodes):
                if node == landmark:
                    continue
                cost, _ = report.tables[node][landmark]
                assert cost == pytest.approx(distances[node])

    def test_cheaper_than_path_vector(self, convergence_topology, path_vector_report):
        report = simulate_nddisco_convergence(convergence_topology, seed=3)
        assert report.entries_per_node < path_vector_report.entries_per_node

    def test_vicinity_routes_mostly_match_static(self, convergence_topology):
        from repro.core.vicinity import compute_vicinities

        report = simulate_nddisco_convergence(
            convergence_topology, seed=3, keep_tables=True
        )
        static = compute_vicinities(convergence_topology)
        n = convergence_topology.num_nodes
        total = 0
        matched = 0
        for node in range(n):
            members = set(static.row(node)[0].tolist()) - {node}
            learned = set(report.tables[node]) - {node}
            total += len(members)
            matched += len(members & learned)
        assert matched / total >= 0.75


class TestS4Convergence:
    def test_runs_and_reports(self, convergence_topology):
        report = simulate_s4_convergence(convergence_topology, seed=3)
        assert report.protocol == "S4"
        assert report.total_messages > 0
        assert report.extra["num_landmarks"] >= 1

    def test_cluster_tables_respect_definition(self, convergence_topology):
        landmarks = select_landmarks(convergence_topology.num_nodes, seed=3)
        report = simulate_s4_convergence(
            convergence_topology, seed=3, landmarks=landmarks, keep_tables=True
        )
        # Destination's distance to its closest landmark.
        landmark_distance = {}
        for node in range(convergence_topology.num_nodes):
            landmark_distance[node] = min(
                dijkstra(convergence_topology, lm)[0][node] for lm in landmarks
            )
        for node in range(0, convergence_topology.num_nodes, 7):
            for destination, (cost, _) in report.tables[node].items():
                if destination == node or destination in landmarks:
                    continue
                assert cost < landmark_distance[destination] + 1e-9


class TestDiscoConvergence:
    def test_adds_overhead_over_nddisco(self, convergence_topology):
        nddisco = simulate_nddisco_convergence(convergence_topology, seed=3)
        disco = simulate_disco_convergence(convergence_topology, seed=3, num_fingers=1)
        assert disco.entries_per_node > nddisco.entries_per_node
        assert disco.extra["overlay_coverage"] == pytest.approx(1.0)

    def test_three_fingers_cost_more_than_one(self, convergence_topology):
        one = simulate_disco_convergence(convergence_topology, seed=3, num_fingers=1)
        three = simulate_disco_convergence(convergence_topology, seed=3, num_fingers=3)
        assert three.total_messages >= one.total_messages
        assert three.protocol == "Disco-3-Finger"

    @pytest.mark.parametrize("num_fingers", [1, 3])
    def test_registration_and_lookups_bill_tree_hops(self, num_fingers):
        # A 6-node path with landmark 0: node v is v hops from its home
        # landmark whatever the link weights, and every node pays at least
        # one message.  (Rounded weighted distance used to stand in for
        # hops: 16 registrations at unit weight, 136 at 9, 6 at 0.1.)
        hops = sum(max(1, node) for node in range(6))
        for weight in (1.0, 9.0, 0.1):
            path = Topology.from_edges(6, [(v, v + 1, weight) for v in range(5)])
            report = simulate_disco_convergence(
                path, seed=1, landmarks={0}, num_fingers=num_fingers
            )
            assert report.extra["registration_messages"] == hops == 16
            assert report.extra["finger_lookup_messages"] == 2 * num_fingers * hops

    def test_still_cheaper_than_path_vector_at_scale(self):
        topology = gnm_random_graph(96, seed=5, average_degree=6.0)
        path_vector = simulate_path_vector_convergence(topology)
        disco = simulate_disco_convergence(topology, seed=5, num_fingers=1)
        assert disco.entries_per_node < path_vector.entries_per_node


class TestLineTopologyConvergence:
    def test_path_vector_on_line(self):
        line = line_graph(12)
        report = simulate_path_vector_convergence(line, keep_tables=True)
        # End node learns a route to the other end with the right cost.
        cost, path = report.tables[0][11]
        assert cost == pytest.approx(11.0)
        assert list(path) == list(range(12))
