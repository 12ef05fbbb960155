"""Churn-path cache audit (regression).

``Topology`` caches three derived artifacts -- the CSR kernel snapshot
(``csr()``), the ``weight_profile()``, and the ``content_key()`` the
artifact cache keys substrates by.  Every mutation path a churn workload
can take (edge-down, edge-up, weight replacement, direct ``add_edge``) must
invalidate all three together.
"""

from __future__ import annotations

from repro.dynamics.stream import apply_edge_event, generate_churn_workload
from repro.graphs.generators import gnm_random_graph
from repro.graphs.topology import Topology


class TestMutationInvalidation:
    def test_add_edge_invalidates_all_derived_caches(self):
        topology = gnm_random_graph(64, seed=3, average_degree=6.0)
        csr = topology.csr()
        profile = topology.weight_profile()
        key = topology.content_key()
        topology.add_edge(0, 63, 0.3)  # irregular weight: profile must change
        assert topology.csr() is not csr
        assert topology.weight_profile() is not profile
        assert topology.weight_profile().min_weight == 0.3
        assert topology.content_key() != key
        assert topology.csr().num_edges == csr.num_edges + 1

    def test_weight_replacement_invalidates(self):
        topology = gnm_random_graph(64, seed=3, average_degree=6.0)
        u, v, weight = next(iter(topology.edges()))
        key = topology.content_key()
        csr = topology.csr()
        topology.add_edge(u, v, weight / 2.0)  # parallel edge -> min weight
        assert topology.content_key() != key
        assert topology.csr() is not csr
        assert topology.edge_weight(u, v) == weight / 2.0

    def test_copy_does_not_share_caches(self):
        topology = gnm_random_graph(64, seed=3, average_degree=6.0)
        csr = topology.csr()
        duplicate = topology.copy()
        assert duplicate.content_key() == topology.content_key()
        assert duplicate.csr() is not csr


class TestLinkFlapInvalidation:
    def test_edge_down_and_up_produce_fresh_snapshots(self):
        topology = gnm_random_graph(96, seed=7, average_degree=8.0)
        workload = generate_churn_workload(topology, num_events=4, seed=5)
        current = topology
        for event in workload:
            mutated = current.copy()
            mutated.csr()  # a live snapshot, which the event drops
            apply_edge_event(mutated, event)
            # The mutated topology's derived views reflect the event ...
            expected_edges = current.num_edges + (
                1 if event.kind == "edge-up" else -1
            )
            assert mutated.num_edges == expected_edges
            assert mutated.csr().num_edges == expected_edges
            assert mutated.content_key() != current.content_key()
            # ... and the base topology's caches are untouched.
            assert current.csr().num_edges == current.num_edges
            current = mutated

    def test_in_place_replay_matches_a_rebuilt_topology(self):
        topology = gnm_random_graph(96, seed=7, average_degree=8.0)
        workload = generate_churn_workload(
            topology, num_events=5, seed=9, recover=False
        )
        replayed = topology.copy()
        for event in workload:
            apply_edge_event(replayed, event)
        failed = {event.edge for event in workload}
        rebuilt = Topology.from_edges(
            topology.num_nodes,
            [edge for edge in topology.edges() if edge[:2] not in failed],
        )
        assert replayed == rebuilt
        assert replayed.content_key() == rebuilt.content_key()
