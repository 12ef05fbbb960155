"""Edits make new topologies and leave the old ones alone (regression).

A :class:`~repro.graphs.topology.Topology` is immutable: its ``csr()``,
``weight_profile()`` and the ``content_key()`` the artifact cache keys
substrates by never go stale.  An edit -- a churn event replayed on a
builder -- goes through a :class:`~repro.graphs.topology.TopologyBuilder`
and comes out as a new topology with derived views of its own.
"""

from __future__ import annotations

from repro.dynamics.stream import apply_edge_event, generate_churn_workload
from repro.graphs.generators import gnm_random_graph
from repro.graphs.topology import Topology, TopologyBuilder


class TestFrozenEdits:
    def test_copy_does_not_share_caches(self):
        topology = gnm_random_graph(64, seed=3, average_degree=6.0)
        csr = topology.csr()
        duplicate = TopologyBuilder.from_topology(topology).freeze()
        assert duplicate.content_key() == topology.content_key()
        assert duplicate.csr() is not csr
        assert topology.copy().csr() is not csr


class TestLinkFlapInvalidation:
    def test_edge_down_and_up_produce_fresh_snapshots(self):
        topology = gnm_random_graph(96, seed=7, average_degree=8.0)
        workload = generate_churn_workload(topology, num_events=4, seed=5)
        current = topology
        for event in workload:
            builder = TopologyBuilder.from_topology(current)
            apply_edge_event(builder, event)
            edited = builder.freeze()
            expected_edges = current.num_edges + (
                1 if event.kind == "edge-up" else -1
            )
            assert edited.num_edges == expected_edges
            assert len(edited.csr().neighbors) == 2 * expected_edges
            assert edited.content_key() != current.content_key()
            # The previous topology's views are untouched.
            assert len(current.csr().neighbors) == 2 * current.num_edges
            current = edited

    def test_in_place_replay_matches_a_rebuilt_topology(self):
        topology = gnm_random_graph(96, seed=7, average_degree=8.0)
        workload = generate_churn_workload(
            topology, num_events=5, seed=9, recover=False
        )
        replayed = TopologyBuilder.from_topology(topology)
        for event in workload:
            apply_edge_event(replayed, event)
        failed = {event.edge for event in workload}
        rebuilt = Topology.from_edges(
            topology.num_nodes,
            [edge for edge in topology.edges() if edge[:2] not in failed],
        )
        assert replayed.freeze().content_key() == rebuilt.content_key()
