"""Tests for repro.graphs.topology: the builder and the immutable topology."""

from __future__ import annotations

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles.reference_paths import to_networkx
from repro.graphs.topology import Topology, TopologyBuilder

# Edits on six nodes, so removals, re-adds and reweights of a present edge
# are common: (op, u, v, weight) with op 0 add, 1 remove, 2 reweight.
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 5),
        st.integers(0, 5),
        st.sampled_from([0.5, 1.0, 2.5, 3.0]),
    ).filter(lambda edit: edit[1] != edit[2]),
    max_size=60,
)


def _slab_bytes(topology: Topology) -> list[bytes]:
    return [bytes(slab) for _, _, slab in topology.slab_items()]


class TestConstruction:
    def test_empty(self):
        topology = TopologyBuilder(0).freeze()
        assert topology.num_nodes == 0
        assert topology.num_edges == 0

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            TopologyBuilder(-1)

    def test_add_edge(self):
        builder = TopologyBuilder(3)
        builder.add_edge(0, 1, 2.5)
        topology = builder.freeze()
        assert topology.num_edges == 1
        assert topology.has_edge(0, 1)
        assert topology.has_edge(1, 0)
        assert topology.edge_weight(0, 1) == 2.5

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            TopologyBuilder(2).add_edge(1, 1)

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            TopologyBuilder(2).add_edge(0, 5)

    def test_nonpositive_weight_rejected(self):
        builder = TopologyBuilder(2)
        with pytest.raises(ValueError):
            builder.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            builder.add_edge(0, 1, -3.0)

    def test_parallel_edge_keeps_smaller_weight(self):
        builder = TopologyBuilder(2)
        builder.add_edge(0, 1, 5.0)
        builder.add_edge(0, 1, 2.0)
        topology = builder.freeze()
        assert topology.num_edges == 1
        assert topology.edge_weight(0, 1) == 2.0
        # The rows carry the new weight too.
        assert topology.csr().neighbor_weights(0) == [(1, 2.0)]

    def test_parallel_edge_larger_weight_ignored(self):
        builder = TopologyBuilder(2)
        builder.add_edge(0, 1, 2.0)
        builder.add_edge(0, 1, 5.0)
        assert builder.freeze().edge_weight(0, 1) == 2.0

    def test_from_edges_classmethod(self):
        topology = Topology.from_edges(3, [(0, 1), (1, 2)], name="tiny")
        assert topology.name == "tiny"
        assert topology.num_edges == 2

    def test_topology_has_no_mutators(self):
        topology = Topology.from_edges(3, [(0, 1)])
        for name in ("add_edge", "remove_edge", "set_edge_weight"):
            assert not hasattr(topology, name)


class TestBuilder:
    def test_freeze_keeps_the_rows_a_remove_and_re_add_leave(self):
        # Row 0 is [1, 2, 3]; removing 0-1 and adding it back moves it to
        # the end of both rows, and to the end of the edge order.
        builder = TopologyBuilder(4)
        for u, v, weight in [(0, 1, 1.0), (0, 2, 2.0), (3, 0, 3.0)]:
            builder.add_edge(u, v, weight)
        builder.remove_edge(1, 0)
        builder.add_edge(0, 1, 4.0)
        builder.set_edge_weight(2, 0, 0.5)
        topology = builder.freeze()
        assert topology.csr().neighbor_weights(0) == [
            (2, 0.5), (3, 3.0), (1, 4.0)
        ]
        assert list(topology.edges()) == [
            (0, 2, 0.5), (0, 3, 3.0), (0, 1, 4.0)
        ]
        assert topology.csr().neighbor_weights(1) == [(0, 4.0)]

    def test_remove_and_reweight_a_missing_edge_raise(self):
        builder = TopologyBuilder(3)
        builder.add_edge(0, 1)
        with pytest.raises(KeyError):
            builder.remove_edge(1, 2)
        with pytest.raises(KeyError):
            builder.set_edge_weight(1, 2, 1.0)
        assert builder.remove_edge(1, 0) == 1.0
        assert builder.freeze().num_edges == 0

    def test_from_topology_round_trips_every_slab(self):
        topology = Topology.from_edges(
            5, [(3, 1, 2.0), (0, 1, 1.5), (1, 4, 0.5), (2, 0, 3.0)], name="orig"
        )
        # A spliced triangle: rows [2, 1], [2, 0], [0, 1], which no edge
        # order lays out, so the builder must keep them as they are.
        graph = Topology.from_edges(3, [(0, 1), (0, 2), (1, 2)]).fresh_csr()
        graph.splice(removed=[(0, 1)])
        graph.splice(added=[(0, 1, 1.0)])
        spliced = Topology.from_csr(graph, name="orig")
        assert spliced.neighbors(1) == [2, 0]
        for source in (topology, spliced):
            frozen = TopologyBuilder.from_topology(source).freeze()
            assert frozen.name == "orig"
            assert _slab_bytes(frozen) == _slab_bytes(source)

    def test_the_builder_stays_usable_after_freeze(self):
        builder = TopologyBuilder(3)
        builder.add_edge(0, 1)
        first = builder.freeze()
        builder.add_edge(1, 2)
        assert first.num_edges == 1
        assert builder.freeze().num_edges == 2

    @given(edits=_EDITS)
    @settings(max_examples=80, deadline=None)
    def test_a_grown_builder_freezes_to_its_rows(self, edits):
        """From empty, every row lists its node's edges in edge order, so
        the counting-pass assembly lays out the rows as they stand: the
        same slabs a builder copied arc for arc freezes to."""
        builder = TopologyBuilder(6)
        for op, u, v, weight in edits:
            if op == 0:
                builder.add_edge(u, v, weight)
            elif builder.has_edge(u, v):
                if op == 1:
                    builder.remove_edge(u, v)
                else:
                    builder.set_edge_weight(u, v, weight)
        frozen = builder.freeze()
        assert frozen.adjacency == builder.adjacency
        assert list(frozen.edges()) == list(builder.edges())
        copied = TopologyBuilder.from_topology(frozen)
        assert _slab_bytes(copied.freeze()) == _slab_bytes(frozen)

    def test_connectivity(self):
        builder = TopologyBuilder(4)
        builder.add_edge(0, 1)
        builder.add_edge(2, 3)
        assert builder.connected_components() == [[0, 1], [2, 3]]
        builder.add_edge(1, 2)
        assert builder.connected_components() == [[0, 1, 2, 3]]


class TestAccessors:
    def test_degree_and_neighbors(self):
        topology = Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert topology.degree(0) == 3
        assert sorted(topology.neighbors(0)) == [1, 2, 3]
        assert topology.degree(1) == 1

    def test_edges_iteration_unique(self):
        topology = Topology.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        edges = sorted(topology.edges())
        assert edges == [(0, 1, 2.0), (1, 2, 3.0)]

    def test_average_and_max_degree(self):
        topology = Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert topology.average_degree() == pytest.approx(1.5)
        assert topology.max_degree() == 3

    def test_degree_sequence(self):
        topology = Topology.from_edges(3, [(0, 1)])
        assert topology.degree_sequence() == [1, 1, 0]

    def test_missing_edge_weight_raises(self):
        topology = Topology.from_edges(3, [])
        with pytest.raises(KeyError):
            topology.edge_weight(0, 1)

    def test_empty_graph_degrees(self):
        topology = Topology.from_edges(0, [])
        assert topology.average_degree() == 0.0
        assert topology.max_degree() == 0


class TestConnectivity:
    def test_single_node_connected(self):
        assert Topology.from_edges(1, []).is_connected()

    def test_disconnected_graph(self):
        topology = Topology.from_edges(4, [(0, 1), (2, 3)])
        assert not topology.is_connected()
        assert len(topology.connected_components()) == 2

    def test_connected_graph(self):
        topology = Topology.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert topology.is_connected()

    def test_isolated_node_makes_disconnected(self):
        topology = Topology.from_edges(3, [(0, 1)])
        assert not topology.is_connected()

    def test_three_schemes_on_one_topology_search_it_once(self):
        """ND-Disco, S4 over its tables and Disco over it each check that
        the topology is connected; the first check's answer is kept."""
        from repro.core.disco import DiscoRouting
        from repro.core.nddisco import NDDiscoRouting
        from repro.graphs.generators import gnm_random_graph
        from repro.protocols.s4 import S4Routing

        topology = gnm_random_graph(48, seed=3, average_degree=6.0)
        with mock.patch.object(
            Topology,
            "connected_components",
            autospec=True,
            side_effect=Topology.connected_components,
        ) as search:
            nddisco = NDDiscoRouting(topology, seed=3)
            S4Routing(topology, seed=3, substrate=nddisco)
            DiscoRouting(topology, seed=3, nddisco=nddisco)
        assert search.call_count == 1

    def test_every_way_to_a_topology_answers_connectivity(self, tmp_path):
        """A copy keeps the answer; a slab-directory attach and an
        unpickled topology answer as the original does."""
        for edges, connected in (([(0, 1), (1, 2)], True), ([(0, 1)], False)):
            topology = Topology.from_edges(3, edges)
            assert topology.is_connected() is connected
            attached = Topology.from_slab_dir(
                topology.save_slabs(tmp_path / f"{connected}.slabs")
            )
            with mock.patch.object(
                Topology, "connected_components", autospec=True
            ) as search:
                assert topology.copy().is_connected() is connected
            assert search.call_count == 0
            for other in (attached, pickle.loads(pickle.dumps(topology))):
                assert other.is_connected() is connected

    def test_largest_component_subgraph(self):
        topology = Topology.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        sub, mapping = topology.largest_component_subgraph()
        assert sub.num_nodes == 3
        assert sub.is_connected()
        assert set(mapping.keys()) == {0, 1, 2}

    def test_largest_component_preserves_weights(self):
        topology = Topology.from_edges(4, [(0, 1, 7.0), (2, 3, 1.0), (1, 2, 0.5)])
        sub, mapping = topology.largest_component_subgraph()
        assert sub.edge_weight(mapping[0], mapping[1]) == 7.0

    def test_components_cover_all_nodes(self):
        topology = Topology.from_edges(6, [(0, 1), (2, 3)])
        components = topology.connected_components()
        covered = sorted(node for component in components for node in component)
        assert covered == list(range(6))

    def test_largest_component_matches_add_edge_replay(self):
        # The relabelled subgraph is the one a builder replay of the
        # surviving edges gives: same relabelling, weights, and arc order.
        topology = Topology.from_edges(
            8,
            [(5, 2, 1.5), (2, 7, 2.0), (7, 5, 0.5), (0, 1, 3.0), (3, 4, 1.0)],
        )
        sub, mapping = topology.largest_component_subgraph()
        expected = TopologyBuilder(len(mapping), name=topology.name)
        for u, v, weight in topology.edges():
            if u in mapping and v in mapping:
                expected.add_edge(mapping[u], mapping[v], weight)
        assert _slab_bytes(sub) == _slab_bytes(expected.freeze())


class TestConversionsAndDunder:
    def test_copy_is_independent(self):
        # An edit goes through a builder and leaves the source alone.
        topology = Topology.from_edges(3, [(0, 1)])
        builder = TopologyBuilder.from_topology(topology)
        builder.add_edge(1, 2)
        assert topology.num_edges == 1
        assert builder.freeze().num_edges == 2

    def test_copy_preserves_structure_exactly(self):
        topology = Topology.from_edges(
            5, [(3, 1, 2.0), (0, 1, 1.5), (1, 4, 0.5), (2, 0, 3.0)], name="orig"
        )
        duplicate = topology.copy()
        assert duplicate.content_key() == topology.content_key()
        assert duplicate.name == topology.name
        assert _slab_bytes(duplicate) == _slab_bytes(topology)
        assert list(duplicate.edges()) == list(topology.edges())

    def test_copy_does_not_share_csr_snapshot(self):
        topology = Topology.from_edges(3, [(0, 1), (1, 2)])
        snapshot = topology.csr()
        duplicate = topology.copy()
        assert duplicate.csr() is not snapshot
        assert topology.fresh_csr() is not snapshot
        assert topology.csr() is snapshot

    def test_get_edge_weight(self):
        topology = Topology.from_edges(3, [(0, 1, 2.5)])
        assert topology.get_edge_weight(0, 1) == 2.5
        assert topology.get_edge_weight(1, 0) == 2.5
        assert topology.get_edge_weight(0, 2) is None
        assert topology.get_edge_weight(0, 2, default=-1.0) == -1.0
        assert topology.get_edge_weight(0, 9) is None

    def test_equality(self):
        a = Topology.from_edges(3, [(0, 1, 2.0)])
        b = Topology.from_edges(3, [(0, 1, 2.0)])
        c = Topology.from_edges(3, [(0, 1, 3.0)])
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()

    def test_equality_ignores_arc_order_and_name(self):
        a = Topology.from_edges(3, [(0, 1), (1, 2)], name="a")
        b = Topology.from_edges(3, [(2, 1), (1, 0)], name="b")
        assert _slab_bytes(a) != _slab_bytes(b)
        assert a.content_key() == b.content_key()

    def test_repr_mentions_size(self):
        topology = Topology.from_edges(3, [(0, 1)], name="x")
        assert "x" in repr(topology)
        assert "3" in repr(topology)

    def test_to_networkx_round_trip(self):
        networkx = pytest.importorskip("networkx")
        topology = Topology.from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0)])
        graph = to_networkx(topology)
        assert isinstance(graph, networkx.Graph)
        assert graph.number_of_nodes() == 4
        assert graph[0][1]["weight"] == 2.0

    def test_a_searched_topology_pickles_and_routes_the_same(self):
        """The cached CSRGraph holds the ctypes kernel library, which does
        not pickle; the pickled topology carries its slabs only, and the
        copy builds its own CSRGraph on demand and routes identically."""
        from repro.core.nddisco import NDDiscoRouting
        from repro.graphs.generators import gnm_random_graph

        topology = gnm_random_graph(20, seed=3, average_degree=4.0)
        pairs = [(s, t) for s in range(20) for t in range(20) if s != t]
        distances = topology.csr().batched_target_distances(pairs)
        routes = NDDiscoRouting(topology, seed=3).router()
        copy = pickle.loads(pickle.dumps(topology))
        assert copy.content_key() == topology.content_key()
        assert copy.csr() is not topology.csr()
        assert copy.csr().batched_target_distances(pairs) == distances
        copied = NDDiscoRouting(copy, seed=3).router()
        for source, target in pairs:
            assert copied.pair(source, target) == routes.pair(source, target)
