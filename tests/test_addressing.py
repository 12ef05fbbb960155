"""Tests for repro.addressing (labels, explicit routes, addresses)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles.labels import decode_path
from oracles.reference_paths import shortest_path
from repro.addressing.address import Address, NAME_BYTES_IPV4, NAME_BYTES_IPV6
from repro.addressing.explicit_route import ExplicitRoute
from repro.addressing.labels import LabelCodec, hop_label_bits, route_label_bits
from repro.graphs.generators import gnm_random_graph, ring_graph
from repro.graphs.topology import Topology
from small_graphs import star_graph


class TestHopLabelBits:
    def test_small_degrees(self):
        assert hop_label_bits(0) == 1
        assert hop_label_bits(1) == 1
        assert hop_label_bits(2) == 1
        assert hop_label_bits(3) == 2
        assert hop_label_bits(4) == 2
        assert hop_label_bits(5) == 3

    def test_large_degree(self):
        assert hop_label_bits(1024) == 10
        assert hop_label_bits(1025) == 11

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hop_label_bits(-1)


class TestLabelCodec:
    def test_encode_decode_round_trip(self, small_gnm):
        codec = LabelCodec(small_gnm)
        path = shortest_path(small_gnm, 0, small_gnm.num_nodes - 1)
        labels = codec.encode_path(path)
        assert len(labels) == len(path) - 1
        assert decode_path(small_gnm, path[0], labels) == path

    def test_one_hop_labels_number_neighbors_in_order(self, small_gnm):
        codec = LabelCodec(small_gnm)
        for node in range(small_gnm.num_nodes):
            neighbors = sorted(small_gnm.neighbors(node))
            labels = [codec.encode_path([node, v]) for v in neighbors]
            assert labels == [[label] for label in range(len(neighbors))]

    def test_invalid_path_rejected(self, small_gnm):
        codec = LabelCodec(small_gnm)
        # Find two non-adjacent nodes.
        non_neighbor = next(
            v for v in range(small_gnm.num_nodes)
            if v != 0 and not small_gnm.has_edge(0, v)
        )
        with pytest.raises(ValueError):
            codec.encode_path([0, non_neighbor])

    def test_labels_bounded_by_degree(self, small_gnm):
        # Every label of a multi-hop route numbers a link of the node it
        # leaves, so it fits in that node's hop_label_bits(degree).
        codec = LabelCodec(small_gnm)
        for target in range(1, small_gnm.num_nodes, 7):
            path = shortest_path(small_gnm, 0, target)
            labels = codec.encode_path(path)
            for node, label in zip(path, labels):
                assert 0 <= label < small_gnm.degree(node)
                assert label < 2 ** hop_label_bits(small_gnm.degree(node))

    def test_invalid_label_rejected(self, small_gnm):
        # The decoder the round-trip tests trust must not read a label past
        # a node's links as some other neighbor.
        with pytest.raises(ValueError):
            decode_path(small_gnm, 0, [small_gnm.degree(0)])
        with pytest.raises(ValueError):
            decode_path(small_gnm, 0, [-1])

    def test_path_bits_matches_function(self, small_gnm):
        codec = LabelCodec(small_gnm)
        path = shortest_path(small_gnm, 1, 40)
        assert codec.path_bits(path) == route_label_bits(small_gnm, path)

    def test_single_node_path_zero_bits(self, small_gnm):
        codec = LabelCodec(small_gnm)
        assert codec.path_bits([3]) == 0
        assert codec.encode_path([3]) == []

    def test_star_hub_labels(self):
        star = star_graph(8)
        codec = LabelCodec(star)
        # Hub has degree 8 -> 3 bits per hop from the hub.
        assert route_label_bits(star, [0, 5]) == 3
        # Leaf has degree 1 -> 1 bit per hop from the leaf.
        assert route_label_bits(star, [5, 0]) == 1

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_round_trip_random_paths(self, seed):
        topology = gnm_random_graph(30, seed=seed, average_degree=4.0)
        codec = LabelCodec(topology)
        path = shortest_path(topology, 0, topology.num_nodes - 1)
        assert decode_path(topology, 0, codec.encode_path(path)) == path


class TestExplicitRoute:
    def test_from_path(self, small_gnm):
        codec = LabelCodec(small_gnm)
        path = shortest_path(small_gnm, 0, 30)
        route = ExplicitRoute.from_path(codec, path)
        assert route.source == 0
        assert route.destination == 30
        assert route.hop_count == len(path) - 1
        assert route.bits == codec.path_bits(path)
        assert route.size_bytes == route.bits / 8.0
        assert route.wire_bytes == math.ceil(route.bits / 8.0)

    def test_single_node_route(self, small_gnm):
        codec = LabelCodec(small_gnm)
        route = ExplicitRoute.from_path(codec, [5])
        assert route.hop_count == 0
        assert route.bits == 0
        assert route.wire_bytes == 0

    def test_reversed_route(self, small_gnm):
        # The route back walks the same links; its labels are numbered at
        # the other end of each link, so only the hop count must agree.
        codec = LabelCodec(small_gnm)
        path = shortest_path(small_gnm, 2, 50)
        route = ExplicitRoute.from_path(codec, path)
        reverse = ExplicitRoute.from_path(codec, list(reversed(path)))
        assert reverse.path == tuple(reversed(route.path))
        assert (reverse.source, reverse.destination) == (
            route.destination, route.source
        )
        assert reverse.hop_count == route.hop_count
        assert decode_path(small_gnm, 50, reverse.labels) == list(reverse.path)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitRoute(path=(), labels=(), bits=0)
        with pytest.raises(ValueError):
            ExplicitRoute(path=(1, 2), labels=(), bits=0)
        with pytest.raises(ValueError):
            ExplicitRoute(path=(1,), labels=(), bits=-1)

    def test_len(self, small_gnm):
        codec = LabelCodec(small_gnm)
        path = shortest_path(small_gnm, 0, 10)
        assert len(ExplicitRoute.from_path(codec, path)) == len(path)

    def test_ring_addresses_are_long(self):
        """The §4.2 worst case: ring addresses grow with the path length."""
        ring = ring_graph(64)
        codec = LabelCodec(ring)
        path = list(range(0, 33))  # half way around
        route = ExplicitRoute.from_path(codec, path)
        assert route.bits == 32  # 1 bit per hop at degree-2 nodes
        assert route.size_bytes == 4.0


class TestAddress:
    def _address(self, topology: Topology, landmark: int, node: int) -> Address:
        codec = LabelCodec(topology)
        path = shortest_path(topology, landmark, node)
        return Address(
            node=node, landmark=landmark, route=ExplicitRoute.from_path(codec, path)
        )

    def test_valid_address(self, small_gnm):
        address = self._address(small_gnm, 0, 20)
        assert address.node == 20
        assert address.landmark == 0
        assert not address.is_landmark_self

    def test_self_landmark(self, small_gnm):
        address = self._address(small_gnm, 7, 7)
        assert address.is_landmark_self
        assert address.route.hop_count == 0

    def test_route_endpoint_validation(self, small_gnm):
        codec = LabelCodec(small_gnm)
        path = shortest_path(small_gnm, 0, 20)
        route = ExplicitRoute.from_path(codec, path)
        with pytest.raises(ValueError):
            Address(node=21, landmark=0, route=route)
        with pytest.raises(ValueError):
            Address(node=20, landmark=1, route=route)

    def test_size_bytes(self, small_gnm):
        address = self._address(small_gnm, 0, 20)
        assert address.size_bytes(NAME_BYTES_IPV4) == pytest.approx(
            4.0 + address.route.size_bytes
        )
        assert address.size_bytes(NAME_BYTES_IPV6) == pytest.approx(
            16.0 + address.route.size_bytes
        )

    def test_mapping_entry_bytes(self, small_gnm):
        address = self._address(small_gnm, 0, 20)
        assert address.mapping_entry_bytes(4) == pytest.approx(
            4.0 + address.size_bytes(4)
        )

    def test_invalid_name_bytes(self, small_gnm):
        address = self._address(small_gnm, 0, 20)
        with pytest.raises(ValueError):
            address.size_bytes(0)

    def test_repr(self, small_gnm):
        address = self._address(small_gnm, 0, 20)
        assert "landmark=0" in repr(address)
