"""Tests for shortest-path, path-vector, and the protocol registry."""

from __future__ import annotations

import pytest

from oracles.reference_paths import dijkstra, path_length
from repro.graphs.topology import Topology
from repro.protocols.base import RouteResult
from repro.protocols.pathvector import PathVectorRouting
from repro.protocols.registry import available_schemes, build_scheme
from repro.protocols.shortest_path import ShortestPathRouting


class TestRouteResult:
    def test_hop_count(self):
        assert RouteResult(path=(1, 2, 3), mechanism="x").hop_count == 2
        assert RouteResult(path=(1,), mechanism="x").hop_count == 0
        assert RouteResult(path=(), mechanism="x", delivered=False).hop_count == 0

    def test_length(self, weighted_diamond):
        result = RouteResult(path=(0, 1, 3), mechanism="x")
        assert result.length(weighted_diamond) == pytest.approx(2.0)

    def test_length_single_node(self, weighted_diamond):
        assert RouteResult(path=(2,), mechanism="x").length(weighted_diamond) == 0.0


class TestShortestPathRouting:
    def test_state_entries(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        assert routing.state_entries(0) == small_gnm.num_nodes - 1
        assert routing.state_bytes(0, name_bytes=4) == (small_gnm.num_nodes - 1) * 5.0

    def test_routes_are_shortest(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        distances, _ = dijkstra(small_gnm, 3)
        for target in (10, 40, 63):
            result = routing.first_packet_route(3, target)
            assert result.path[0] == 3
            assert result.path[-1] == target
            assert path_length(small_gnm, list(result.path)) == pytest.approx(
                distances[target]
            )

    def test_first_equals_later(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        assert (
            routing.first_packet_route(0, 20).path
            == routing.later_packet_route(0, 20).path
        )

    def test_self_route(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        assert routing.shortest_path(5, 5) == [5]
        assert routing.distance(5, 5) == 0.0

    def test_distance_query(self, weighted_diamond):
        routing = ShortestPathRouting(weighted_diamond)
        assert routing.distance(0, 3) == pytest.approx(2.0)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            ShortestPathRouting(Topology.from_edges(4, [(0, 1), (2, 3)]))

    def test_out_of_range(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        with pytest.raises(ValueError):
            routing.first_packet_route(0, 999)


class TestPathVectorRouting:
    def test_data_plane_matches_shortest_path(self, small_gnm):
        routing = PathVectorRouting(small_gnm)
        assert routing.state_entries(7) == small_gnm.num_nodes - 1
        assert routing.first_packet_route(7, 30).path[-1] == 30

    def test_name(self, small_gnm):
        assert PathVectorRouting(small_gnm).name == "Path-Vector"


class TestRegistry:
    def test_available_schemes(self):
        names = available_schemes()
        assert "disco" in names
        assert "vrr" in names
        assert len(names) == 6

    def test_build_each_scheme(self, small_gnm):
        expected_types = {
            "disco": "DiscoRouting",
            "nd-disco": "NDDiscoRouting",
            "s4": "S4Routing",
            "vrr": "VirtualRingRouting",
            "path-vector": "PathVectorRouting",
            "shortest-path": "ShortestPathRouting",
        }
        for name, type_name in expected_types.items():
            scheme = build_scheme(name, small_gnm, seed=1)
            assert type(scheme).__name__ == type_name

    def test_case_insensitive(self, small_gnm):
        assert type(build_scheme("S4", small_gnm)).__name__ == "S4Routing"
        assert type(build_scheme("NDDisco", small_gnm)).__name__ == "NDDiscoRouting"

    def test_unknown_name(self, small_gnm):
        with pytest.raises(KeyError):
            build_scheme("ospf", small_gnm)

    def test_kwargs_forwarded(self, small_gnm):
        vrr = build_scheme("vrr", small_gnm, seed=1, vset_size=6)
        assert vrr.vset_size == 6
