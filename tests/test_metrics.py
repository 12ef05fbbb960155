"""Tests for repro.metrics (state, stretch, congestion)."""

from __future__ import annotations

import pytest

from repro.metrics.congestion import measure_congestion
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch, stretch_of_route
from repro.protocols.base import RouteResult
from repro.protocols.shortest_path import ShortestPathRouting


class TestMeasureState:
    def test_all_nodes_by_default(self, disco_small, small_gnm):
        report = measure_state(disco_small)
        assert report.nodes == tuple(range(small_gnm.num_nodes))
        assert len(report.entries) == small_gnm.num_nodes
        assert report.scheme == "Disco"

    def test_node_sampling(self, disco_small):
        report = measure_state(disco_small, node_sample=10, seed=1)
        assert len(report.nodes) == 10
        assert len(set(report.nodes)) == 10

    def test_explicit_nodes(self, disco_small):
        report = measure_state(disco_small, nodes=[1, 2, 3])
        assert report.nodes == (1, 2, 3)
        assert report.entries[0] == disco_small.state_entries(1)

    def test_empty_nodes_rejected(self, disco_small):
        with pytest.raises(ValueError):
            measure_state(disco_small, nodes=[])

    def test_bytes_ordering(self, disco_small):
        report = measure_state(disco_small, nodes=[0, 1])
        assert all(
            v6 > v4 for v4, v6 in zip(report.bytes_ipv4, report.bytes_ipv6)
        )

    def test_summary(self, disco_small):
        report = measure_state(disco_small)
        assert report.entry_summary.maximum == max(report.entries)

    def test_kilobytes_row_keys(self, disco_small):
        row = measure_state(disco_small).kilobytes_row()
        assert set(row) == {
            "entries_mean",
            "entries_max",
            "kb_ipv4_mean",
            "kb_ipv4_max",
            "kb_ipv6_mean",
            "kb_ipv6_max",
        }
        assert row["kb_ipv6_mean"] > row["kb_ipv4_mean"]


class TestMeasureStretch:
    def test_shortest_path_has_stretch_one(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        report = measure_stretch(routing, pair_sample=100, seed=1)
        assert report.first_summary.mean == pytest.approx(1.0)
        assert report.later_summary.maximum == pytest.approx(1.0)
        assert report.failures == 0

    def test_explicit_pairs(self, disco_small):
        pairs = [(0, 5), (10, 20)]
        report = measure_stretch(disco_small, pairs=pairs)
        assert report.pairs == tuple(pairs)
        assert len(report.first_packet) == 2

    def test_self_pairs_filtered(self, disco_small):
        report = measure_stretch(disco_small, pairs=[(0, 0), (0, 5)])
        assert report.pairs == ((0, 5),)

    def test_no_pairs_rejected(self, disco_small):
        with pytest.raises(ValueError):
            measure_stretch(disco_small, pairs=[(3, 3)])

    def test_stretch_at_least_one(self, disco_small):
        report = measure_stretch(disco_small, pair_sample=150, seed=2)
        assert min(report.first_packet) >= 1.0 - 1e-9
        assert min(report.later_packets) >= 1.0 - 1e-9

    def test_stretch_of_route_validation(self, small_gnm):
        route = RouteResult(path=(0, 1), mechanism="x")
        with pytest.raises(ValueError):
            stretch_of_route(small_gnm, route, 0.0)
        with pytest.raises(ValueError):
            stretch_of_route(
                small_gnm, RouteResult(path=(), mechanism="x", delivered=False), 1.0
            )

    def test_stretch_of_route_value(self, weighted_diamond):
        route = RouteResult(path=(0, 2, 3), mechanism="x")  # length 6
        assert stretch_of_route(weighted_diamond, route, 2.0) == pytest.approx(3.0)


class TestMeasureCongestion:
    def test_default_workload_one_flow_per_node(self, disco_small, small_gnm):
        report = measure_congestion(disco_small, seed=1)
        assert report.flows == small_gnm.num_nodes
        assert set(report.edge_usage) == {
            (u, v) for u, v, _ in small_gnm.edges()
        }

    def test_total_usage_matches_hops(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        pairs = [(0, 10), (5, 20)]
        report = measure_congestion(routing, pairs=pairs)
        expected_hops = sum(
            routing.first_packet_route(s, t).hop_count for s, t in pairs
        )
        assert sum(report.usage_values) == expected_hops

    def test_unused_edges_counted_as_zero(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        report = measure_congestion(routing, pairs=[(0, 1)])
        assert 0 in report.usage_values

    def test_self_flows_ignored(self, small_gnm):
        routing = ShortestPathRouting(small_gnm)
        report = measure_congestion(routing, pairs=[(3, 3)])
        assert sum(report.usage_values) == 0

    def test_first_vs_later_packet_choice(self, disco_small):
        later = measure_congestion(disco_small, seed=2, use_later_packets=True)
        first = measure_congestion(disco_small, seed=2, use_later_packets=False)
        assert later.use_later_packets
        assert not first.use_later_packets
        # First packets travel at least as far in aggregate.
        assert sum(first.usage_values) >= sum(later.usage_values)

    def test_fraction_above_and_max(self, disco_small):
        report = measure_congestion(disco_small, seed=3)
        assert report.fraction_above(report.max_usage()) == 0.0
        assert 0.0 < report.fraction_above(-1) <= 1.0
