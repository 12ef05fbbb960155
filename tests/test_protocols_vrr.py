"""Tests for repro.protocols.vrr."""

from __future__ import annotations

import pytest

from repro.graphs.generators import gnm_random_graph
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from oracles import vrr_join
from repro.protocols.vrr import VirtualRingRouting
from small_graphs import line_graph


class TestConstruction:
    def test_vset_size_validation(self, small_gnm):
        with pytest.raises(ValueError):
            VirtualRingRouting(small_gnm, vset_size=3)
        with pytest.raises(ValueError):
            VirtualRingRouting(small_gnm, vset_size=0)

    def test_names_length_validated(self, small_gnm):
        from repro.naming.names import name_for_node

        with pytest.raises(ValueError):
            VirtualRingRouting(small_gnm, names=[name_for_node(0)])

    def test_deterministic_given_seed(self, small_gnm):
        a = VirtualRingRouting(small_gnm, seed=5)
        b = VirtualRingRouting(small_gnm, seed=5)
        assert [a.state_entries(v) for v in small_gnm.nodes()] == [
            b.state_entries(v) for v in small_gnm.nodes()
        ]

    def test_join_order_affects_state(self, small_gnm):
        """Converged state depends on the order of node joins (§5.1)."""
        a = [VirtualRingRouting(small_gnm, seed=1).state_entries(v) for v in range(64)]
        b = [VirtualRingRouting(small_gnm, seed=9).state_entries(v) for v in range(64)]
        assert a != b


@pytest.fixture(scope="module")
def join_small(small_gnm):
    """The join simulation behind ``vrr_small``, bookkeeping and all."""
    return vrr_join.converge(small_gnm, seed=1)


class TestVsetsAndPaths:
    def test_vset_sizes(self, join_small, vrr_small, small_gnm):
        for node in range(small_gnm.num_nodes):
            vset = vrr_join.vset_of(join_small, node)
            assert len(vset) <= 2 * vrr_small.vset_size
            assert node not in vset

    def test_active_paths_connect_vset_members(self, join_small, small_gnm):
        for a, b, path in vrr_join.active_paths(join_small):
            assert path[0] in (a, b)
            assert path[-1] in (a, b)
            for u, v in zip(path, path[1:]):
                assert small_gnm.has_edge(u, v)

    def test_path_count_scales_with_n_and_r(self, join_small, vrr_small, small_gnm):
        paths = vrr_join.active_paths(join_small)
        n = small_gnm.num_nodes
        assert len(paths) >= n  # at least ~r/2 paths per node survive
        assert len(paths) <= 3 * n * vrr_small.vset_size

    def test_state_counts_paths_through_node(self, join_small, vrr_small, small_gnm):
        paths = vrr_join.active_paths(join_small)
        for node in range(0, small_gnm.num_nodes, 11):
            through = sum(1 for _, _, path in paths if node in path)
            assert vrr_small.state_entries(node) == through + small_gnm.degree(node)

    def test_state_bytes_positive(self, vrr_small):
        assert vrr_small.state_bytes(0) > 0


class TestRouting:
    def test_self_route(self, vrr_small):
        assert vrr_small.route(2, 2).path == (2,)

    def test_delivery_on_random_graph(self, vrr_small, small_gnm):
        delivered = 0
        total = 0
        for source in range(0, small_gnm.num_nodes, 5):
            for target in range(0, small_gnm.num_nodes, 7):
                if source == target:
                    continue
                total += 1
                result = vrr_small.route(source, target)
                assert result.path[0] == source
                assert result.path[-1] == target
                for a, b in zip(result.path, result.path[1:]):
                    assert small_gnm.has_edge(a, b)
                if result.delivered:
                    delivered += 1
        # Greedy forwarding over the virtual ring delivers the vast majority
        # of flows without falling back to repair.
        assert delivered / total >= 0.9

    def test_first_equals_later(self, vrr_small):
        assert (
            vrr_small.first_packet_route(0, 40).path
            == vrr_small.later_packet_route(0, 40).path
        )

    def test_stretch_higher_than_shortest_path(self, medium_gnm):
        vrr = VirtualRingRouting(medium_gnm, seed=2)
        report = measure_stretch(vrr, pair_sample=200, seed=3)
        assert report.first_summary.mean > 1.1
        assert report.first_summary.maximum > 2.0

    def test_out_of_range(self, vrr_small):
        with pytest.raises(ValueError):
            vrr_small.route(0, 999)


class TestStateImbalance:
    def test_state_tail_heavier_than_mean(self, medium_gnm, small_internet):
        """Some nodes accumulate far more path state than the average (§5.2),
        especially on Internet-like topologies with central nodes."""
        random_graph = measure_state(
            VirtualRingRouting(medium_gnm, seed=2)
        ).entry_summary
        assert random_graph.maximum >= 2.0 * random_graph.mean
        internet_like = measure_state(
            VirtualRingRouting(small_internet, seed=2)
        ).entry_summary
        assert internet_like.maximum >= 3.0 * internet_like.mean

    def test_average_state_low(self, medium_gnm):
        """VRR's *mean* state is small -- the problem is the tail."""
        vrr = VirtualRingRouting(medium_gnm, seed=2)
        report = measure_state(vrr)
        assert report.entry_summary.mean <= medium_gnm.num_nodes / 2

    def test_line_topology_concentrates_state(self):
        """On a path graph the middle nodes relay most vset paths."""
        line = line_graph(40)
        vrr = VirtualRingRouting(line, seed=1)
        middle = vrr.state_entries(20)
        edge = vrr.state_entries(0)
        assert middle > edge
