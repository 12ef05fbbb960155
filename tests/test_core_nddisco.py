"""Tests for repro.core.nddisco."""

from __future__ import annotations

import pytest

from oracles.reference_paths import dijkstra, path_length
from oracles import state_accounting as oracle
from oracles.resolution_db import scheme_records
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.core.vicinity import vicinity_size
from repro.graphs.generators import gnm_random_graph
from repro.graphs.topology import Topology
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from small_graphs import line_graph


class TestConstruction:
    def test_requires_connected_topology(self):
        disconnected = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            NDDiscoRouting(disconnected)

    def test_requires_nonempty_topology(self):
        with pytest.raises(ValueError):
            NDDiscoRouting(Topology.from_edges(0, []))

    def test_landmarks_selected(self, nddisco_small):
        assert len(nddisco_small.landmarks) >= 1
        assert all(
            0 <= lm < nddisco_small.topology.num_nodes
            for lm in nddisco_small.landmarks
        )

    def test_explicit_landmarks_respected(self, small_gnm):
        routing = NDDiscoRouting(small_gnm, landmarks={0, 1})
        assert routing.landmarks == {0, 1}

    def test_invalid_landmark_rejected(self, small_gnm):
        with pytest.raises(ValueError):
            NDDiscoRouting(small_gnm, landmarks={10_000})

    def test_empty_landmarks_rejected(self, small_gnm):
        with pytest.raises(ValueError):
            NDDiscoRouting(small_gnm, landmarks=set())

    def test_names_length_checked(self, small_gnm):
        from repro.naming.names import name_for_node

        with pytest.raises(ValueError):
            NDDiscoRouting(small_gnm, names=[name_for_node(0)])

    def test_vicinity_sizes(self, nddisco_small, small_gnm):
        expected = vicinity_size(small_gnm.num_nodes)
        vicinity = nddisco_small.tables.vicinity
        assert all(
            len(vicinity.row(node)[0]) == expected
            for node in range(small_gnm.num_nodes)
        )

    def test_deterministic(self, small_gnm):
        a = NDDiscoRouting(small_gnm, seed=5)
        b = NDDiscoRouting(small_gnm, seed=5)
        assert a.landmarks == b.landmarks
        assert [adr.landmark for adr in a.addresses] == [
            adr.landmark for adr in b.addresses
        ]


class TestAddresses:
    def test_every_node_has_address(self, nddisco_small, small_gnm):
        assert len(nddisco_small.addresses) == small_gnm.num_nodes
        for node, address in enumerate(nddisco_small.addresses):
            assert address.node == node
            assert address.landmark in nddisco_small.landmarks

    def test_address_landmark_is_closest(self, nddisco_small, small_gnm):
        distances_by_landmark = {
            lm: dijkstra(small_gnm, lm)[0] for lm in nddisco_small.landmarks
        }
        for node in range(small_gnm.num_nodes):
            chosen = nddisco_small.closest_landmark(node)
            best = min(
                distances_by_landmark[lm][node] for lm in nddisco_small.landmarks
            )
            assert distances_by_landmark[chosen][node] == pytest.approx(best)

    def test_address_route_is_shortest_path(self, nddisco_small, small_gnm):
        for node in (3, 17, 42):
            address = nddisco_small.address_of(node)
            route_length = path_length(small_gnm, list(address.route.path))
            expected = nddisco_small.landmark_distance(address.landmark, node)
            assert route_length == pytest.approx(expected)

    def test_landmark_own_address_trivial(self, nddisco_small):
        landmark = next(iter(nddisco_small.landmarks))
        assert nddisco_small.address_of(landmark).is_landmark_self

    def test_landmark_path_endpoints(self, nddisco_small):
        landmark = next(iter(nddisco_small.landmarks))
        path = nddisco_small.landmark_path(landmark, 9)
        assert path[0] == landmark
        assert path[-1] == 9

    def test_landmark_queries_validate(self, nddisco_small):
        non_landmark = next(
            v
            for v in range(nddisco_small.topology.num_nodes)
            if v not in nddisco_small.landmarks
        )
        message = f"{non_landmark} is not a landmark"
        with pytest.raises(KeyError, match=message):
            nddisco_small.landmark_distance(non_landmark, 0)
        with pytest.raises(KeyError, match=message):
            nddisco_small.landmark_path(non_landmark, 0)

    def test_resolution_database_populated(self, nddisco_small, small_gnm):
        records = scheme_records(nddisco_small)
        for node in (0, 10, 63):
            record = records.lookup_record(nddisco_small.names[node])
            assert record.address == nddisco_small.address_of(node)
        database = nddisco_small.resolution_database
        assert sum(
            database.entries_at(landmark) for landmark in nddisco_small.landmarks
        ) == small_gnm.num_nodes

    def test_address_of_reads_the_slab_row(self, nddisco_small, small_gnm):
        tables = nddisco_small.tables
        for node in range(small_gnm.num_nodes):
            address = nddisco_small.address_of(node)
            landmark = tables.closest[node]
            assert list(address.route.path) == tables.spt_path(landmark, node)
            assert address.route.bits == nddisco_small.address_bits[node]
            assert address.landmark == landmark


class TestStateAccounting:
    def test_state_entries_positive_and_bounded(self, nddisco_small, small_gnm):
        n = small_gnm.num_nodes
        for node in range(n):
            entries = nddisco_small.state_entries(node)
            assert entries > 0
            # landmarks + vicinity + labels + resolution is far below n^2 and,
            # for non-landmarks, below ~3x the vicinity+landmark total.
            assert entries < n * 3

    def test_landmarks_hold_resolution_state(self, nddisco_small):
        database = nddisco_small.resolution_database
        landmark_total = sum(
            database.entries_at(lm) for lm in nddisco_small.landmarks
        )
        assert landmark_total == nddisco_small.topology.num_nodes
        non_landmark = next(
            v
            for v in range(nddisco_small.topology.num_nodes)
            if v not in nddisco_small.landmarks
        )
        assert database.entries_at(non_landmark) == 0

    def test_label_mappings_bounded_by_degree(self, nddisco_small, small_gnm):
        for node in range(small_gnm.num_nodes):
            assert oracle.label_mapping_entries(
                nddisco_small, node
            ) <= small_gnm.degree(node)

    def test_state_bytes_scale_with_name_size(self, nddisco_small):
        assert nddisco_small.state_bytes(0, name_bytes=16) > nddisco_small.state_bytes(
            0, name_bytes=4
        )

    def test_state_entries_of_every_node(self, nddisco_small, small_gnm):
        counts = measure_state(nddisco_small).entries
        assert len(counts) == small_gnm.num_nodes
        assert counts == tuple(
            oracle.state_entries(nddisco_small, node)
            for node in small_gnm.nodes()
        )


class TestRouting:
    def test_self_route(self, nddisco_small):
        result = nddisco_small.first_packet_route(4, 4)
        assert result.path == (4,)
        assert result.mechanism == "self"

    def test_direct_route_to_vicinity_member(self, nddisco_small):
        source = 0
        member = nddisco_small.tables.vicinity.row(source)[0][1]
        result = nddisco_small.later_packet_route(source, member)
        assert result.mechanism == "direct"
        assert result.path[0] == source
        assert result.path[-1] == member

    def test_direct_route_to_landmark(self, nddisco_small):
        landmark = next(iter(nddisco_small.landmarks))
        vicinity = nddisco_small.tables.vicinity
        source = next(
            (
                v
                for v in range(nddisco_small.topology.num_nodes)
                if v != landmark and landmark not in vicinity.row(v)[0]
            ),
            0,
        )
        if source != landmark:
            result = nddisco_small.later_packet_route(source, landmark)
            assert result.path[-1] == landmark

    def test_routes_are_walks(self, nddisco_small, small_gnm):
        for source, target in [(0, 63), (5, 40), (60, 2), (33, 12)]:
            for result in (
                nddisco_small.first_packet_route(source, target),
                nddisco_small.later_packet_route(source, target),
            ):
                assert result.path[0] == source
                assert result.path[-1] == target
                for a, b in zip(result.path, result.path[1:]):
                    assert small_gnm.has_edge(a, b)

    def test_later_packet_stretch_bound(self, nddisco_small, small_gnm):
        report = measure_stretch(nddisco_small, pair_sample=200, seed=3)
        assert report.later_summary.maximum <= 3.0 + 1e-9

    def test_first_packet_without_resolution_stretch_bound(self, small_gnm):
        routing = NDDiscoRouting(small_gnm, seed=1, resolve_first_packet=False)
        report = measure_stretch(routing, pair_sample=200, seed=3)
        assert report.first_summary.maximum <= 5.0 + 1e-9

    def test_out_of_range_endpoints(self, nddisco_small):
        with pytest.raises(ValueError):
            nddisco_small.first_packet_route(0, 10_000)
        with pytest.raises(ValueError):
            nddisco_small.later_packet_route(-1, 0)

    def test_handshake_used_when_source_in_target_vicinity(self, small_gnm):
        routing = NDDiscoRouting(small_gnm, seed=1)
        # Find a pair where s is in V(t) but t not in V(s) and t not a landmark.
        vicinity = routing.tables.vicinity
        found = None
        for target in range(small_gnm.num_nodes):
            if target in routing.landmarks:
                continue
            for source in vicinity.row(target)[0][1:]:
                if target not in vicinity.row(source)[0]:
                    found = (source, target)
                    break
            if found:
                break
        if found is None:
            pytest.skip("no asymmetric vicinity pair in this topology")
        source, target = found
        result = routing.later_packet_route(source, target)
        assert result.mechanism == "handshake"
        # The handshake path is a shortest path.
        distances, _ = dijkstra(small_gnm, source)
        assert path_length(small_gnm, list(result.path)) == pytest.approx(
            distances[target]
        )

    def test_relay_route_structure(self, nddisco_small):
        source, target = 0, 63
        if nddisco_small.router().knows_direct(source, target):
            pytest.skip("pair resolves directly on this topology")
        relay = nddisco_small.router().relay(source, target)
        assert relay[0] == source
        assert relay[-1] == target
        landmark = nddisco_small.closest_landmark(target)
        assert landmark in relay

    def test_shortcut_mode_setter(self, small_gnm):
        routing = NDDiscoRouting(small_gnm, seed=1, shortcut_mode=ShortcutMode.NONE)
        assert routing.shortcut_mode is ShortcutMode.NONE
        routing.shortcut_mode = ShortcutMode.PATH_KNOWLEDGE
        assert routing.shortcut_mode is ShortcutMode.PATH_KNOWLEDGE
        with pytest.raises(TypeError):
            routing.shortcut_mode = "none"  # type: ignore[assignment]

    def test_shortcutting_never_hurts_mean_stretch(self, medium_gnm):
        base = NDDiscoRouting(
            medium_gnm, seed=2, shortcut_mode=ShortcutMode.NONE,
            resolve_first_packet=False,
        )
        pairs = [(i, (i * 7 + 31) % medium_gnm.num_nodes) for i in range(0, 100)]
        pairs = [(s, t) for s, t in pairs if s != t]
        none_report = measure_stretch(base, pairs=pairs)
        base.shortcut_mode = ShortcutMode.NO_PATH_KNOWLEDGE
        shortcut_report = measure_stretch(base, pairs=pairs)
        assert (
            shortcut_report.first_summary.mean
            <= none_report.first_summary.mean + 1e-9
        )


class TestLineTopology:
    def test_line_graph_routing(self):
        line = line_graph(12)
        routing = NDDiscoRouting(line, seed=3)
        result = routing.later_packet_route(0, 11)
        assert result.path[0] == 0
        assert result.path[-1] == 11
        assert path_length(line, list(result.path)) <= 3 * 11
