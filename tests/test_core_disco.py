"""Tests for repro.core.disco (the full name-independent protocol)."""

from __future__ import annotations

import pytest

from oracles.sloppy_groups import stored_addresses
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.graphs.generators import gnm_random_graph
from repro.metrics.stretch import measure_stretch
from repro.naming.names import name_for_node
from repro.staticsim.simulation import StaticSimulation


#: ``(constructor, keyword, a value)`` for each keyword that left
#: ``DiscoRouting``, ``StaticSimulation`` and ``StaticSimulation.run``.
_REMOVED_KEYWORDS = [
    ("disco", "names", None),
    ("disco", "shortcut_mode", ShortcutMode.NONE),
    ("disco", "vicinity_scale", 2.0),
    ("simulation", "scheme_options", {}),
    ("simulation", "shortcut_mode", ShortcutMode.NONE),
    ("simulation", "num_fingers", 3),
    ("run", "congestion_pairs", [(0, 1)]),
]


class TestConstruction:
    def test_reuses_shared_nddisco(self, small_gnm, nddisco_small, disco_small):
        assert disco_small.nddisco is nddisco_small
        assert disco_small.landmarks == nddisco_small.landmarks

    def test_rejects_foreign_nddisco(self, small_gnm, medium_gnm):
        foreign = NDDiscoRouting(medium_gnm, seed=2)
        with pytest.raises(ValueError):
            DiscoRouting(small_gnm, nddisco=foreign)

    @pytest.mark.parametrize(
        "build, keyword, value",
        _REMOVED_KEYWORDS,
        ids=[f"{build}-{keyword}" for build, keyword, _ in _REMOVED_KEYWORDS],
    )
    def test_removed_keyword_is_refused(
        self, small_gnm, nddisco_small, build, keyword, value
    ):
        """The substrate's names, shortcut mode and vicinity size are the
        ND-Disco's, and a simulation builds every protocol with its
        defaults: none of these is a keyword any more."""
        call = {
            "disco": lambda: DiscoRouting(
                small_gnm, nddisco=nddisco_small, **{keyword: value}
            ),
            "simulation": lambda: StaticSimulation(
                small_gnm, ("disco",), seed=1, **{keyword: value}
            ),
            "run": lambda: StaticSimulation(small_gnm, ("s4",), seed=1).run(
                **{keyword: value}
            ),
        }[build]
        with pytest.raises(TypeError, match=keyword):
            call()

    def test_groups_on_the_nddiscos_names(self, small_gnm):
        other = [name_for_node(v + 1000) for v in range(small_gnm.num_nodes)]
        named = NDDiscoRouting(small_gnm, seed=1, names=other)
        disco = DiscoRouting(small_gnm, seed=1, nddisco=named)
        assert disco.nddisco.names == other
        assert disco.grouping.hash_of(5) == other[5].hash_value

    def test_builds_own_nddisco_when_not_given(self, small_gnm):
        disco = DiscoRouting(small_gnm, seed=4)
        assert disco.nddisco.topology is small_gnm

    def test_overlay_and_grouping_sizes(self, disco_small, small_gnm):
        assert disco_small.grouping.num_nodes == small_gnm.num_nodes
        assert disco_small.overlay.grouping is disco_small.grouping

    def test_shortcut_mode_propagates_to_nddisco(self, small_gnm):
        nddisco = NDDiscoRouting(small_gnm, seed=4, shortcut_mode=ShortcutMode.NONE)
        disco = DiscoRouting(small_gnm, seed=4, nddisco=nddisco)
        assert disco.shortcut_mode is ShortcutMode.NONE
        disco.shortcut_mode = ShortcutMode.PATH_KNOWLEDGE
        assert disco.nddisco.shortcut_mode is ShortcutMode.PATH_KNOWLEDGE
        with pytest.raises(TypeError):
            disco.shortcut_mode = 3  # type: ignore[assignment]


class TestStateAccounting:
    def test_disco_state_exceeds_nddisco(self, disco_small, nddisco_small, small_gnm):
        """Name-independence costs extra state (group mappings + overlay)."""
        for node in range(0, small_gnm.num_nodes, 7):
            assert disco_small.state_entries(node) > nddisco_small.state_entries(node)

    def test_group_entries_match_grouping_model(self, disco_small, small_gnm):
        for node in (0, 20, 63):
            expected = len(stored_addresses(disco_small.grouping, node)) - 1
            assert disco_small.group_address_entries(node) == expected

    def test_state_bytes_scale_with_name_size(self, disco_small):
        assert disco_small.state_bytes(3, name_bytes=16) > disco_small.state_bytes(
            3, name_bytes=4
        )

    def test_state_bytes_exceed_nddisco(self, disco_small, nddisco_small):
        assert disco_small.state_bytes(5) > nddisco_small.state_bytes(5)

    def test_state_distribution_balanced(self, disco_medium, medium_gnm):
        """Disco's max/mean state ratio stays small (the Fig. 2 shape)."""
        entries = [
            disco_medium.state_entries(v) for v in range(medium_gnm.num_nodes)
        ]
        mean = sum(entries) / len(entries)
        assert max(entries) <= 2.0 * mean


class TestRouting:
    def test_self_route(self, disco_small):
        assert disco_small.first_packet_route(9, 9).path == (9,)

    def test_routes_are_walks_to_target(self, disco_small, small_gnm):
        for source, target in [(0, 63), (11, 37), (58, 3), (25, 44)]:
            for result in (
                disco_small.first_packet_route(source, target),
                disco_small.later_packet_route(source, target),
            ):
                assert result.delivered
                assert result.path[0] == source
                assert result.path[-1] == target
                for a, b in zip(result.path, result.path[1:]):
                    assert small_gnm.has_edge(a, b)

    def test_all_pairs_reachable_small(self, disco_small, small_gnm):
        n = small_gnm.num_nodes
        for source in range(0, n, 9):
            for target in range(0, n, 7):
                if source == target:
                    continue
                result = disco_small.first_packet_route(source, target)
                assert result.path[-1] == target

    def test_first_packet_mechanisms_valid(self, disco_medium, medium_gnm):
        allowed = {
            "self",
            "direct",
            "known-address",
            "group-contact",
            "resolution-fallback",
        }
        seen = set()
        for source in range(0, medium_gnm.num_nodes, 11):
            for target in range(0, medium_gnm.num_nodes, 13):
                if source == target:
                    continue
                result = disco_medium.first_packet_route(source, target)
                assert result.mechanism in allowed
                seen.add(result.mechanism)
        # The interesting name-independent mechanism must actually occur.
        assert "group-contact" in seen or "known-address" in seen

    def test_first_packet_stretch_bound(self, disco_medium):
        report = measure_stretch(disco_medium, pair_sample=300, seed=5)
        assert report.first_summary.maximum <= 7.0 + 1e-9

    def test_later_packet_stretch_bound(self, disco_medium):
        report = measure_stretch(disco_medium, pair_sample=300, seed=6)
        assert report.later_summary.maximum <= 3.0 + 1e-9

    def test_later_packets_never_longer_than_first(self, disco_medium, medium_gnm):
        for source, target in [(0, 100), (3, 77), (140, 2), (60, 61)]:
            if source == target:
                continue
            first = disco_medium.first_packet_route(source, target)
            later = disco_medium.later_packet_route(source, target)
            assert later.length(medium_gnm) <= first.length(medium_gnm) + 1e-9

    def test_later_route_same_as_nddisco(self, disco_small, nddisco_small):
        for source, target in [(0, 50), (20, 40)]:
            assert (
                disco_small.later_packet_route(source, target).path
                == nddisco_small.later_packet_route(source, target).path
            )

    def test_out_of_range_rejected(self, disco_small):
        with pytest.raises(ValueError):
            disco_small.first_packet_route(0, 1_000)


class TestEstimateErrors:
    def test_scalar_estimate_accepted(self, small_gnm, nddisco_small):
        disco = DiscoRouting(
            small_gnm, seed=1, nddisco=nddisco_small, estimated_n=128.0
        )
        result = disco.first_packet_route(0, 63)
        assert result.path[-1] == 63

    def test_per_node_estimates_still_route(self, medium_gnm):
        from repro.estimation.error_injection import inject_estimate_error

        estimates = inject_estimate_error(
            medium_gnm.num_nodes, max_error=0.6, seed=3
        )
        disco = DiscoRouting(medium_gnm, seed=2, estimated_n=estimates)
        delivered = 0
        total = 0
        for source in range(0, medium_gnm.num_nodes, 17):
            for target in range(0, medium_gnm.num_nodes, 13):
                if source == target:
                    continue
                total += 1
                result = disco.first_packet_route(source, target)
                if result.path and result.path[-1] == target:
                    delivered += 1
        assert delivered == total

    def test_estimate_error_increases_stretch_only_marginally(self, medium_gnm):
        from repro.estimation.error_injection import inject_estimate_error

        pairs = [(i, (i * 13 + 7) % medium_gnm.num_nodes) for i in range(120)]
        pairs = [(s, t) for s, t in pairs if s != t]
        base_nd = NDDiscoRouting(medium_gnm, seed=2)
        exact = DiscoRouting(medium_gnm, seed=2, nddisco=base_nd)
        noisy = DiscoRouting(
            medium_gnm,
            seed=2,
            nddisco=base_nd,
            estimated_n=inject_estimate_error(
                medium_gnm.num_nodes, max_error=0.4, seed=9
            ),
        )
        exact_mean = measure_stretch(exact, pairs=pairs).first_summary.mean
        noisy_mean = measure_stretch(noisy, pairs=pairs).first_summary.mean
        assert noisy_mean <= exact_mean * 1.25


class TestFingerConfiguration:
    def test_more_fingers_more_overlay_state(self, small_gnm, nddisco_small):
        one = DiscoRouting(small_gnm, seed=1, nddisco=nddisco_small, num_fingers=1)
        three = DiscoRouting(small_gnm, seed=1, nddisco=nddisco_small, num_fingers=3)
        total_one = sum(one.overlay.degree(v) for v in range(small_gnm.num_nodes))
        total_three = sum(
            three.overlay.degree(v) for v in range(small_gnm.num_nodes)
        )
        assert total_three > total_one
