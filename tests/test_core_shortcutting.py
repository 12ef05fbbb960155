"""Tests for repro.core.shortcutting and the router that applies it."""

from __future__ import annotations

import pytest

from oracles import reference_paths as reference
from oracles.reference_paths import path_length
from oracles.shortcutting import apply_shortcuts, reference_vicinities
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode, truncate_at_destination
from repro.core.vicinity import vicinity_size
from repro.graphs.generators import geometric_random_graph, gnm_random_graph
from repro.graphs.topology import Topology


@pytest.fixture()
def chain_with_shortcut() -> Topology:
    """A 6-node chain 0-1-2-3-4-5 plus a shortcut edge 1-4.

    The relay route 0->1->2->3->4->5 can be shortened at node 1 (which knows
    the shortcut to 4 and, with a large enough vicinity, to 5).
    """
    return Topology.from_edges(
        6,
        [(node, node + 1, 1.0) for node in range(5)] + [(1, 4, 1.0)],
        name="chain-with-shortcut",
    )


class TestShortcutMode:
    def test_reverse_route_usage(self):
        assert not ShortcutMode.NONE.uses_reverse_route
        assert not ShortcutMode.TO_DESTINATION.uses_reverse_route
        assert ShortcutMode.SHORTER_REVERSE_FORWARD.uses_reverse_route
        assert ShortcutMode.NO_PATH_KNOWLEDGE.uses_reverse_route
        assert not ShortcutMode.UP_DOWN_STREAM.uses_reverse_route
        assert ShortcutMode.PATH_KNOWLEDGE.uses_reverse_route

    def test_per_hop_heuristics(self):
        assert ShortcutMode.NONE.per_hop_heuristic == "none"
        assert ShortcutMode.TO_DESTINATION.per_hop_heuristic == "to-destination"
        assert ShortcutMode.NO_PATH_KNOWLEDGE.per_hop_heuristic == "to-destination"
        assert ShortcutMode.UP_DOWN_STREAM.per_hop_heuristic == "up-down-stream"
        assert ShortcutMode.PATH_KNOWLEDGE.per_hop_heuristic == "up-down-stream"

    def test_all_modes_have_labels(self):
        assert len({mode.value for mode in ShortcutMode}) == 6


class TestTruncateAtDestination:
    def test_no_occurrence_before_end(self):
        assert truncate_at_destination([1, 2, 3]) == [1, 2, 3]

    def test_truncates_at_first_occurrence(self):
        assert truncate_at_destination([1, 3, 2, 3]) == [1, 3]

    def test_empty(self):
        assert truncate_at_destination([]) == []

    def test_single_node(self):
        assert truncate_at_destination([4]) == [4]


class TestApplyShortcuts:
    def test_none_mode_returns_truncated_route(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 2)
        route = [0, 1, 2, 3, 4, 5]
        result = apply_shortcuts(
            chain_with_shortcut, vicinities, route, ShortcutMode.NONE
        )
        assert result == route

    def test_to_destination_splices_direct_path(self, chain_with_shortcut):
        # Vicinity size 6 = whole graph, so node 1 knows a 2-hop path to 5.
        vicinities = reference_vicinities(chain_with_shortcut, 6)
        route = [0, 1, 2, 3, 4, 5]
        result = apply_shortcuts(
            chain_with_shortcut, vicinities, route, ShortcutMode.TO_DESTINATION
        )
        assert result[0] == 0
        assert result[-1] == 5
        assert path_length(chain_with_shortcut, result) < path_length(
            chain_with_shortcut, route
        )

    def test_up_down_stream_at_least_as_good_as_to_destination(
        self, chain_with_shortcut
    ):
        vicinities = reference_vicinities(chain_with_shortcut, 3)
        route = [0, 1, 2, 3, 4, 5]
        to_dest = apply_shortcuts(
            chain_with_shortcut, vicinities, route, ShortcutMode.TO_DESTINATION
        )
        up_down = apply_shortcuts(
            chain_with_shortcut, vicinities, route, ShortcutMode.UP_DOWN_STREAM
        )
        assert path_length(chain_with_shortcut, up_down) <= path_length(
            chain_with_shortcut, to_dest
        )

    def test_reverse_selection_picks_shorter_direction(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 2)
        forward = [0, 1, 2, 3, 4, 5]          # length 5
        reverse = [5, 4, 1, 0]                # length 3 (uses the shortcut)
        result = apply_shortcuts(
            chain_with_shortcut,
            vicinities,
            forward,
            ShortcutMode.SHORTER_REVERSE_FORWARD,
            reverse_route=reverse,
        )
        assert result == [0, 1, 4, 5]

    def test_reverse_required_when_mode_uses_it(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 2)
        with pytest.raises(ValueError):
            apply_shortcuts(
                chain_with_shortcut,
                vicinities,
                [0, 1, 2],
                ShortcutMode.NO_PATH_KNOWLEDGE,
            )

    def test_reverse_endpoints_validated(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 2)
        with pytest.raises(ValueError):
            apply_shortcuts(
                chain_with_shortcut,
                vicinities,
                [0, 1, 2],
                ShortcutMode.NO_PATH_KNOWLEDGE,
                reverse_route=[1, 0],
            )

    def test_empty_route_rejected(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 2)
        with pytest.raises(ValueError):
            apply_shortcuts(chain_with_shortcut, vicinities, [], ShortcutMode.NONE)

    def test_route_through_destination_truncated(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 2)
        route = [0, 1, 4, 5, 4]  # destination is 4, touched earlier
        result = apply_shortcuts(
            chain_with_shortcut, vicinities, route, ShortcutMode.NONE
        )
        assert result == [0, 1, 4]

    def test_modes_never_lengthen_routes(self):
        """Every heuristic returns a route no longer than the raw relay route."""
        topology = gnm_random_graph(60, seed=12, average_degree=5.0)
        vicinities = reference_vicinities(topology, vicinity_size(60))
        def shortest_path(source, target):
            predecessors = reference.dijkstra(topology, source)[1]
            return reference.extract_path(predecessors, source, target)

        # Build a deliberately bad relay route: s -> hub -> t via shortest paths.
        source, hub, target = 0, 30, 59
        forward = (
            shortest_path(source, hub) + shortest_path(hub, target)[1:]
        )
        reverse = (
            shortest_path(target, hub) + shortest_path(hub, source)[1:]
        )
        base_length = path_length(topology, truncate_at_destination(forward))
        for mode in ShortcutMode:
            result = apply_shortcuts(
                topology, vicinities, forward, mode, reverse_route=reverse
            )
            assert result[0] == source
            assert result[-1] == target
            assert path_length(topology, result) <= base_length + 1e-9

    def test_endpoints_always_preserved(self, chain_with_shortcut):
        vicinities = reference_vicinities(chain_with_shortcut, 6)
        for mode in ShortcutMode:
            result = apply_shortcuts(
                chain_with_shortcut,
                vicinities,
                [0, 1, 2, 3, 4, 5],
                mode,
                reverse_route=[5, 4, 3, 2, 1, 0],
            )
            assert result[0] == 0
            assert result[-1] == 5
            # Consecutive nodes are adjacent.
            for a, b in zip(result, result[1:]):
                assert chain_with_shortcut.has_edge(a, b)


class TestRouterShortcutDifferential:
    """``_NDDiscoRouter.shortcut`` on the vicinity slabs against the oracle
    on the reference dict vicinities, for every ordered pair's relay routes
    s .. l_t .. t and t .. l_s .. s, in all six modes."""

    @pytest.mark.parametrize(
        "topology",
        [
            gnm_random_graph(40, seed=21, average_degree=4.0),
            geometric_random_graph(40, seed=22, average_degree=5.0),
        ],
        ids=["gnm", "geometric"],
    )
    def test_every_pair_every_mode(self, topology):
        scheme = NDDiscoRouting(topology, seed=3, vicinity_scale=0.5)
        n = topology.num_nodes
        vicinities = reference_vicinities(topology, vicinity_size(n, scale=0.5))
        relays = {}
        router = scheme.router()
        for source in range(n):
            for target in range(n):
                if source != target:
                    relays[source, target] = router.relay(source, target)
        spliced = 0
        for mode in ShortcutMode:
            scheme.shortcut_mode = mode
            router = scheme.router()
            for (source, target), forward in relays.items():
                reverse = relays[target, source]
                expected = apply_shortcuts(
                    topology, vicinities, forward, mode, reverse_route=reverse
                )
                actual = router.shortcut(list(forward), list(reverse))
                assert actual == expected, (mode, source, target)
                spliced += actual != truncate_at_destination(forward)
        assert spliced  # the modes did shorten some routes
