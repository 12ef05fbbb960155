"""Batched measurement engine vs the per-pair/per-node loops.

The batched routers (:mod:`repro.metrics.batch`) and the batched state
profiles must be byte-identical to the historical loops -- same paths,
same mechanisms, same floats -- across topology families, protocols
(including the generic fallback for VRR), and every shortcut mode.
"""

from __future__ import annotations

import pytest

from repro.core.shortcutting import ShortcutMode
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.sampling import sample_pairs
from repro.graphs.shortest_paths import all_pairs_sampled_distances
from repro.metrics.batch import PairRouter, make_router, route_pairs_batch
from repro.metrics.congestion import measure_congestion
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from repro.staticsim.simulation import StaticSimulation


def _topologies():
    return [
        gnm_random_graph(140, seed=3, average_degree=6.0),
        geometric_random_graph(110, seed=4, average_degree=7.0),
        internet_router_level(120, seed=5),
    ]


class TestBatchedStretch:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_batch_equals_per_pair_loop(self, index):
        topology = _topologies()[index]
        simulation = StaticSimulation(
            topology, ("disco", "nd-disco", "s4", "vrr"), seed=1
        )
        pairs = sample_pairs(topology, 200, seed=7)
        for name, scheme in simulation.schemes.items():
            loop = measure_stretch(scheme, pairs=pairs, batch=False)
            batched = measure_stretch(scheme, pairs=pairs, batch=True)
            assert loop == batched, name

    def test_shared_distance_table_is_identical(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("nd-disco", "s4"), seed=1)
        pairs = sample_pairs(medium_gnm, 120, seed=3)
        distances = all_pairs_sampled_distances(medium_gnm, pairs)
        for scheme in simulation.schemes.values():
            assert measure_stretch(scheme, pairs=pairs) == measure_stretch(
                scheme, pairs=pairs, distances=distances
            )

    @pytest.mark.parametrize("mode", list(ShortcutMode))
    def test_every_shortcut_mode(self, mode):
        topology = gnm_random_graph(120, seed=9, average_degree=6.0)
        simulation = StaticSimulation(
            topology, ("disco", "nd-disco"), seed=2, shortcut_mode=mode
        )
        pairs = sample_pairs(topology, 120, seed=3)
        for name, scheme in simulation.schemes.items():
            loop = measure_stretch(scheme, pairs=pairs, batch=False)
            batched = measure_stretch(scheme, pairs=pairs, batch=True)
            assert loop == batched, (mode, name)


class TestBatchedRoutes:
    def test_route_pairs_batch_matches_scheme_methods(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("disco", "s4"), seed=1)
        pairs = sample_pairs(medium_gnm, 80, seed=11)
        for scheme in simulation.schemes.values():
            batched = route_pairs_batch(scheme, pairs)
            for (source, target), (first, later) in zip(pairs, batched):
                assert first == scheme.first_packet_route(source, target)
                assert later == scheme.later_packet_route(source, target)

    def test_route_length_matches_route_result(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("nd-disco",), seed=1)
        scheme = simulation.scheme("nd-disco")
        router = make_router(scheme)
        for source, target in sample_pairs(medium_gnm, 40, seed=2):
            result = router.later(source, target)
            assert router.route_length(result.path) == result.length(medium_gnm)

    def test_unknown_scheme_falls_back(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("vrr",), seed=1)
        router = make_router(simulation.scheme("vrr"))
        assert type(router) is PairRouter

    def test_desynchronized_disco_mode_falls_back(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("disco",), seed=1)
        disco = simulation.scheme("disco")
        disco.nddisco.shortcut_mode = ShortcutMode.NONE
        assert type(make_router(disco)) is PairRouter


class TestBatchedStateAndCongestion:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_state_profile_equals_per_node_loop(self, index):
        topology = _topologies()[index]
        simulation = StaticSimulation(
            topology, ("disco", "nd-disco", "s4", "vrr"), seed=1
        )
        for name, scheme in simulation.schemes.items():
            loop = measure_state(scheme, batch=False)
            batched = measure_state(scheme, batch=True)
            assert loop == batched, name

    def test_congestion_batch_identical(self, medium_gnm):
        simulation = StaticSimulation(
            medium_gnm, ("disco", "nd-disco", "s4"), seed=1
        )
        for name, scheme in simulation.schemes.items():
            for later in (True, False):
                loop = measure_congestion(
                    scheme, batch=False, use_later_packets=later
                )
                batched = measure_congestion(
                    scheme, batch=True, use_later_packets=later
                )
                assert loop == batched, (name, later)

    def test_staticsim_run_matches_unbatched_measurement(self, medium_gnm):
        simulation = StaticSimulation(
            medium_gnm, ("disco", "nd-disco", "s4"), seed=1
        )
        results = simulation.run(measure_congestion_flag=True, pair_sample=120)
        pairs = sample_pairs(medium_gnm, 120, seed=simulation._seed + 1)
        for name, scheme in simulation.schemes.items():
            display = scheme.name
            assert results.state[display] == measure_state(scheme, batch=False)
            assert results.stretch[display] == measure_stretch(
                scheme, pairs=pairs, batch=False
            )
            assert results.congestion[display] == measure_congestion(
                scheme,
                pairs=None,
                seed=simulation._seed + 2,
                batch=False,
            )
