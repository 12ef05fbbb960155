"""One routing implementation, two temperatures.

Each scheme's routing rule lives in its :class:`PairRouter`.  The
measurement functions route a whole batch on one router (warm memos);
``scheme.first_packet_route`` / ``later_packet_route`` route one pair on a
fresh router (cold memos).  The two must agree -- same paths, same
mechanisms, same floats -- across topology families, protocols (including
the generic router for VRR) and every shortcut mode, and both must
reproduce the digests frozen in ``tests/data/route_goldens.json`` from the
hand-written per-pair methods the routers replaced.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from oracles import reference_paths as reference
from repro.addressing.address import NAME_BYTES_IPV4, NAME_BYTES_IPV6
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.sampling import one_destination_per_node, sample_pairs
from repro.metrics.batch import PairRouter, make_router, route_pairs_batch
from repro.metrics.congestion import CongestionReport, measure_congestion
from repro.metrics.state import StateReport, measure_state
from repro.metrics.stretch import (
    StretchReport,
    measure_stretch,
    stretch_of_route,
)
from repro.protocols.s4 import S4Routing
from repro.staticsim.simulation import StaticSimulation

_GOLDENS_DIR = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_route_goldens", _GOLDENS_DIR / "make_route_goldens.py"
)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


def _topologies():
    return [
        gnm_random_graph(140, seed=3, average_degree=6.0),
        geometric_random_graph(110, seed=4, average_degree=7.0),
        internet_router_level(120, seed=5),
    ]


def _route_pairs_one_by_one(scheme, pairs):
    """Every pair through the one-pair API: a fresh router per call."""
    return [
        (
            scheme.first_packet_route(source, target),
            scheme.later_packet_route(source, target),
        )
        for source, target in pairs
    ]


def _stretch_one_by_one(scheme, pairs) -> StretchReport:
    """``measure_stretch`` assembled from one-pair calls and
    :meth:`RouteResult.length` (no router memo anywhere)."""
    topology = scheme.topology
    measured = [(s, t) for s, t in pairs if s != t]
    distances = reference.all_pairs_sampled_distances(topology, measured)
    routes = _route_pairs_one_by_one(scheme, measured)
    return StretchReport(
        scheme=scheme.name,
        pairs=tuple(measured),
        first_packet=tuple(
            stretch_of_route(topology, first, distances[pair])
            for pair, (first, _) in zip(measured, routes)
        ),
        later_packets=tuple(
            stretch_of_route(topology, later, distances[pair])
            for pair, (_, later) in zip(measured, routes)
        ),
        failures=sum(not first.delivered for first, _ in routes),
    )


def _congestion_one_by_one(scheme, flows, *, later: bool) -> CongestionReport:
    """``measure_congestion`` assembled from one-pair calls."""
    route = scheme.later_packet_route if later else scheme.first_packet_route
    usage = {(u, v): 0 for u, v, _ in scheme.topology.edges()}
    for source, target in flows:
        if source == target:
            continue
        path = route(source, target).path
        for a, b in zip(path, path[1:]):
            usage[(a, b) if a < b else (b, a)] += 1
    return CongestionReport(
        scheme=scheme.name,
        edge_usage=usage,
        flows=len(flows),
        use_later_packets=later,
    )


def _state_node_by_node(scheme) -> StateReport:
    """``measure_state`` assembled from ``state_entries`` / ``state_bytes``."""
    nodes = tuple(scheme.topology.nodes())
    return StateReport(
        scheme=scheme.name,
        nodes=nodes,
        entries=tuple(scheme.state_entries(node) for node in nodes),
        bytes_ipv4=tuple(
            scheme.state_bytes(node, name_bytes=NAME_BYTES_IPV4)
            for node in nodes
        ),
        bytes_ipv6=tuple(
            scheme.state_bytes(node, name_bytes=NAME_BYTES_IPV6)
            for node in nodes
        ),
    )


class TestBatchedStretch:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_batch_equals_per_pair_loop(self, index):
        topology = _topologies()[index]
        simulation = StaticSimulation(
            topology, ("disco", "nd-disco", "s4", "vrr"), seed=1
        )
        pairs = sample_pairs(topology, 200, seed=7)
        for name, scheme in simulation.schemes.items():
            loop = _stretch_one_by_one(scheme, pairs)
            batched = measure_stretch(scheme, pairs=pairs)
            assert loop == batched, name

    def test_shared_distance_table_is_identical(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("nd-disco", "s4"), seed=1)
        pairs = sample_pairs(medium_gnm, 120, seed=3)
        distances = medium_gnm.csr().batched_target_distances(pairs)
        for scheme in simulation.schemes.values():
            assert measure_stretch(scheme, pairs=pairs) == measure_stretch(
                scheme, pairs=pairs, distances=distances
            )

    @pytest.mark.parametrize("mode", list(ShortcutMode))
    def test_every_shortcut_mode(self, mode):
        topology = gnm_random_graph(120, seed=9, average_degree=6.0)
        nddisco = NDDiscoRouting(topology, seed=2, shortcut_mode=mode)
        schemes = {
            "disco": DiscoRouting(topology, seed=2, nddisco=nddisco),
            "nd-disco": nddisco,
        }
        pairs = sample_pairs(topology, 120, seed=3)
        for name, scheme in schemes.items():
            loop = _stretch_one_by_one(scheme, pairs)
            batched = measure_stretch(scheme, pairs=pairs)
            assert loop == batched, (mode, name)

    @pytest.mark.parametrize("mode", list(ShortcutMode))
    def test_mode_switch_equals_scheme_built_in_that_mode(self, mode):
        # The fig06 pattern: one converged scheme, the heuristic switched
        # in place between measurements.
        topology = gnm_random_graph(120, seed=9, average_degree=6.0)
        pairs = sample_pairs(topology, 120, seed=3)
        switched = StaticSimulation(topology, ("disco",), seed=2).scheme(
            "disco"
        )
        measure_stretch(switched, pairs=pairs)  # a measurement in the old mode
        switched.shortcut_mode = mode
        built = DiscoRouting(
            topology,
            seed=2,
            nddisco=NDDiscoRouting(topology, seed=2, shortcut_mode=mode),
        )
        assert measure_stretch(switched, pairs=pairs) == measure_stretch(
            built, pairs=pairs
        )


class TestBatchedRoutes:
    def test_route_pairs_batch_matches_scheme_methods(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("disco", "s4"), seed=1)
        pairs = sample_pairs(medium_gnm, 80, seed=11)
        for scheme in simulation.schemes.values():
            assert route_pairs_batch(scheme, pairs) == _route_pairs_one_by_one(
                scheme, pairs
            )

    def test_route_length_matches_route_result(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("nd-disco",), seed=1)
        scheme = simulation.scheme("nd-disco")
        router = make_router(scheme)
        for source, target in sample_pairs(medium_gnm, 40, seed=2):
            result = router.later(source, target)
            assert router.route_length(result.path) == result.length(medium_gnm)

    def test_unknown_scheme_falls_back(self, medium_gnm):
        simulation = StaticSimulation(medium_gnm, ("vrr",), seed=1)
        vrr = simulation.scheme("vrr")
        assert type(vrr.router()) is PairRouter
        assert type(make_router(vrr)) is PairRouter

    def test_nddisco_mode_is_discos_mode(self, medium_gnm):
        # Disco keeps no copy of the mode: setting it on the embedded
        # ND-Disco is setting it on Disco, for the next measurement too.
        simulation = StaticSimulation(medium_gnm, ("disco",), seed=1)
        disco = simulation.scheme("disco")
        pairs = sample_pairs(medium_gnm, 80, seed=11)
        default = measure_stretch(disco, pairs=pairs)
        disco.nddisco.shortcut_mode = ShortcutMode.NONE
        assert disco.shortcut_mode is ShortcutMode.NONE
        built = DiscoRouting(
            medium_gnm,
            seed=1,
            nddisco=NDDiscoRouting(
                medium_gnm, seed=1, shortcut_mode=ShortcutMode.NONE
            ),
        )
        unshortcut = measure_stretch(disco, pairs=pairs)
        assert unshortcut == measure_stretch(built, pairs=pairs)
        assert unshortcut != default

    @pytest.mark.parametrize("entry", ["one-pair", "batch"])
    @pytest.mark.parametrize("family", list(goldens.TOPOLOGIES))
    def test_route_goldens(self, family, entry):
        route = {
            "one-pair": _route_pairs_one_by_one,
            "batch": route_pairs_batch,
        }[entry]
        recorded = json.loads(goldens.GOLDENS_PATH.read_text())
        seen = set()
        for cell, scheme, pairs in goldens.cells(family):
            assert goldens.digest(route(scheme, pairs)) == recorded[cell], cell
            seen.add(cell)
        assert seen == {cell for cell in recorded if cell.startswith(family)}

    @pytest.mark.parametrize("name", ["nd-disco", "s4"])
    @pytest.mark.parametrize("family", list(goldens.TOPOLOGIES))
    def test_from_tables_is_the_built_scheme(self, family, name):
        """A scheme adopting a built ND-Disco's tables routes as the scheme
        its constructor builds (both give the recorded digest) and holds
        the same state."""
        topology = goldens.TOPOLOGIES[family]()
        pairs = sample_pairs(topology, 200, seed=7)
        nd = NDDiscoRouting(topology, seed=1)
        built, cell = {
            "nd-disco": (nd, f"{family}/nd-disco/no-path-knowledge"),
            "s4": (S4Routing(topology, seed=1), f"{family}/s4"),
        }[name]
        adopted = type(built).from_tables(topology, nd.tables, nd.names)
        recorded = json.loads(goldens.GOLDENS_PATH.read_text())[cell]
        for scheme in (built, adopted):
            assert goldens.digest(route_pairs_batch(scheme, pairs)) == recorded
        nodes = list(topology.nodes())
        assert adopted.state_profile(nodes) == built.state_profile(nodes)


@pytest.fixture(scope="module")
def simulation(medium_gnm):
    return StaticSimulation(medium_gnm, ("disco", "nd-disco", "s4"), seed=1)


class TestEndpointValidation:
    """Out-of-range endpoints raise the schemes' ``ValueError`` on the
    production path too (they used to route phantom edges or raise bare
    ``KeyError`` / ``IndexError``)."""

    @pytest.mark.parametrize(
        "entry", ["router.pair", "measure_stretch", "measure_congestion"]
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            ((-1, 5), r"source -1 out of range \(n=150\)"),
            ((5, -1), r"target -1 out of range \(n=150\)"),
            ((5, 150), r"target 150 out of range \(n=150\)"),
        ],
        ids=["source=-1", "target=-1", "target=n"],
    )
    @pytest.mark.parametrize("name", ["disco", "nd-disco", "s4"])
    def test_bad_endpoint_raises_value_error(
        self, simulation, name, bad, message, entry
    ):
        scheme = simulation.scheme(name)
        call = {
            "router.pair": lambda: make_router(scheme).pair(*bad),
            # A supplied table keeps the distance kernel's own range check
            # out of the way: the routers must refuse the pair themselves.
            "measure_stretch": lambda: measure_stretch(
                scheme, pairs=[bad], distances={bad: 1.0}
            ),
            "measure_congestion": lambda: measure_congestion(
                scheme, pairs=[bad]
            ),
        }[entry]
        with pytest.raises(ValueError, match=message):
            call()


class TestBatchedStateAndCongestion:
    @pytest.mark.parametrize(
        "measure", [measure_stretch, measure_congestion, measure_state]
    )
    def test_batch_argument_is_gone(self, simulation, measure):
        with pytest.raises(TypeError):
            measure(simulation.scheme("s4"), batch=False)

    def test_congestion_batch_identical(self, medium_gnm):
        simulation = StaticSimulation(
            medium_gnm, ("disco", "nd-disco", "s4"), seed=1
        )
        flows = one_destination_per_node(medium_gnm, seed=0)
        for name, scheme in simulation.schemes.items():
            for later in (True, False):
                loop = _congestion_one_by_one(scheme, flows, later=later)
                batched = measure_congestion(scheme, use_later_packets=later)
                assert loop == batched, (name, later)

    def test_staticsim_run_matches_unbatched_measurement(self, medium_gnm):
        simulation = StaticSimulation(
            medium_gnm, ("disco", "nd-disco", "s4"), seed=1
        )
        results = simulation.run(measure_congestion_flag=True, pair_sample=120)
        pairs = sample_pairs(medium_gnm, 120, seed=simulation._seed + 1)
        flows = one_destination_per_node(medium_gnm, seed=simulation._seed + 2)
        for name, scheme in simulation.schemes.items():
            display = scheme.name
            assert results.state[display] == _state_node_by_node(scheme)
            assert results.stretch[display] == _stretch_one_by_one(
                scheme, pairs
            )
            assert results.congestion[display] == _congestion_one_by_one(
                scheme, flows, later=True
            )
