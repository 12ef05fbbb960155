"""Substrate tables: the flat array-backed scheme-state layer.

Differential tests pin the slab-backed scheme state (built slab-direct by
the C kernels) against real lists and dicts from the public component
functions under the seed reference engine -- slab views vs plain
containers *and* C kernels vs the seed Dijkstra in one comparison -- and
routes, stretch, and state counts between a default build and a build
under ``use_engine("reference")``.  The rest covers the view semantics
(settle-order iteration, KeyError messages, pickling as raw buffers) the
rest of the system relies on.
"""

from __future__ import annotations

import pickle

import pytest

from repro.addressing.address import Address
from repro.addressing.explicit_route import ExplicitRoute
from repro.core.landmarks import closest_landmarks, landmark_spts
from repro.core.nddisco import NDDiscoRouting
from repro.core.tables import NodeSearchTables, Row, SubstrateTables
from repro.core.vicinity import compute_vicinities
from repro.graphs.engine import use_engine
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.sampling import sample_pairs
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from repro.protocols.s4 import S4Routing
from repro.staticsim.simulation import StaticSimulation


def _topologies():
    return [
        gnm_random_graph(140, seed=3, average_degree=6.0),
        geometric_random_graph(110, seed=4, average_degree=7.0),
        internet_router_level(120, seed=5),
    ]


class TestDifferentialAgainstDictBackend:
    """Slab-backed state vs real dicts/lists from the reference engine.

    The name is kept from when the dict side came from a tables backend
    switch, so the test ids stay stable.
    """

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_nddisco_state_identical(self, index):
        topology = _topologies()[index]
        arr = NDDiscoRouting(topology, seed=1)
        n = topology.num_nodes
        with use_engine("reference"):
            ref_spts = landmark_spts(topology, arr.landmarks)
            ref_closest = closest_landmarks(ref_spts, n)
            ref_vicinities = compute_vicinities(topology)
        assert set(arr.landmark_spts) == set(ref_spts)
        for landmark, (ref_dist, ref_parent) in ref_spts.items():
            arr_dist, arr_parent = arr.landmark_spts[landmark]
            assert type(ref_dist) is list and type(ref_parent) is list
            assert list(arr_dist) == ref_dist
            assert list(arr_parent) == ref_parent
        assert list(arr.closest_landmark_rows[0]) == ref_closest[0]
        assert list(arr.closest_landmark_rows[1]) == ref_closest[1]
        # Addresses: explicit route from the closest landmark down its SPT,
        # re-derived here from the reference parent rows.
        for node in topology.nodes():
            landmark = ref_closest[0][node]
            parents = ref_spts[landmark][1]
            path = [node]
            while path[-1] != landmark:
                path.append(parents[path[-1]])
            path.reverse()
            assert arr.addresses[node] == Address(
                node=node,
                landmark=landmark,
                route=ExplicitRoute.from_path(arr.codec, path),
            )
        for node in topology.nodes():
            ref_vicinity = ref_vicinities[node]
            arr_vicinity = arr.vicinities[node]
            assert type(ref_vicinity.distances) is dict
            assert len(arr_vicinity) == len(ref_vicinity)
            assert list(arr_vicinity.distances) == list(ref_vicinity.distances)
            assert dict(arr_vicinity.distances.items()) == ref_vicinity.distances
            assert (
                dict(arr_vicinity.predecessors.items())
                == ref_vicinity.predecessors
            )

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_routes_stretch_state_identical(self, index):
        topology = _topologies()[index]
        pairs = sample_pairs(topology, 200, seed=7)
        with use_engine("reference"):
            ref_sim = StaticSimulation(
                topology.copy(), ("disco", "nd-disco", "s4"), seed=1
            )
        arr_sim = StaticSimulation(
            topology.copy(), ("disco", "nd-disco", "s4"), seed=1
        )
        for name, ref_scheme in ref_sim.schemes.items():
            arr_scheme = arr_sim.scheme(name)
            for source, target in pairs[:60]:
                assert ref_scheme.first_packet_route(
                    source, target
                ) == arr_scheme.first_packet_route(source, target)
                assert ref_scheme.later_packet_route(
                    source, target
                ) == arr_scheme.later_packet_route(source, target)
            assert measure_stretch(ref_scheme, pairs=pairs) == measure_stretch(
                arr_scheme, pairs=pairs
            )
            assert measure_state(ref_scheme) == measure_state(arr_scheme)

    def test_s4_standalone_identical(self):
        topology = gnm_random_graph(120, seed=9, average_degree=6.0)
        with use_engine("reference"):
            ref = S4Routing(topology, seed=2)
        arr = S4Routing(topology, seed=2)
        assert isinstance(arr.tables, SubstrateTables)
        assert isinstance(arr.balls, NodeSearchTables)
        pairs = sample_pairs(topology, 150, seed=3)
        for source, target in pairs:
            assert ref.first_packet_route(source, target) == arr.first_packet_route(
                source, target
            )
            assert ref.later_packet_route(source, target) == arr.later_packet_route(
                source, target
            )
        for node in topology.nodes():
            assert ref.cluster_size(node) == arr.cluster_size(node)
            assert ref.state_entries(node) == arr.state_entries(node)
            assert ref.state_bytes(node) == arr.state_bytes(node)


class TestViews:
    @pytest.fixture(scope="class")
    def scheme(self):
        return NDDiscoRouting(gnm_random_graph(80, seed=2, average_degree=6.0), seed=1)

    def test_row_behaves_like_a_list(self, scheme):
        landmark = sorted(scheme.landmarks)[0]
        dist_row, parent_row = scheme.landmark_spts[landmark]
        assert isinstance(dist_row, Row)
        assert len(dist_row) == scheme.topology.num_nodes
        assert dist_row[0] == dist_row.tolist()[0]
        assert list(reversed(parent_row)) == list(reversed(parent_row.tolist()))
        assert dist_row == dist_row.tolist()
        assert dist_row[1:4] == dist_row.tolist()[1:4]

    def test_vicinity_view_semantics(self, scheme):
        view = scheme.vicinities[5]
        assert 5 in view and view.distances[5] == 0.0
        member = list(view.distances)[-1]
        path = view.path_to(member)
        assert path[0] == 5 and path[-1] == member
        assert view.distance_to(member) == max(view.distances.values())
        with pytest.raises(KeyError, match="is not in the vicinity of 5"):
            view.path_to(-42)
        assert view.members == set(view.distances.keys())
        assert view.radius() == max(view.distances.values())

    def test_spt_path_matches_error_contract(self, scheme):
        landmark = sorted(scheme.landmarks)[0]
        assert scheme.tables.spt_path(landmark, landmark) == [landmark]
        with pytest.raises(KeyError):
            scheme.tables.spt_path(-1, 0)

    def test_predecessor_map_excludes_owner(self, scheme):
        view = scheme.vicinities[3]
        assert 3 not in view.predecessors
        assert len(view.predecessors) == len(view.distances) - 1


class TestSerialization:
    def test_tables_pickle_roundtrip(self):
        scheme = NDDiscoRouting(
            gnm_random_graph(90, seed=4, average_degree=6.0), seed=1
        )
        clone = pickle.loads(pickle.dumps(scheme.tables))
        assert isinstance(clone, SubstrateTables)
        assert clone.landmarks == scheme.tables.landmarks
        assert list(clone.spt_dist) == list(scheme.tables.spt_dist)
        assert list(clone.vicinity.members) == list(
            scheme.tables.vicinity.members
        )
        assert clone.addresses() == scheme.addresses

    def test_scheme_pickle_shares_slabs_via_views(self):
        scheme = NDDiscoRouting(
            gnm_random_graph(90, seed=4, average_degree=6.0), seed=1
        )
        clone = pickle.loads(pickle.dumps(scheme))
        landmark = sorted(clone.landmarks)[0]
        # Row views of the unpickled scheme must resolve onto the clone's
        # own tables object (one slab copy per pickle, not one per view).
        row = clone.landmark_spts[landmark][0]
        assert row._owner is clone.tables
        assert list(row) == list(scheme.landmark_spts[landmark][0])

    def test_getstate_serializes_raw_buffers(self):
        scheme = NDDiscoRouting(
            gnm_random_graph(60, seed=5, average_degree=5.0), seed=1
        )
        state = scheme.tables.__getstate__()
        typecode, payload = state["slabs"]["spt_dist"]
        assert typecode == "d" and isinstance(payload, bytes)
        assert len(payload) == 8 * len(scheme.tables.spt_dist)


class TestNodeSearchTables:
    def test_rejects_misrooted_search(self):
        with pytest.raises(ValueError, match="does not start at its own node"):
            NodeSearchTables.from_searches([({1: 0.0}, {})])

    def test_rejects_empty_search(self):
        with pytest.raises(ValueError, match="no settled members"):
            NodeSearchTables.from_searches([({}, {})])

    def test_path_from_owner(self):
        table = NodeSearchTables.from_searches(
            [
                ({0: 0.0, 1: 1.0, 2: 2.0}, {1: 0, 2: 1}),
                ({1: 0.0, 0: 1.0}, {0: 1}),
            ]
        )
        assert table.path_from_owner(0, 2) == [0, 1, 2]
        assert table.path_from_owner(0, 0) == [0]
        with pytest.raises(KeyError):
            table.path_from_owner(1, 2)
