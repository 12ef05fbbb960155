"""Substrate tables: the flat array-backed scheme-state layer.

Differential tests pin the slab-backed scheme state (built slab-direct by
the C kernels) against real lists and dicts derived from the seed's
dict-based Dijkstra (``tests/oracles/reference_paths.py``) -- slab rows
vs plain containers *and* C kernels vs the seed Dijkstra in one
comparison -- for everything the three schemes route over: landmark SPT
rows, closest rows, vicinities, addresses and S4's ball rows.  The rest
covers the row semantics (settle order, the owner first, range and
KeyError contracts, raw slab directories) the rest of the system
relies on.
"""

from __future__ import annotations

import copy
import json
import os
from array import array
from math import inf

import pytest

from oracles import reference_paths as reference
from oracles.component_build import closest_landmarks
from oracles.labels import decode_path, route_bits
from repro.addressing.labels import address_bits
from repro.core.disco import DiscoRouting
from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.core.vicinity import vicinity_size
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.sampling import sample_pairs
from repro.graphs.topology import Topology
from repro.naming.names import name_for_node
from repro.protocols.s4 import S4Routing
from repro.staticsim.simulation import StaticSimulation


def _topologies():
    return [
        gnm_random_graph(140, seed=3, average_degree=6.0),
        geometric_random_graph(110, seed=4, average_degree=7.0),
        internet_router_level(120, seed=5),
    ]


def _oracle_spts(topology, landmarks):
    """Dense landmark SPT rows (plain lists) from the oracle's Dijkstra."""
    n = topology.num_nodes
    spts = {}
    for landmark in sorted(landmarks):
        distances, parents = reference.dijkstra(topology, landmark)
        dist_row = [0.0] * n
        parent_row = [-1] * n
        for node, value in distances.items():
            dist_row[node] = value
        for node, parent in parents.items():
            parent_row[node] = parent
        spts[landmark] = (dist_row, parent_row)
    return spts


def _search_row(table: NodeSearchTables, node: int):
    """``node``'s row as the oracle's ``(distances, predecessors)`` dicts."""
    members, dists, parents = (view.tolist() for view in table.row(node))
    return dict(zip(members, dists)), dict(zip(members[1:], parents[1:]))


def _assert_landmark_state_matches_oracle(scheme, topology):
    """SPT rows, closest rows and addresses of ``scheme`` vs real lists
    from the oracle; returns the oracle's closest rows."""
    n = topology.num_nodes
    tables = scheme.tables
    ref_spts = _oracle_spts(topology, scheme.landmarks)
    ref_closest = closest_landmarks(ref_spts, n)
    assert tables.landmarks == sorted(ref_spts)
    for index, (ref_dist, ref_parent) in enumerate(ref_spts.values()):
        assert tables.spt_dist[index * n : (index + 1) * n].tolist() == ref_dist
        assert tables.spt_parent[index * n : (index + 1) * n].tolist() == (
            ref_parent
        )
    assert list(tables.closest) == ref_closest[0]
    assert list(tables.closest_dist) == ref_closest[1]
    # Addresses: explicit route from the closest landmark down its SPT,
    # re-derived here from the oracle's parent rows.
    bits = address_bits(topology, tables)
    for node in topology.nodes():
        landmark = ref_closest[0][node]
        parents = ref_spts[landmark][1]
        path = [node]
        while path[-1] != landmark:
            path.append(parents[path[-1]])
        path.reverse()
        assert bits[node] == route_bits(topology, path)
        if isinstance(scheme, NDDiscoRouting):
            address = scheme.address_of(node)
            assert (address.landmark, list(address.route.path)) == (landmark, path)
            assert decode_path(topology, landmark, address.route.labels) == path
            assert address.route.bits == bits[node]
    return ref_closest


def _assert_balls_match_oracle(s4, topology, closest_dist):
    """Every node's ball row vs the oracle's radius-bounded search."""
    n = topology.num_nodes
    cluster_sizes = [0] * n
    for node in topology.nodes():
        distances, parents = reference.dijkstra_radius(
            topology, node, closest_dist[node]
        )
        # Same members in the same settle order, same floats, same parents.
        ball_distances, ball_parents = _search_row(s4.balls, node)
        assert list(ball_distances.items()) == list(distances.items())
        assert ball_parents == parents
        for member in distances:
            if member != node:
                cluster_sizes[member] += 1
    assert [s4.cluster_size(node) for node in range(n)] == cluster_sizes


class TestDifferentialAgainstDictBackend:
    """Slab-backed state vs real dicts/lists from the oracle.

    The class and test names are kept from when the dict side came from a
    tables backend switch, and then from a second engine inside ``src/``,
    so the test ids stay stable.
    """

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_nddisco_state_identical(self, index):
        topology = _topologies()[index]
        arr = NDDiscoRouting(topology, seed=1)
        _assert_landmark_state_matches_oracle(arr, topology)
        size = vicinity_size(topology.num_nodes)
        ref_vicinities = [
            reference.dijkstra_k_nearest(topology, node, size)
            for node in topology.nodes()
        ]
        for node in topology.nodes():
            ref_distances, ref_predecessors = ref_vicinities[node]
            distances, predecessors = _search_row(arr.tables.vicinity, node)
            assert type(ref_distances) is dict
            assert list(distances.items()) == list(ref_distances.items())
            assert predecessors == ref_predecessors

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_routes_stretch_state_identical(self, index):
        """Everything the three schemes of one simulation route over.

        Routes, stretch and state counts are pure functions of this state
        (one router per scheme reads the slabs; ``route_goldens.json`` pins
        its rule), so the comparison that used to run two builds through
        the routers is a comparison of the state against the oracle.
        """
        topology = _topologies()[index]
        sim = StaticSimulation(
            topology.copy(), ("disco", "nd-disco", "s4"), seed=1
        )
        nd = sim.scheme("nd-disco")
        s4 = sim.scheme("s4")
        assert sim.scheme("disco").nddisco is nd
        assert s4.tables is nd.tables
        ref_closest = _assert_landmark_state_matches_oracle(nd, topology)
        _assert_balls_match_oracle(s4, topology, ref_closest[1])
        # The stretch denominators of the 200 pairs the old comparison used.
        pairs = sample_pairs(topology, 200, seed=7)
        assert topology.csr().batched_target_distances(
            pairs
        ) == reference.all_pairs_sampled_distances(topology, pairs)

    def test_s4_standalone_identical(self):
        topology = gnm_random_graph(120, seed=9, average_degree=6.0)
        arr = S4Routing(topology, seed=2)
        assert isinstance(arr.tables, SubstrateTables)
        assert isinstance(arr.balls, NodeSearchTables)
        assert arr.tables.vicinity is None
        ref_closest = _assert_landmark_state_matches_oracle(arr, topology)
        _assert_balls_match_oracle(arr, topology, ref_closest[1])
        for node in topology.nodes():
            assert arr.closest_landmark(node) == ref_closest[0][node]


class TestViews:
    @pytest.fixture(scope="class")
    def scheme(self):
        return NDDiscoRouting(gnm_random_graph(80, seed=2, average_degree=6.0), seed=1)

    def test_vicinity_row_semantics(self, scheme):
        """The owner first at distance 0 with parent -1, settle order, and
        a path to every member along the row's parents."""
        vicinity = scheme.tables.vicinity
        members, dists, parents = vicinity.row(5)
        assert (members[0], dists[0], parents[0]) == (5, 0.0, -1)
        assert 5 not in members[1:].tolist()
        assert dists.tolist() == sorted(dists.tolist())
        member = members[-1]
        path = vicinity.path_from_owner(5, member)
        assert path[0] == 5 and path[-1] == member
        assert dists[-1] == max(dists)
        with pytest.raises(KeyError):
            vicinity.path_from_owner(5, -42)

    def test_spt_path_matches_error_contract(self, scheme):
        landmark = sorted(scheme.landmarks)[0]
        assert scheme.tables.spt_path(landmark, landmark) == [landmark]
        with pytest.raises(KeyError):
            scheme.tables.spt_path(-1, 0)



_ACCESSORS = {
    "closest_landmark": lambda scheme, landmark, node: (
        scheme.closest_landmark(node)
    ),
    "address_of": lambda scheme, landmark, node: scheme.address_of(node),
    "landmark_distance": lambda scheme, landmark, node: (
        scheme.landmark_distance(landmark, node)
    ),
    "landmark_path": lambda scheme, landmark, node: (
        scheme.landmark_path(landmark, node)
    ),
}


@pytest.fixture(scope="module")
def accessor_schemes():
    topology = gnm_random_graph(48, seed=4, average_degree=6.0)
    nd = NDDiscoRouting(topology, seed=4)
    return {
        "nd-disco": nd,
        # Disco answers these through the ND-Disco it embeds.
        "disco": DiscoRouting(topology, seed=4, nddisco=nd).nddisco,
        "s4": S4Routing.from_tables(topology, nd.tables, nd.names),
    }


@pytest.mark.parametrize("node", [-1, 48])
@pytest.mark.parametrize(
    "name, accessor",
    [
        (name, accessor)
        for name in ("nd-disco", "disco")
        for accessor in _ACCESSORS
    ]
    + [("s4", "closest_landmark"), ("s4", "landmark_path")],
)
def test_scheme_accessors_refuse_a_node_outside_the_graph(
    accessor_schemes, name, accessor, node
):
    """The slabs behind these accessors are flat: node -1 would read node
    47's entry, and node 48 the next landmark's row.  They raise instead."""
    scheme = accessor_schemes[name]
    landmark = min(scheme.landmarks)
    assert landmark == 1
    _ACCESSORS[accessor](scheme, landmark, 47)  # in range: answers
    with pytest.raises(ValueError, match=rf"{node} out of range \(n=48\)"):
        _ACCESSORS[accessor](scheme, landmark, node)


def _with(tables: SubstrateTables, **slots) -> SubstrateTables:
    """A copy of ``tables`` with ``slots`` replaced."""
    clone = copy.copy(tables)
    for slot, value in slots.items():
        setattr(clone, slot, value)
    return clone


#: case -> (what ``from_tables`` is given, instead of the scheme's own
#: tables and names; the message it must raise)
_REFUSED = {
    "wrong n": (
        lambda t, tables, names: (_with(tables, num_nodes=49), names),
        "tables cover 49 nodes",
    ),
    "landmark -1": (
        lambda t, tables, names: (
            _with(tables, landmark_ids=array("q", [-1, *tables.landmark_ids[1:]])),
            names,
        ),
        "landmark ids",
    ),
    "landmark n": (
        lambda t, tables, names: (
            _with(tables, landmark_ids=array("q", [*tables.landmark_ids[:-1], 48])),
            names,
        ),
        "landmark ids",
    ),
    "spt slab short": (
        lambda t, tables, names: (
            _with(tables, spt_parent=tables.spt_parent[:-1]),
            names,
        ),
        "spt_parent holds",
    ),
    "closest short": (
        lambda t, tables, names: (_with(tables, closest=tables.closest[:-1]), names),
        "closest holds",
    ),
    "no vicinity": (
        lambda t, tables, names: (_with(tables, vicinity=None), names),
        "no vicinity table",
    ),
    "names short": (
        lambda t, tables, names: (tables, names[:-1]),
        "names must have exactly 48",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
@pytest.mark.parametrize("name", ["nd-disco", "s4"])
def test_from_tables_refuses_tables_that_do_not_fit(accessor_schemes, name, case):
    """``from_tables`` is the one way in for converged state: what does not
    fit the topology raises, in O(|L|), before a slab is read.  S4 reads no
    vicinity, so it adopts tables without one."""
    nd = accessor_schemes["nd-disco"]
    scheme = accessor_schemes[name]
    make, message = _REFUSED[case]
    tables, names = make(nd.topology, nd.tables, nd.names)
    if name == "s4" and case == "no vicinity":
        adopted = type(scheme).from_tables(nd.topology, tables, names)
        assert adopted.state_profile([0, 47]) == scheme.state_profile([0, 47])
        return
    with pytest.raises(ValueError, match=message):
        type(scheme).from_tables(nd.topology, tables, names)


_HOP_TOPOLOGIES = {
    "unit": lambda: gnm_random_graph(90, seed=6, average_degree=5.0),
    "integer": lambda: geometric_random_graph(
        80, seed=6, average_degree=6.0, latency_quantum=1.0
    ),
    "geometric": lambda: geometric_random_graph(80, seed=7, average_degree=6.0),
}


class TestSptHops:
    """``spt_hops`` is ``len(spt_path) - 1`` with no list behind it."""

    @pytest.mark.parametrize("storage", ["array", "mmap", "directory"])
    @pytest.mark.parametrize("family", sorted(_HOP_TOPOLOGIES))
    def test_counts_the_edges_of_spt_path(self, family, storage, tmp_path):
        topology = _HOP_TOPOLOGIES[family]()
        landmarks = range(0, topology.num_nodes, 7)
        if storage == "directory":
            root = str(tmp_path / "slabs")
            build_substrate_tables(topology, landmarks, storage=root)
            tables = SubstrateTables.from_mmap(root)
        else:
            tables = build_substrate_tables(topology, landmarks, storage=storage)
        for landmark in landmarks:
            assert tables.spt_hops(landmark, landmark) == 0
            for node in range(topology.num_nodes):
                path = tables.spt_path(landmark, node)
                assert tables.spt_hops(landmark, node) == len(path) - 1
        with pytest.raises(KeyError):
            tables.spt_hops(1, 0)

    def test_another_component_raises_like_spt_path(self):
        tables = _two_component_tables()
        assert tables.spt_hops(0, 4) == 4 and tables.spt_hops(8, 11) == 3
        for landmark, node in ((0, 9), (8, 2)):
            with pytest.raises(ValueError, match="not reachable from root") as hops:
                tables.spt_hops(landmark, node)
            with pytest.raises(ValueError) as path:
                tables.spt_path(landmark, node)
            assert str(hops.value) == str(path.value)

    def test_a_parent_cycle_stops_the_walk(self):
        """A slab no search writes (one flipped entry of an attached file
        would do it): the walk is bounded by ``n`` steps, it does not spin."""
        tables = _two_component_tables()
        assert tables.spt_parent[3] == 2
        tables.spt_parent[2] = 3
        with pytest.raises(ValueError, match="node 4 not reachable from root 0"):
            tables.spt_hops(0, 4)


class TestSerialization:
    def test_save_slabs_writes_raw_buffers(self, tmp_path):
        scheme = NDDiscoRouting(
            gnm_random_graph(60, seed=5, average_degree=5.0), seed=1
        )
        root = scheme.tables.save_slabs(tmp_path / "slabs")
        with open(os.path.join(root, "manifest.json"), encoding="utf-8") as f:
            slots = {name: (code, count) for name, code, count in json.load(f)["slots"]}
        assert slots["spt_dist"] == ("d", len(scheme.tables.spt_dist))
        with open(os.path.join(root, "spt_dist.bin"), "rb") as handle:
            assert handle.read() == bytes(memoryview(scheme.tables.spt_dist))


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

    @pytest.mark.parametrize("node", [-1, 2])
    def test_a_node_outside_the_table_raises(self, node):
        """A flat slab would serve another row (offsets[-1] is the end of
        the slab, offsets[n] past it): ``row`` and ``path_from_owner``
        refuse ``node`` outside ``0..n-1`` instead."""
        table = NodeSearchTables.from_searches(
            [({0: 0.0, 1: 1.0}, {1: 0}), ({1: 0.0, 0: 1.0}, {0: 1})]
        )
        members, _, _ = table.row(1)
        assert members.tolist() == [1, 0]
        with pytest.raises(IndexError, match="out of range"):
            table.row(node)
        for member in (0, 1, node):
            with pytest.raises(IndexError, match="out of range"):
                table.path_from_owner(node, member)


class TestAddressPath:
    """An address is a row of the SPT slabs: ``address_of`` walks the
    closest landmark's parent row down to the node."""

    @pytest.fixture(scope="class")
    def scheme(self):
        topology = gnm_random_graph(64, seed=4, average_degree=6.0)
        tables = build_substrate_tables(topology, [0, 9, 33])
        names = [name_for_node(v) for v in range(64)]
        return NDDiscoRouting.from_tables(topology, tables, names)

    def test_rows_run_from_the_closest_landmark(self, scheme):
        tables = scheme.tables
        for node in range(64):
            path = list(scheme.address_of(node).route.path)
            assert path[0] == tables.closest[node] and path[-1] == node
            assert path == tables.spt_path(tables.closest[node], node)

    @pytest.mark.parametrize("node", [-1, 64, 10_000])
    def test_a_node_outside_the_table_raises(self, scheme, node):
        """``closest[-1]`` would serve another node's landmark and
        ``closest[n]`` a bare array error."""
        with pytest.raises(ValueError, match=rf"{node} out of range \(n=64\)"):
            scheme.address_of(node)


def _two_component_tables(k: int = 6) -> SubstrateTables:
    """A 7-node ring and a 5-node path, built as the churn engine builds:
    rows of the path component shorter than ``k``."""
    topology = Topology.from_edges(
        12,
        [(u, (u + 1) % 7, 1.0 + 0.25 * u) for u in range(7)]
        + [(u, u + 1, 1.0) for u in range(7, 11)],
    )
    return build_substrate_tables(topology, [0, 8], size=k)


def _rows(table: NodeSearchTables) -> list:
    return [
        [bytes(view) for view in table.row(node)]
        for node in range(table.num_nodes)
    ]


class TestStridedRows:
    """The fixed-stride, length-column form of :class:`NodeSearchTables`
    (the churn engine's in-place layout) beside the packed one."""

    def test_unreachable_entries_are_inf_and_minus_one(self):
        tables = _two_component_tables()
        n = tables.num_nodes
        assert tables.spt_dist[7] == inf and tables.spt_parent[7] == -1
        assert tables.spt_dist[n + 0] == inf and tables.spt_dist[n + 8] == 0.0
        assert list(tables.closest) == [0] * 7 + [8] * 5
        pair = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="reaches no landmark"):
            address_bits(pair, build_substrate_tables(pair, [0]))

    def test_full_rows_share_their_slabs(self):
        packed = NDDiscoRouting(
            gnm_random_graph(60, seed=5, average_degree=5.0), seed=1
        ).tables.vicinity
        stride = packed.offsets[1]
        strided = packed.strided(stride)
        assert strided.members is packed.members
        assert strided.dists is packed.dists
        assert strided.parents is packed.parents
        assert list(strided.lengths) == [stride] * 60
        assert list(strided.offsets) == list(packed.offsets)
        assert _rows(strided) == _rows(packed)
        assert packed.lengths is None

    def test_short_rows_are_spread_to_the_stride(self):
        packed = _two_component_tables().vicinity
        assert len(packed.members) == 7 * 6 + 5 * 5
        strided = packed.strided(6)
        assert len(strided.members) == len(strided.dists) == 12 * 6
        assert list(strided.lengths) == [6] * 7 + [5] * 5
        assert list(strided.offsets) == list(range(0, 78, 6))
        assert _rows(strided) == _rows(packed)
        for node in range(12):
            far = strided.row(node)[0][-1]
            assert strided.path_from_owner(node, far) == packed.path_from_owner(
                node, far
            )
        with pytest.raises(ValueError, match="longer than the stride"):
            packed.strided(5)

    def test_read_only_views_follow_the_writable_slabs(self):
        tables = _two_component_tables()
        tables.vicinity = tables.vicinity.strided(6)
        live = tables.read_only()
        members, dists, _ = live.vicinity.row(8)
        assert (members[1], dists[1]) == (7, 1.0)
        tables.vicinity.dists[8 * 6 + 1] = 9.0  # the owner of the slabs writes
        tables.spt_dist[3] = 5.5
        assert dists[1] == live.vicinity.row(8)[1][1] == 9.0
        assert live.spt_distance(0, 3) == 5.5
        for _, _, slab in live.slab_items():
            with pytest.raises(TypeError):
                slab[0] = 0

    def test_forget_rows_drops_the_cached_index(self):
        tables = _two_component_tables()
        vicinity = tables.vicinity = tables.vicinity.strided(6)
        assert vicinity.path_from_owner(7, 11) == [7, 8, 9, 10, 11]
        # Node 7's row rewritten in place, shorter: 7 and, now first, 9.
        vicinity.members[7 * 6 + 1] = 9
        vicinity.lengths[7] = 2
        assert vicinity.row(7)[0].tolist() == [7, 9]
        # The index of the old row still walks 9 through 8.
        assert vicinity.path_from_owner(7, 9) == [7, 8, 9]
        tables.forget_rows([7])
        assert vicinity.path_from_owner(7, 9) == [7, 9]
        with pytest.raises(KeyError):
            vicinity.path_from_owner(7, 11)

    def test_lengths_survive_the_slab_directory(self, tmp_path):
        tables = _two_component_tables()
        tables.vicinity = tables.vicinity.strided(6)
        expected = _rows(tables.vicinity)
        tables.read_only().save_slabs(tmp_path / "slabs")
        attached = SubstrateTables.from_mmap(tmp_path / "slabs")
        assert list(attached.vicinity.lengths) == [6] * 7 + [5] * 5
        assert _rows(attached.vicinity) == expected
        assert [name for name, _, _ in attached.slab_items()][-1] == (
            "vicinity.lengths"
        )

    def test_packed_tables_serialize_as_before(self, tmp_path):
        """No ``lengths`` key, slot or file where there is no column."""
        tables = NDDiscoRouting(
            gnm_random_graph(60, seed=5, average_degree=5.0), seed=1
        ).tables
        assert [name for name, _, _ in tables.slab_items()][-4:] == [
            "vicinity.offsets", "vicinity.members", "vicinity.dists",
            "vicinity.parents",
        ]
        tables.save_slabs(tmp_path / "slabs")
        assert not (tmp_path / "slabs" / "vicinity.lengths.bin").exists()
        assert SubstrateTables.from_mmap(tmp_path / "slabs").vicinity.lengths is None
