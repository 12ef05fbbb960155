"""One state definition per scheme, held to the per-node accounting it replaced.

Every scheme answers ``state_profile(nodes) -> (entries, per, fixed)``;
``state_entries`` / ``state_bytes`` on the base class and ``measure_state``
only read it.  The ND-Disco, Disco and S4 profiles must equal, node for node
and to the bit, the per-node ``state_entries`` / ``state_bytes`` they
replaced (:mod:`oracles.state_accounting`), at every name size.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from oracles import state_accounting as oracle
from oracles.resolution_db import scheme_records
from repro.addressing.address import NAME_BYTES_IPV4, NAME_BYTES_IPV6
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.generators import geometric_random_graph, two_level_tree
from repro.metrics.state import measure_state
from repro.naming.names import name_for_node
from repro.protocols.s4 import S4Routing
from repro.staticsim.simulation import StaticSimulation
from test_metrics_batch import _topologies

NAME_SIZES = (1, 4, 16, 20)
THREE_SCHEMES = ("disco", "nd-disco", "s4")
FIVE_SCHEMES = (*THREE_SCHEMES, "vrr", "shortest-path")

def _leaf_landmark() -> SimpleNamespace:
    """The footnote-6 tree with a degree-1 leaf (7) among injected
    landmarks: the three schemes over one ND-Disco built on them, shaped
    as a simulation (``topology``, ``schemes``, ``scheme``)."""
    tree = two_level_tree(5)
    assert tree.degree(7) == 1
    nddisco = NDDiscoRouting(tree, seed=1, landmarks={0, 3, 7})
    schemes = {
        "disco": DiscoRouting(tree, seed=1, nddisco=nddisco),
        "nd-disco": nddisco,
        "s4": S4Routing.from_tables(tree, nddisco.tables, nddisco.names),
    }
    return SimpleNamespace(
        topology=tree, schemes=schemes, scheme=schemes.__getitem__
    )


_CASES = {
    "gnm": lambda: StaticSimulation(_topologies()[0], THREE_SCHEMES, seed=1),
    "geometric": lambda: StaticSimulation(_topologies()[1], THREE_SCHEMES, seed=1),
    "router-level": lambda: StaticSimulation(
        _topologies()[2], THREE_SCHEMES, seed=1
    ),
    "weighted-geometric": lambda: StaticSimulation(
        geometric_random_graph(96, seed=21, average_degree=5.0),
        THREE_SCHEMES,
        seed=2,
    ),
    "leaf-landmark": _leaf_landmark,
}


@pytest.fixture(scope="module", params=list(_CASES))
def simulation(request):
    return _CASES[request.param]()


class TestAgainstOracle:
    def test_every_node_every_name_size(self, simulation):
        for name, scheme in simulation.schemes.items():
            nodes = list(scheme.topology.nodes())
            entries = [oracle.state_entries(scheme, node) for node in nodes]
            assert [scheme.state_entries(node) for node in nodes] == entries, name
            for name_bytes in NAME_SIZES:
                expected = [
                    oracle.state_bytes(scheme, node, name_bytes) for node in nodes
                ]
                got = [
                    scheme.state_bytes(node, name_bytes=name_bytes)
                    for node in nodes
                ]
                assert got == expected, (name, name_bytes)
                assert all(type(value) is float for value in got)
            report = measure_state(scheme)
            assert report.entries == tuple(entries), name
            assert report.bytes_ipv4 == tuple(
                oracle.state_bytes(scheme, node, NAME_BYTES_IPV4) for node in nodes
            ), name
            assert report.bytes_ipv6 == tuple(
                oracle.state_bytes(scheme, node, NAME_BYTES_IPV6) for node in nodes
            ), name

    def test_profile_of_a_sample_is_the_profile_of_its_nodes(self, simulation):
        for name, scheme in simulation.schemes.items():
            n = scheme.topology.num_nodes
            sample = [n - 1, 0, n // 2, 0]
            entries, per, fixed = scheme.state_profile(sample)
            assert entries == [scheme.state_entries(node) for node in sample]
            assert [p * 20 + f for p, f in zip(per, fixed)] == [
                scheme.state_bytes(node, name_bytes=20) for node in sample
            ], name


def _assert_counts_match_records(scheme) -> None:
    """The counting database holds what the oracle's records hold, at
    every node (a non-landmark holds none)."""
    database = scheme.resolution_database
    records = scheme_records(scheme)
    nodes = list(scheme.topology.nodes())
    assert [database.entries_at(v) for v in nodes] == [
        records.entries_at(v) for v in nodes
    ]
    assert [database.route_bytes_at(v) for v in nodes] == [
        records.route_bytes_at(v) for v in nodes
    ]
    assert sum(map(database.entries_at, nodes)) == len(nodes)


class TestResolutionCountsAgainstRecords:
    @pytest.mark.parametrize("custom_names", [False, True])
    @pytest.mark.parametrize("virtual_nodes", [1, 4])
    def test_nddisco_and_s4(self, simulation, virtual_nodes, custom_names):
        topology = simulation.topology
        landmarks = simulation.scheme("nd-disco").landmarks
        names = (
            [name_for_node(v + 1000) for v in topology.nodes()]
            if custom_names
            else None
        )
        nd = NDDiscoRouting(
            topology,
            landmarks=landmarks,
            names=names,
            resolution_virtual_nodes=virtual_nodes,
        )
        _assert_counts_match_records(nd)
        shared = S4Routing.from_tables(topology, nd.tables, nd.names)
        own = S4Routing(topology, landmarks=landmarks, names=names)
        for s4 in (shared, own):
            _assert_counts_match_records(s4)
            assert s4._names == nd.names


@pytest.fixture(scope="module")
def five(small_gnm):
    return StaticSimulation(small_gnm, FIVE_SCHEMES, seed=1)


@pytest.mark.parametrize("name", FIVE_SCHEMES)
class TestNodeAndNameChecks:
    @pytest.mark.parametrize("node", [-1, 64, 10_000])
    def test_out_of_range_node_raises(self, five, name, node):
        scheme = five.scheme(name)
        message = rf"source {node} out of range \(n=64\)"
        with pytest.raises(ValueError, match=message):
            scheme.state_bytes(node)
        with pytest.raises(ValueError, match=message):
            scheme.state_bytes(node, name_bytes=NAME_BYTES_IPV6)
        with pytest.raises(ValueError, match=message):
            scheme.state_entries(node)
        with pytest.raises(ValueError, match=message):
            scheme.state_profile([0, node, 5])
        with pytest.raises(ValueError, match=message):
            measure_state(scheme, nodes=[node])

    @pytest.mark.parametrize("name_bytes", [0, -4])
    def test_non_positive_name_size_raises_at_every_node(
        self, five, name, name_bytes
    ):
        scheme = five.scheme(name)
        for node in scheme.topology.nodes():
            with pytest.raises(ValueError, match="name_bytes must be > 0"):
                scheme.state_bytes(node, name_bytes=name_bytes)
