"""The row drivers on small graphs, against networkx and the dict oracle.

Every search result in the package is a row: ``spt_rows`` (dense
distance / parent rows), ``k_nearest_batch_flat`` and ``radius_batch_flat``
(settle-order member rows) and ``batched_target_distances``.  Each test runs
on both tiers.  The last class holds the two dict-shaped names the bench
workloads still import (``repro.graphs.shortest_paths``) to the oracle.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles.reference_paths import to_networkx
from oracles import reference_paths as reference
from repro.graphs._ckernels import load_kernels
from repro.graphs.csr import tree_path
from repro.graphs.generators import geometric_random_graph, gnm_random_graph
from repro.graphs.shortest_paths import all_pairs_sampled_distances, dijkstra
from repro.graphs.topology import Topology

TIERS = [False] + ([True] if load_kernels() is not None else [])
TIER_IDS = ["python", "c"][: len(TIERS)]


@pytest.fixture(params=TIERS, ids=TIER_IDS)
def use_c(request):
    return request.param


@pytest.fixture()
def weighted_graph() -> Topology:
    """A small weighted graph with a known structure.

        0 -1- 1 -1- 2
        |         /
        4       1
        |     /
        3 --/
    """
    return Topology.from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 4.0), (2, 3, 1.0)]
    )


def _members(flat) -> list[int]:
    """The member ids of a one-source ``*_batch_flat`` result."""
    return list(flat[1])


class TestDijkstra:
    def test_distances(self, weighted_graph, use_c):
        dist, _ = weighted_graph.fresh_csr(use_c=use_c).spt_rows(0)
        assert dist == [0.0, 1.0, 2.0, 3.0]

    def test_predecessors_form_paths(self, weighted_graph, use_c):
        _, parent = weighted_graph.fresh_csr(use_c=use_c).spt_rows(0)
        assert tree_path(parent, 0, 3) == [0, 1, 2, 3]

    def test_targets_early_stop_still_correct(
        self, weighted_graph, use_c
    ):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        assert csr.batched_target_distances([(0, 1)]) == {(0, 1): 1.0}

    def test_source_only_in_singleton(self, use_c):
        csr = Topology.from_edges(1, []).fresh_csr(use_c=use_c)
        assert csr.spt_rows(0) == ([0.0], [-1])

    def test_unreachable_nodes_absent(self, use_c):
        csr = Topology.from_edges(4, [(0, 1)]).fresh_csr(use_c=use_c)
        assert csr.spt_rows(0, fill=math.inf) == (
            [0.0, 1.0, math.inf, math.inf],
            [-1, 0, -1, -1],
        )

    def test_matches_networkx_on_random_graph(self, use_c):
        topology = gnm_random_graph(60, seed=9, average_degree=5.0)
        csr = topology.fresh_csr(use_c=use_c)
        graph = to_networkx(topology)
        for source in (0, 7, 31):
            dist, _ = csr.spt_rows(source)
            expected = nx.single_source_dijkstra_path_length(graph, source)
            assert dict(enumerate(dist)) == pytest.approx(expected)

    def test_matches_networkx_on_weighted_graph(self, use_c):
        topology = geometric_random_graph(80, seed=10, average_degree=7.0)
        graph = to_networkx(topology)
        dist, _ = topology.fresh_csr(use_c=use_c).spt_rows(5, fill=math.inf)
        expected = nx.single_source_dijkstra_path_length(graph, 5)
        assert {v for v, d in enumerate(dist) if d < math.inf} == set(expected)
        for node, value in expected.items():
            assert dist[node] == pytest.approx(value)


class TestDijkstraKNearest:
    def test_returns_exactly_k(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        assert _members(csr.k_nearest_batch_flat(2, [0])) == [0, 1]

    def test_k_larger_than_component(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        assert _members(csr.k_nearest_batch_flat(100, [0])) == [0, 1, 2, 3]

    def test_members_are_the_closest(self, use_c):
        topology = gnm_random_graph(50, seed=4, average_degree=5.0)
        csr = topology.fresh_csr(use_c=use_c)
        near, _ = reference.k_nearest_search(csr, 0, 10)
        full, _ = csr.spt_rows(0)
        cutoff = max(near.values())
        # Every node strictly closer than the cutoff must be included.
        for node, distance in enumerate(full):
            if distance < cutoff:
                assert node in near

    def test_invalid_k(self, weighted_graph, use_c):
        with pytest.raises(ValueError):
            weighted_graph.fresh_csr(use_c=use_c).k_nearest_batch_flat(0, [0])

    def test_paths_extractable(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        distances, predecessors = reference.k_nearest_search(csr, 0, 3)
        for node in distances:
            path = reference.extract_path(predecessors, 0, node)
            assert path[0] == 0
            assert path[-1] == node


class TestDijkstraRadius:
    def test_strict_boundary(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        # Node 2 is at exactly 2.0 -> excluded.
        assert _members(csr.radius_batch_flat([2.0], [0])) == [0, 1]

    def test_inclusive_boundary(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        flat = csr.radius_batch_flat([2.0], [0], inclusive=True)
        assert _members(flat) == [0, 1, 2]

    def test_zero_radius_returns_source(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        assert _members(csr.radius_batch_flat([0.0], [0])) == [0]

    def test_negative_radius_rejected(self, weighted_graph, use_c):
        with pytest.raises(ValueError):
            weighted_graph.fresh_csr(use_c=use_c).radius_batch_flat([-1.0], [0])

    def test_radius_covers_whole_graph(self, weighted_graph, use_c):
        csr = weighted_graph.fresh_csr(use_c=use_c)
        assert len(_members(csr.radius_batch_flat([100.0], [0]))) == 4


class TestAllPairsSampled:
    def test_matches_individual_queries(self, weighted_graph, use_c):
        pairs = [(0, 3), (3, 0), (1, 2)]
        csr = weighted_graph.fresh_csr(use_c=use_c)
        assert csr.batched_target_distances(pairs) == {
            (0, 3): 3.0, (3, 0): 3.0, (1, 2): 1.0,
        }

    def test_unreachable_pair_raises(self, use_c):
        csr = Topology.from_edges(4, [(0, 1)]).fresh_csr(use_c=use_c)
        with pytest.raises(ValueError):
            csr.batched_target_distances([(0, 3)])

    def test_groups_by_source(self, use_c):
        topology = gnm_random_graph(40, seed=8, average_degree=5.0)
        pairs = [(0, 5), (0, 7), (3, 9)]
        result = topology.fresh_csr(use_c=use_c).batched_target_distances(pairs)
        assert set(result) == set(pairs)


class TestBenchShim:
    """``repro.graphs.shortest_paths``: the names the bench imports."""

    def test_dijkstra_equals_the_oracle_on_every_reachable_node(self):
        for topology in (
            geometric_random_graph(60, seed=3, average_degree=5.0),
            Topology.from_edges(6, [(0, 1, 0.5), (1, 2, 2.0), (3, 4, 1.0)]),
        ):
            for source in range(0, topology.num_nodes, 5):
                assert dijkstra(topology, source) == reference.dijkstra(
                    topology, source
                )

    def test_all_pairs_sampled_distances_is_the_batch(self, weighted_graph):
        pairs = [(0, 3), (3, 0), (1, 2)]
        assert all_pairs_sampled_distances(
            weighted_graph, pairs
        ) == weighted_graph.csr().batched_target_distances(pairs)


class TestPropertyBased:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dijkstra_matches_networkx_random_seeds(self, seed):
        topology = gnm_random_graph(30, seed=seed, average_degree=4.0)
        expected = nx.single_source_dijkstra_path_length(to_networkx(topology), 0)
        for use_c in TIERS:
            dist, _ = topology.fresh_csr(use_c=use_c).spt_rows(0)
            assert dict(enumerate(dist)) == pytest.approx(expected)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=20),
    )
    def test_k_nearest_is_prefix_of_full_ordering(self, seed, k):
        topology = gnm_random_graph(25, seed=seed, average_degree=4.0)
        for use_c in TIERS:
            csr = topology.fresh_csr(use_c=use_c)
            near, _ = reference.k_nearest_search(csr, 0, k)
            ordered = sorted(csr.spt_rows(0)[0])
            expected_count = min(k, topology.num_nodes)
            assert len(near) == expected_count
            assert max(near.values()) <= ordered[expected_count - 1] + 1e-9
