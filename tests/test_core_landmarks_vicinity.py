"""Tests for repro.core.landmarks and repro.core.vicinity."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.landmarks import landmark_probability, select_landmarks
from oracles.reference_paths import dijkstra, dijkstra_k_nearest
from repro.core.vicinity import compute_vicinities, vicinity_size
from small_graphs import line_graph


class TestLandmarkProbability:
    def test_formula(self):
        n = 1000
        assert landmark_probability(n) == pytest.approx(math.sqrt(math.log(n) / n))

    def test_tiny_networks_clamped(self):
        assert landmark_probability(1) == 1.0
        assert landmark_probability(2) <= 1.0

    def test_decreases_with_n(self):
        assert landmark_probability(100) > landmark_probability(10_000)

    def test_invalid(self):
        with pytest.raises(ValueError):
            landmark_probability(0)


class TestSelectLandmarks:
    def test_never_empty(self):
        for n in (1, 2, 5, 50):
            assert len(select_landmarks(n, seed=0)) >= 1

    def test_deterministic(self):
        assert select_landmarks(200, seed=3) == select_landmarks(200, seed=3)

    def test_seed_changes_selection(self):
        assert select_landmarks(500, seed=1) != select_landmarks(500, seed=2)

    def test_expected_count_order(self):
        n = 2000
        landmarks = select_landmarks(n, seed=4)
        expected = n * landmark_probability(n)
        assert 0.4 * expected <= len(landmarks) <= 2.5 * expected

    def test_probability_override(self):
        assert len(select_landmarks(100, seed=0, probability=1.0)) == 100

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            select_landmarks(10, probability=1.5)

    def test_draws_depend_only_on_seed_and_node_id(self):
        """With the probability pinned, adding nodes never changes earlier
        nodes' decisions -- each node's draw depends only on (seed, node id)."""
        probability = 0.2
        full = select_landmarks(300, seed=9, probability=probability)
        partial = select_landmarks(150, seed=9, probability=probability)
        assert {v for v in full if v < 150} == partial

    @settings(deadline=None, max_examples=20)
    @given(
        n=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_always_valid_ids(self, n, seed):
        landmarks = select_landmarks(n, seed=seed)
        assert landmarks
        assert all(0 <= v < n for v in landmarks)


class TestVicinitySize:
    def test_formula(self):
        n = 1024
        assert vicinity_size(n) == math.ceil(math.sqrt(n * math.log(n)))

    def test_clamped_to_n(self):
        assert vicinity_size(4) <= 4
        assert vicinity_size(1) == 1

    def test_scale_factor(self):
        assert vicinity_size(1024, scale=2.0) == 2 * vicinity_size(1024) or (
            vicinity_size(1024, scale=2.0) >= vicinity_size(1024)
        )

    def test_monotone_in_n(self):
        assert vicinity_size(100) < vicinity_size(10_000)

    def test_invalid(self):
        with pytest.raises(ValueError):
            vicinity_size(0)
        with pytest.raises(ValueError):
            vicinity_size(10, scale=0)


def _row(vicinities, node: int) -> tuple[list[int], list[float]]:
    members, dists, _ = vicinities.row(node)
    return members.tolist(), dists.tolist()


class TestComputeVicinities:
    def test_sizes(self, small_gnm):
        vicinities = compute_vicinities(small_gnm)
        expected = vicinity_size(small_gnm.num_nodes)
        assert vicinities.num_nodes == small_gnm.num_nodes
        for node in range(small_gnm.num_nodes):
            assert len(_row(vicinities, node)[0]) == expected

    def test_owner_included_at_zero(self, small_gnm):
        vicinities = compute_vicinities(small_gnm)
        for node in range(small_gnm.num_nodes):
            members, dists = _row(vicinities, node)
            assert (members[0], dists[0]) == (node, 0.0)

    def test_members_are_truly_closest(self, small_gnm):
        vicinities = compute_vicinities(small_gnm, size=10)
        for node in (0, 5, 17):
            members, dists = _row(vicinities, node)
            full, _ = dijkstra(small_gnm, node)
            radius = max(dists)
            strictly_closer = {v for v, d in full.items() if d < radius}
            assert strictly_closer <= set(members)

    def test_rows_are_the_reference_searches(self, small_gnm):
        vicinities = compute_vicinities(small_gnm, size=8)
        for node in range(small_gnm.num_nodes):
            distances, predecessors = dijkstra_k_nearest(small_gnm, node, 8)
            members, dists, parents = vicinities.row(node)
            assert members.tolist() == list(distances)
            assert dists.tolist() == list(distances.values())
            assert parents.tolist()[1:] == list(predecessors.values())

    def test_paths_are_shortest(self, small_gnm):
        vicinities = compute_vicinities(small_gnm, size=12)
        full, _ = dijkstra(small_gnm, 3)
        for member in _row(vicinities, 3)[0]:
            path = vicinities.path_from_owner(3, member)
            assert path[0] == 3
            assert path[-1] == member
            length = sum(
                small_gnm.edge_weight(a, b) for a, b in zip(path, path[1:])
            )
            assert length == pytest.approx(full[member])

    def test_path_to_non_member_raises(self, small_gnm):
        vicinities = compute_vicinities(small_gnm, size=5)
        members = set(_row(vicinities, 0)[0])
        outsider = next(v for v in range(small_gnm.num_nodes) if v not in members)
        with pytest.raises(KeyError):
            vicinities.path_from_owner(0, outsider)

    def test_explicit_size_override(self, small_gnm):
        vicinities = compute_vicinities(small_gnm, size=3)
        assert len(vicinities.members) == 3 * small_gnm.num_nodes

    def test_line_graph_vicinity_is_interval(self):
        line = line_graph(20)
        vicinities = compute_vicinities(line, size=5)
        # On a path graph the k nearest nodes form a contiguous interval.
        members = sorted(_row(vicinities, 10)[0])
        assert members == list(range(members[0], members[0] + 5))
        assert 10 in members
