"""Tests for repro.core.landmark_policies (§6 operator-chosen landmarks)."""

from __future__ import annotations

import pytest

from oracles.reference_paths import dijkstra
from repro.core.landmark_policies import (
    degree_based_landmarks,
    random_landmarks,
    spread_landmarks,
    target_landmark_count,
)
from repro.core.landmarks import landmark_probability
from repro.core.nddisco import NDDiscoRouting
from repro.metrics.stretch import measure_stretch


class TestTargetCount:
    def test_matches_random_expectation(self):
        n = 1000
        assert target_landmark_count(n) == round(n * landmark_probability(n))

    def test_at_least_one(self):
        assert target_landmark_count(1) >= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            target_landmark_count(0)


class TestPolicies:
    def test_random_policy_wraps_default(self, small_gnm):
        assert random_landmarks(small_gnm, seed=3) == random_landmarks(
            small_gnm, seed=3
        )

    def test_degree_based_picks_highest_degree(self, small_internet):
        landmarks = degree_based_landmarks(small_internet, count=5)
        assert len(landmarks) == 5
        cutoff = min(small_internet.degree(v) for v in landmarks)
        non_landmarks = [v for v in small_internet.nodes() if v not in landmarks]
        assert all(small_internet.degree(v) <= cutoff for v in non_landmarks)

    def test_degree_based_default_budget(self, small_gnm):
        landmarks = degree_based_landmarks(small_gnm)
        assert len(landmarks) == target_landmark_count(small_gnm.num_nodes)

    def test_degree_based_count_capped(self, tiny_star):
        assert len(degree_based_landmarks(tiny_star, count=100)) == tiny_star.num_nodes

    def test_spread_landmarks_budget(self, small_gnm):
        landmarks = spread_landmarks(small_gnm, count=8, seed=1)
        assert len(landmarks) == 8

    def test_spread_minimises_worst_distance_vs_random(self, small_geometric):
        """Farthest-point placement covers the graph at least as well as a
        random set of the same size (by worst node-to-landmark distance)."""
        count = 8
        spread = spread_landmarks(small_geometric, count=count, seed=2)
        random_set = sorted(random_landmarks(small_geometric, seed=2))[:count]

        def worst_distance(landmarks):
            best = {v: float("inf") for v in small_geometric.nodes()}
            for landmark in landmarks:
                distances, _ = dijkstra(small_geometric, landmark)
                for node, value in distances.items():
                    best[node] = min(best[node], value)
            return max(best.values())

        assert worst_distance(spread) <= worst_distance(set(random_set)) + 1e-9

    def test_spread_deterministic(self, small_gnm):
        assert spread_landmarks(small_gnm, count=6, seed=5) == spread_landmarks(
            small_gnm, count=6, seed=5
        )

    def test_invalid_counts(self, small_gnm):
        with pytest.raises(ValueError):
            degree_based_landmarks(small_gnm, count=0)
        with pytest.raises(ValueError):
            spread_landmarks(small_gnm, count=0)


class TestPoliciesPreserveGuarantees:
    @pytest.mark.parametrize("policy", ["degree", "spread"])
    def test_later_packet_bound_holds(self, medium_gnm, policy):
        """§6: the guarantees only need Õ(√n) landmarks with vicinity coverage,
        so operator-chosen landmark sets keep the stretch bound."""
        budget = target_landmark_count(medium_gnm.num_nodes)
        if policy == "degree":
            landmarks = degree_based_landmarks(medium_gnm, count=budget)
        else:
            landmarks = spread_landmarks(medium_gnm, count=budget, seed=4)
        nddisco = NDDiscoRouting(medium_gnm, seed=4, landmarks=landmarks)
        report = measure_stretch(nddisco, pair_sample=150, seed=5)
        assert report.later_summary.maximum <= 3.0 + 1e-9
