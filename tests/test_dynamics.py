"""Tests for repro.dynamics (churn workloads and maintenance cost)."""

from __future__ import annotations

import pytest

from oracles.replay import maintenance_cost
from repro.core.nddisco import NDDiscoRouting
from repro.dynamics.churn import (
    ChurnEvent,
    apply_event,
    generate_churn_workload,
)
from repro.graphs.generators import gnm_random_graph, line_graph, ring_graph
from repro.graphs.topology import Topology


class TestChurnEvents:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(kind="node-down", edge=(0, 1), weight=1.0)

    def test_edge_down_removes_edge(self, small_gnm):
        edge = next((u, v) for u, v, _ in small_gnm.edges())
        event = ChurnEvent(kind="edge-down", edge=edge, weight=1.0)
        mutated = apply_event(small_gnm, event)
        assert not mutated.has_edge(*edge)
        assert mutated.num_edges == small_gnm.num_edges - 1
        # The original topology is untouched.
        assert small_gnm.has_edge(*edge)

    def test_edge_down_missing_edge_rejected(self, small_gnm):
        missing = next(
            (0, v)
            for v in range(1, small_gnm.num_nodes)
            if not small_gnm.has_edge(0, v)
        )
        with pytest.raises(ValueError):
            apply_event(
                small_gnm, ChurnEvent(kind="edge-down", edge=missing, weight=1.0)
            )

    def test_edge_down_refuses_to_disconnect(self):
        line = line_graph(5)
        with pytest.raises(ValueError, match="disconnect"):
            apply_event(line, ChurnEvent(kind="edge-down", edge=(2, 3), weight=1.0))

    def test_edge_up_adds_edge(self, small_gnm):
        missing = next(
            (0, v)
            for v in range(1, small_gnm.num_nodes)
            if not small_gnm.has_edge(0, v)
        )
        event = ChurnEvent(kind="edge-up", edge=missing, weight=2.5)
        mutated = apply_event(small_gnm, event)
        assert mutated.edge_weight(*missing) == 2.5

    def test_edge_up_duplicate_rejected(self, small_gnm):
        edge = next((u, v) for u, v, _ in small_gnm.edges())
        with pytest.raises(ValueError):
            apply_event(small_gnm, ChurnEvent(kind="edge-up", edge=edge, weight=1.0))


class TestWorkloadGeneration:
    def test_workload_length_and_determinism(self, small_gnm):
        a = generate_churn_workload(small_gnm, num_events=8, seed=3)
        b = generate_churn_workload(small_gnm, num_events=8, seed=3)
        assert len(a) == 8
        assert a == b

    def test_workload_preserves_connectivity(self, small_gnm):
        workload = generate_churn_workload(small_gnm, num_events=10, seed=4)
        current = small_gnm.copy()
        for event in workload:
            current = apply_event(current, event)
            assert current.is_connected()

    def test_recovering_workload_restores_topology(self, small_gnm):
        workload = generate_churn_workload(small_gnm, num_events=10, seed=5)
        final = workload.apply(small_gnm)
        assert final == small_gnm  # alternating down/up events cancel out

    def test_non_recovering_workload_sheds_edges(self, small_gnm):
        workload = generate_churn_workload(
            small_gnm, num_events=5, seed=6, recover=False
        )
        final = workload.apply(small_gnm)
        assert final.num_edges == small_gnm.num_edges - 5
        assert final.is_connected()

    def test_tree_like_topology_rejected(self):
        line = line_graph(10)  # every edge is a bridge
        with pytest.raises(ValueError):
            generate_churn_workload(line, num_events=2, seed=1)

    def test_disconnected_base_rejected(self):
        disconnected = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            generate_churn_workload(disconnected, num_events=1)


class TestMaintenanceCost:
    @pytest.fixture(scope="class")
    def before_after(self):
        topology = gnm_random_graph(90, seed=8, average_degree=6.0)
        before = NDDiscoRouting(topology, seed=8)
        workload = generate_churn_workload(
            topology, num_events=1, seed=9, recover=False
        )
        after_topology = workload.apply(topology)
        after = NDDiscoRouting(after_topology, seed=8, landmarks=before.landmarks)
        return before, after

    def test_identical_states_cost_nothing(self, small_gnm, nddisco_small):
        cost = maintenance_cost(nddisco_small, nddisco_small)
        assert cost.addresses_changed == 0
        assert cost.total_incremental_entries == 0
        assert not cost.landmark_set_changed

    def test_single_link_failure_cost_is_local(self, before_after):
        before, after = before_after
        cost = maintenance_cost(before, after)
        n = before.topology.num_nodes
        # Only a small part of the network is affected by one link failure.
        assert cost.addresses_changed <= n // 3
        assert cost.vicinity_entries_changed <= n * 20
        assert cost.resolution_updates == cost.addresses_changed
        assert not cost.landmark_set_changed

    def test_dissemination_scales_with_changed_addresses(self, before_after):
        before, after = before_after
        cost = maintenance_cost(before, after)
        if cost.addresses_changed:
            assert cost.dissemination_messages >= cost.addresses_changed
        else:
            assert cost.dissemination_messages == 0

    def test_landmark_churn_detected(self):
        ring = ring_graph(32)
        before = NDDiscoRouting(ring, seed=1, landmarks={0, 8, 16, 24})
        after = NDDiscoRouting(ring, seed=1, landmarks={0, 8, 16})
        cost = maintenance_cost(before, after)
        assert cost.landmark_set_changed
        assert cost.landmark_entries_changed >= 32  # withdrawn landmark routes

    def test_mismatched_sizes_rejected(self, nddisco_small):
        other_topology = gnm_random_graph(32, seed=1, average_degree=4.0)
        other = NDDiscoRouting(other_topology, seed=1)
        with pytest.raises(ValueError):
            maintenance_cost(nddisco_small, other)


class TestChurnExperiment:
    def test_experiment_runs(self):
        from repro.experiments import churn_cost
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(comparison_nodes=80, pair_sample=40, seed=13, label="t")
        result = churn_cost.run(tiny, num_events=4)
        report = churn_cost.format_report(result)
        assert result.events == 4
        assert 0.0 <= result.incremental_fraction < 1.0
        assert "maintenance cost" in report.lower()


class TestAblationExperiment:
    def test_experiment_runs(self):
        from repro.experiments import ablations
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            comparison_nodes=80,
            router_level_nodes=90,
            pair_sample=40,
            seed=13,
            label="t",
        )
        result = ablations.run(tiny)
        report = ablations.format_report(result)
        assert len(result.vicinity) == 3
        assert len(result.landmark_policies) == 3
        assert result.address_design.block_mean_bytes > 0
        assert result.resolution_balance[-1].max_over_mean_load >= 1.0
        assert "ablations" in report.lower()
