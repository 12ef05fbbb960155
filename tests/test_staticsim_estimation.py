"""Tests for repro.staticsim and repro.estimation."""

from __future__ import annotations

import pytest

from repro.estimation.error_injection import inject_estimate_error
from repro.staticsim.simulation import StaticSimulation


class TestStaticSimulation:
    @pytest.fixture(scope="class")
    def simulation(self, small_gnm):
        return StaticSimulation(
            small_gnm, ("disco", "nd-disco", "s4", "vrr", "path-vector"), seed=1
        )

    def test_builds_all_requested_schemes(self, simulation):
        assert set(simulation.schemes) == {
            "disco",
            "nd-disco",
            "s4",
            "vrr",
            "path-vector",
        }

    def test_disco_and_nddisco_share_substrate(self, simulation):
        disco = simulation.scheme("disco")
        nddisco = simulation.scheme("nd-disco")
        assert disco.nddisco is nddisco

    def test_s4_shares_landmarks_with_disco(self, simulation):
        assert simulation.scheme("s4").landmarks == simulation.scheme("disco").landmarks

    def test_run_produces_reports_for_every_protocol(self, simulation):
        results = simulation.run(
            measure_state_flag=True,
            measure_stretch_flag=True,
            measure_congestion_flag=True,
            pair_sample=60,
        )
        assert set(results.state) == set(results.stretch) == set(results.congestion)
        assert len(results.protocols()) == 5

    def test_identical_workloads_across_protocols(self, simulation):
        results = simulation.run(pair_sample=40)
        pairs = {report.pairs for report in results.stretch.values()}
        assert len(pairs) == 1  # every protocol measured on the same pairs

    def test_requires_protocols(self, small_gnm):
        with pytest.raises(ValueError):
            StaticSimulation(small_gnm, ())

    def test_node_sampling(self, simulation):
        results = simulation.run(node_sample=16, measure_stretch_flag=False)
        for report in results.state.values():
            assert len(report.nodes) == 16


class TestErrorInjection:
    def test_bounds_respected(self):
        estimates = inject_estimate_error(1000, max_error=0.6, seed=1)
        assert len(estimates) == 1000
        for value in estimates.values():
            assert 400.0 - 1e-9 <= value <= 1600.0 + 1e-9

    def test_zero_error_is_exact(self):
        estimates = inject_estimate_error(500, max_error=0.0, seed=2)
        assert all(value == 500.0 for value in estimates.values())

    def test_deterministic(self):
        assert inject_estimate_error(100, max_error=0.4, seed=3) == (
            inject_estimate_error(100, max_error=0.4, seed=3)
        )

    def test_num_nodes_override(self):
        estimates = inject_estimate_error(1000, max_error=0.2, num_nodes=10, seed=4)
        assert set(estimates) == set(range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_estimate_error(0, max_error=0.5)
        with pytest.raises(ValueError):
            inject_estimate_error(10, max_error=1.5)

    def test_a_node_draw_does_not_depend_on_the_count(self):
        few = inject_estimate_error(1000, max_error=0.6, num_nodes=10, seed=6)
        many = inject_estimate_error(1000, max_error=0.6, num_nodes=50, seed=6)
        assert few == {node: many[node] for node in range(10)}

    def test_estimates_are_clamped_at_two(self):
        estimates = inject_estimate_error(3, max_error=0.9, seed=7)
        assert min(estimates.values()) == 2.0
        assert all(2.0 <= value <= 3 * 1.9 for value in estimates.values())

    def test_errors_actually_vary(self):
        estimates = inject_estimate_error(1000, max_error=0.6, seed=5)
        assert len(set(estimates.values())) > 100
