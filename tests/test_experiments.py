"""Tests for the experiment harness (config, workloads, the scenario table,
experiments).

Every experiment is run at a deliberately tiny scale so the whole module
stays fast; the assertions check the *structure* of results and the paper's
qualitative shapes, not absolute numbers (those are the benchmarks' job).
"""

from __future__ import annotations

import pytest

from repro.experiments import addr_sizes, estimate_error, fig01_taxonomy
from repro.experiments import fig04_gnm_comparison, fig06_shortcutting
from repro.experiments import fig07_state_bytes, fig08_messaging, fig09_scaling
from repro.experiments import fig10_congestion_as, finger_study, guarantees
from repro.experiments import static_accuracy
from repro.experiments.config import ExperimentScale, default_scale
from repro.experiments.workloads import (
    as_level_topology,
    comparison_geometric,
    comparison_gnm,
    large_geometric,
    router_level_topology,
)
from repro.scenarios import resolve, scenario_ids

TINY = ExperimentScale(
    comparison_nodes=72,
    large_nodes=72,
    as_level_nodes=72,
    router_level_nodes=80,
    pair_sample=50,
    messaging_sweep=(20, 28),
    scaling_sweep=(40, 56),
    seed=11,
    label="tiny-test",
)


class TestConfig:
    def test_default_scale_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        base = default_scale()
        monkeypatch.setenv("REPRO_SCALE", "2")
        doubled = default_scale()
        assert doubled.comparison_nodes == 2 * base.comparison_nodes

    def test_invalid_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "big")
        with pytest.raises(ValueError):
            default_scale()

    def test_scaled_factor_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale().scaled(0)

    def test_scaled_minimum_size(self):
        tiny = ExperimentScale().scaled(0.001)
        assert tiny.comparison_nodes >= 16

    @pytest.mark.parametrize(
        "factor, messaging, scaling",
        [
            (0.05, (16,), (16, 26, 38, 51)),
            (0.1, (16, 19, 26), (26, 51, 77, 102)),
            (0.2, (16, 26, 38, 51), (51, 102, 154, 205)),
        ],
    )
    def test_scaled_sweeps_keep_each_size_once(
        self, factor, messaging, scaling
    ):
        # The clamp to 16 nodes makes small-scale sizes coincide; a sweep
        # keeps each size once, in order (0.2 is unchanged by this).
        scale = ExperimentScale().scaled(factor)
        assert scale.messaging_sweep == messaging
        assert scale.scaling_sweep == scaling
        keys = resolve("fig08-messaging").shard_keys(scale)
        assert keys == tuple(str(n) for n in messaging)

    def test_scale_is_frozen(self):
        with pytest.raises(AttributeError):
            ExperimentScale().seed = 1  # type: ignore[misc]


class TestWorkloads:
    def test_sizes_follow_scale(self):
        assert comparison_gnm(TINY).num_nodes == TINY.comparison_nodes
        assert comparison_geometric(TINY).num_nodes == TINY.comparison_nodes
        assert large_geometric(TINY).num_nodes == TINY.large_nodes
        assert as_level_topology(TINY).num_nodes == TINY.as_level_nodes
        assert router_level_topology(TINY).num_nodes == TINY.router_level_nodes

    def test_all_connected(self):
        for topology in (
            comparison_gnm(TINY),
            comparison_geometric(TINY),
            as_level_topology(TINY),
            router_level_topology(TINY),
        ):
            assert topology.is_connected()

    def test_deterministic_per_scale(self):
        first, second = comparison_gnm(TINY), comparison_gnm(TINY)
        assert first.content_key() == second.content_key()


class TestRunner:
    def test_all_experiments_registered(self):
        expected = {
            "fig01-taxonomy",
            "fig02-state-cdf",
            "fig03-stretch-cdf",
            "fig04-gnm-comparison",
            "fig05-geometric-comparison",
            "fig06-shortcutting",
            "fig07-state-bytes",
            "fig08-messaging",
            "fig09-scaling",
            "fig10-congestion-as",
            "addr-sizes",
            "finger-study",
            "estimate-error",
            "static-accuracy",
            "guarantees",
            "churn-cost",
            "resolution-latency",
            "resolution-staleness",
            "resolution-balance",
            "ablations",
        }
        assert set(scenario_ids()) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            resolve("fig99-nonexistent")

    def test_run_one_scenario(self):
        scenario = resolve("addr-sizes")
        assert "explicit-route" in scenario.format_report(scenario.run(TINY))


class TestIndividualExperiments:
    def test_taxonomy_shapes(self):
        result = fig01_taxonomy.run(TINY)
        report = fig01_taxonomy.format_report(result)
        protocols = {row.protocol for row in result.rows}
        assert {"Disco", "S4", "VRR", "Path-Vector"} <= protocols
        disco_row = next(r for r in result.rows if r.protocol == "Disco")
        shortest_row = next(r for r in result.rows if r.protocol == "Shortest-Path")
        # Disco's state grows more slowly than the Ω(n) baselines.
        assert disco_row.state_growth_ratio < shortest_row.state_growth_ratio
        assert disco_row.observed_max_later_stretch <= 3.0 + 1e-9
        assert "Fig. 1" in report

    def test_gnm_comparison_structure(self):
        result = fig04_gnm_comparison.run(TINY)
        report = fig04_gnm_comparison.format_report(result)
        assert {"Disco", "ND-Disco", "S4", "VRR", "Path-Vector"} <= set(
            result.results.state
        )
        assert "[congestion]" in report
        # Path vector stores Θ(n); Disco stores less on every node's mean.
        pv_state = result.results.state["Path-Vector"].entry_summary.mean
        assert pv_state == TINY.comparison_nodes - 1

    def test_shortcutting_orders_heuristics(self):
        result = fig06_shortcutting.run(TINY)
        report = fig06_shortcutting.format_report(result)
        for topology_label in result.topology_order:
            column = {
                mode: result.mean_stretch[mode][topology_label]
                for mode in result.mean_stretch
            }
            assert column["No Path Knowledge"] <= column["No Shortcutting"] + 1e-9
            assert column["Using Path Knowledge"] <= column["No Shortcutting"] + 1e-9
        assert "shortcutting heuristic" in report

    def test_state_bytes_rows(self):
        result = fig07_state_bytes.run(TINY)
        rows = result.rows()
        assert [row[0] for row in rows] == ["S4", "ND-Disco", "Disco"]
        # Disco stores more than ND-Disco (name-independence premium).
        nddisco_mean = rows[1][1]
        disco_mean = rows[2][1]
        assert disco_mean > nddisco_mean
        assert "KB (IPv4) mean" in fig07_state_bytes.format_report(result)

    def test_messaging_sweep_shapes(self):
        result = fig08_messaging.run(TINY)
        report = fig08_messaging.format_report(result)
        largest = max(result.sweep)
        pv = result.entries_per_node("Path-Vector")[largest]
        nddisco = result.entries_per_node("ND-Disco")[largest]
        disco = result.entries_per_node("Disco-1-Finger")[largest]
        assert pv > nddisco
        assert disco > nddisco
        assert "Fig. 8" in report

    def test_scaling_growth_exponent(self):
        result = fig09_scaling.run(TINY)
        report = fig09_scaling.format_report(result)
        exponent = result.state_growth_exponent("Disco")
        assert 0.0 < exponent < 1.0  # sublinear growth
        assert "growth exponent" in report

    def test_congestion_tail_structure(self):
        result = fig10_congestion_as.run(TINY)
        report = fig10_congestion_as.format_report(result)
        assert "Path-Vector" in result.reports
        assert 0.0 <= result.tail_excess_fraction("Disco") <= 1.0
        assert "congestion" in report.lower()

    def test_addr_sizes_orders(self):
        result = addr_sizes.run(TINY)
        report = addr_sizes.format_report(result)
        # Internet-like addresses are a few (fractional) bytes, mean below an
        # IPv6 address even at tiny scale; the distribution is well-formed.
        assert 0.0 < result.router_level.mean < 8.0
        assert result.router_level.maximum >= result.router_level_p95
        assert result.ring.maximum >= result.ring.mean > 0.0
        assert "explicit-route" in report

    def test_finger_study_shapes(self):
        result = finger_study.run(TINY)
        report = finger_study.format_report(result)
        assert result.reports[1].coverage == pytest.approx(1.0)
        assert result.reports[3].mean_hop_distance <= (
            result.reports[1].mean_hop_distance + 0.3
        )
        assert result.message_increase() >= 0.0
        assert "Finger study" in report

    def test_estimate_error_monotone_reachability(self):
        result = estimate_error.run(TINY, error_levels=(0.0, 0.4))
        report = estimate_error.format_report(result)
        assert result.unreachable_fraction[0.0] == 0.0
        assert result.unreachable_fraction[0.4] == 0.0
        assert abs(result.stretch_increase(0.4)) < 0.5
        assert "estimate error" in report

    def test_static_accuracy_close(self):
        result = static_accuracy.run(TINY)
        report = static_accuracy.format_report(result)
        assert result.relative_difference <= 0.10
        assert result.vicinity_membership_agreement >= 0.7
        assert "Static-simulation accuracy" in report

    def test_guarantees_hold_at_tiny_scale(self):
        result = guarantees.run(TINY)
        report = guarantees.format_report(result)
        for row in result.rows:
            assert row.max_later_stretch <= 3.0 + 1e-9
            assert row.max_first_stretch <= 7.0 + 1e-9
        assert "Theorems 1 & 2" in report
