"""End-to-end integration tests: the full pipeline and the examples."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from repro.graphs.generators import geometric_random_graph
from repro.staticsim.simulation import StaticSimulation

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestFullPipeline:
    """One medium topology through every protocol and every metric."""

    @pytest.fixture(scope="class")
    def results(self):
        topology = geometric_random_graph(180, seed=31, average_degree=8.0)
        simulation = StaticSimulation(
            topology, ("disco", "nd-disco", "s4", "vrr", "path-vector"), seed=31
        )
        return simulation.run(
            measure_state_flag=True,
            measure_stretch_flag=True,
            measure_congestion_flag=True,
            pair_sample=150,
        )

    def test_paper_state_ordering(self, results):
        """Mean state: S4 < ND-Disco < Disco < Path-Vector (Fig. 7 shape)."""
        means = {
            name: report.entry_summary.mean for name, report in results.state.items()
        }
        assert means["S4"] < means["ND-Disco"] < means["Disco"]
        assert means["Disco"] < means["Path-Vector"] * 3  # still same order of n here

    def test_disco_state_balanced_vrr_not(self, results):
        disco = results.state["Disco"].entry_summary
        vrr = results.state["VRR"].entry_summary
        assert disco.maximum / disco.mean < vrr.maximum / vrr.mean

    def test_paper_stretch_ordering(self, results):
        """First-packet stretch: Disco well below S4 and VRR (Fig. 5 shape)."""
        disco = results.stretch["Disco"].first_summary
        s4 = results.stretch["S4"].first_summary
        vrr = results.stretch["VRR"].first_summary
        assert disco.mean < s4.mean
        assert disco.mean < vrr.mean
        assert disco.maximum < s4.maximum

    def test_later_packet_bounds(self, results):
        assert results.stretch["Disco"].later_summary.maximum <= 3.0 + 1e-9
        assert results.stretch["S4"].later_summary.maximum <= 3.0 + 1e-9
        assert results.stretch["Path-Vector"].later_summary.maximum == pytest.approx(
            1.0
        )

    def test_congestion_close_to_shortest_path(self, results):
        """Compact routing's congestion stays comparable to shortest paths."""
        disco = results.congestion["Disco"].max_usage()
        shortest = results.congestion["Path-Vector"].max_usage()
        assert disco <= 5 * shortest

    def test_every_protocol_measured_on_same_workload(self, results):
        flows = {report.flows for report in results.congestion.values()}
        assert len(flows) == 1


class TestExamples:
    """Each example script runs to completion (smoke tests)."""

    def _run(self, name: str, capsys) -> str:
        script = EXAMPLES_DIR / name
        assert script.exists(), f"missing example {name}"
        argv_backup = sys.argv
        sys.argv = [str(script)]
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = argv_backup
        return capsys.readouterr().out

    def test_quickstart(self, capsys):
        output = self._run("quickstart.py", capsys)
        assert "network-wide measurements" in output
        assert "stretch" in output

    def test_sensor_network(self, capsys):
        output = self._run("sensor_network.py", capsys)
        assert "S4" in output
        assert "Disco" in output

    def test_enterprise_flat_names(self, capsys):
        output = self._run("enterprise_flat_names.py", capsys)
        assert "name after move: unchanged" in output

    def test_internet_routing(self, capsys):
        output = self._run("internet_routing.py", capsys)
        assert "VRR" in output
        assert "Path-Vector" in output
