"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import importlib
import pickle
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.cli.cmd_generate import GENERATORS
from repro.cli.parser import FAMILIES, SCHEMES
from repro.errors import InputError, ReproError
from repro.graphs.generators import gnm_random_graph
from repro.graphs.io import write_edge_list
from repro.protocols.registry import available_schemes

_DATA = Path(__file__).parent / "data"
# ``repro --help`` and every subcommand's ``--help`` at COLUMNS=80, written
# by the commit before the CLI became a package (``cache-prune.txt`` is
# ``repro cache prune --help``; ``repro.txt`` the top level).
_HELP_GOLDENS = sorted(path.name for path in (_DATA / "cli_help").glob("*.txt"))


def _command_paths(parser: argparse.ArgumentParser, path=()):
    """Every command path of ``parser``: (), ("run",), ("cache", "ls"), ..."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, (*path, name))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_generate_validates_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "hypercube", "10", "--out", "x"])

    def test_compare_validates_protocols(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "x.edges", "--protocols", "ospf"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--quick"],
            ["churn", "gnm", "64", "--mode", "replay"],
        ],
        ids=["bench", "churn-mode"],
    )
    def test_retired_surfaces_rejected(self, argv):
        # The benchmark is ``python -m bench``; the replay oracle is under
        # ``tests/oracles/``.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


    def test_static_choices_match_what_they_stand_for(self):
        # The parser spells these out to import nothing.
        assert list(FAMILIES) == sorted(GENERATORS)
        assert list(SCHEMES) == available_schemes()

    def test_every_command_has_a_handler_and_a_help_golden(self):
        paths = list(_command_paths(build_parser()))
        assert {path[0] for path in paths if path} == set(COMMANDS)
        assert sorted(
            "-".join(path or ("repro",)) + ".txt" for path in paths
        ) == _HELP_GOLDENS
        for module in COMMANDS.values():
            assert callable(importlib.import_module(module).command)

    @pytest.mark.parametrize("golden", _HELP_GOLDENS)
    def test_help_is_frozen(self, golden, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        path = [] if golden == "repro.txt" else golden[: -len(".txt")].split("-")
        with pytest.raises(SystemExit) as exit_info:
            main([*path, "--help"])
        assert exit_info.value.code == 0
        expected = (_DATA / "cli_help" / golden).read_text()
        assert capsys.readouterr().out == expected


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == (_DATA / "repro_list.txt").read_text()

    def test_run_rejects_unknown(self, capsys):
        assert main(["run", "fig99-unknown"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_unknown_suggests_near_misses(self, capsys):
        assert main(["run", "fig04-gnm-comparisn"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "fig04-gnm-comparison" in err

    def test_scenarios_list(self, capsys, monkeypatch):
        # The shards column follows the scale; the golden is the default's.
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["scenarios", "list"]) == 0
        expected = (_DATA / "repro_scenarios_list.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_run_requires_selection(self, capsys):
        assert main(["run"]) == 2
        assert "no experiments selected" in capsys.readouterr().err

    def test_generate_and_profile(self, tmp_path, capsys):
        out = tmp_path / "net.edges"
        assert main(["generate", "gnm", "64", "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["profile", str(out)]) == 0
        output = capsys.readouterr().out
        assert "average degree" in output
        assert "64" in output

    def test_compare_on_generated_topology(self, tmp_path, capsys):
        out = tmp_path / "net.edges"
        topology = gnm_random_graph(72, seed=5, average_degree=6.0)
        write_edge_list(topology, out)
        code = main(
            [
                "compare",
                str(out),
                "--protocols",
                "nd-disco",
                "s4",
                "--pairs",
                "40",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "ND-Disco" in output
        assert "S4" in output

    def test_compare_uses_largest_component(self, tmp_path, capsys):
        out = tmp_path / "disconnected.edges"
        out.write_text("# nodes 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n")
        # Make it disconnected by omitting the bridging edge.
        out.write_text("# nodes 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
        code = main(
            ["compare", str(out), "--protocols", "shortest-path", "--pairs", "5"]
        )
        assert code == 0
        assert "largest connected component" in capsys.readouterr().out

    def test_substrate_command_converges_and_reports(self, tmp_path, capsys):
        assert (
            main(
                [
                    "substrate",
                    "gnm",
                    "300",
                    "--seed",
                    "3",
                    "--storage",
                    str(tmp_path / "slabs"),
                    "--routes",
                    "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "nd-disco converged" in output
        assert "s4 converged" in output
        assert "route " in output
        assert "peak rss" in output
        # The storage directory is a complete, mmap-attachable artifact.
        from repro.core.tables import SubstrateTables

        attached = SubstrateTables.from_mmap(tmp_path / "slabs")
        assert attached.num_nodes == 300

    def test_churn_times_the_events_apart_from_convergence(self, capsys):
        # Two edge events at n = 4096: convergence is nearly all of the run,
        # and the rate printed is events over *event* time.
        argv = ["churn", "gnm", "4096", "--events", "2", "--seed", "5"]
        assert main(argv + ["--kinds", "edge-down", "edge-reweight"]) == 0
        output = capsys.readouterr().out
        clock = re.search(
            r"^converged in ([\d.]+)s; (\d+) events in ([\d.]+)s "
            r"\(([\d.]+) events/s\)$",
            output,
            re.MULTILINE,
        )
        assert clock, output
        converged, events, elapsed, rate = map(float, clock.groups())
        assert events == 2
        # The two times are printed to the millisecond.
        assert events / (elapsed + 0.0006) - 0.1 <= rate
        assert elapsed < 0.0006 or rate <= events / (elapsed - 0.0006) + 0.1
        assert rate > 2 * events / (converged + elapsed)
        rows = re.search(
            r"^vicinity rows: (\d+) recomputed \((\d+) repaired in place\), "
            r"(\d+) stored$",
            output,
            re.MULTILINE,
        )
        assert rows
        recomputed, repaired, stored = map(int, rows.groups())
        assert repaired <= recomputed and 0 < stored <= recomputed

    def test_substrate_requires_node_count_for_families(self, capsys):
        assert main(["substrate", "gnm"]) == 2
        assert "node count required" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-3", "two"])
    def test_substrate_threads_must_be_a_positive_integer(self, width, capsys):
        # One rule with REPRO_KERNEL_THREADS: a width is at least one.
        with pytest.raises(SystemExit) as error:
            main(["substrate", "gnm", "64", "--threads", width])
        assert error.value.code == 2
        assert "argument --threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "generate gnm 0 --out {tmp}/net.edges",
            "substrate gnm 2",
            "churn gnm 0",
            "resolve gnm 8",
            "churn gnm 64 --events -3",
            "resolve gnm 64 --lookups -5",
            "compare {tmp}/missing.edges",
            "profile {tmp}/missing.edges",
            "substrate {tmp}/malformed.edges",
            "compare {tmp}/malformed.edges",
            "profile {tmp}/malformed.edges",
            "substrate {tmp}/nan.edges",
            # A dataset that does not load, before the engine starts.
            "run fig02 --no-cache --topology-file {tmp}/malformed.edges",
            "run fig02 --no-cache --topology-file {tmp}/nan.edges",
            "run fig02 --no-cache --topology-file {tmp}/empty.edges",
            "run fig02 --no-cache --workers 2 --topology-file "
            "{tmp}/malformed.edges",
            "substrate {tmp}/empty.edges",
            "compare {tmp}/empty.edges",
            "profile {tmp}/empty.edges",
            "ingest {tmp}/garbage.cch --format rocketfuel --no-cache",
            "ingest {tmp}/nodes-abc.edges --no-cache",
            "ingest {tmp}/nodes-negative.edges --no-cache",
            "ingest {tmp}/net.edges --delay 2 --no-cache",
            # A malformed REPRO_* value.
            "REPRO_SCALE=abc run fig07 --no-cache",
            "REPRO_SCALE=-1 run fig07 --no-cache",
            "REPRO_KERNEL_THREADS=abc substrate gnm 64",
            # An output path inside a regular file.
            "generate gnm 64 --out {tmp}/file/net.edges",
            "REPRO_SCALE=0.1 run fig07 --no-cache --json-dir {tmp}/file/json",
            "REPRO_SCALE=0.1 run fig07 --cache-dir {tmp}/file/cache",
            # A count or a rate out of range, refused by argparse.
            "compare {tmp}/net.edges --pairs 0",
            "resolve gnm 64 --duration 0",
            "resolve gnm 64 --replicas 0",
            "resolve gnm 64 --virtual-nodes 0",
            "resolve gnm 64 --refresh-interval 0",
            "resolve gnm 64 --zipf -1",
            "resolve gnm 64 --groups --deployment 0",
            "churn gnm 64 --events-per-tick 0",
            # A value the library refuses past argparse.
            "resolve gnm 64 --diurnal 1.5",
            "resolve gnm 64 --flash 5 2 1",
            "churn gnm 64 --events 500 --kinds node-leave",
            # A node id that does not fit in 64 bits.
            "profile {tmp}/huge-id.edges",
            # A node count this machine's memory cannot hold, refused
            # before anything is sized by it: a header, and an id below
            # 2^63.
            "profile {tmp}/nodes-huge.edges",
            "profile {tmp}/id-huge.edges",
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        """A size the generator refuses, a count below one, a missing file
        or one that does not parse, a malformed ``REPRO_*`` value (the
        leading ``NAME=value`` words) or an output path that cannot be
        made: exit 2 and one line on stderr naming the command (below
        argparse's usage block, for the counts), never a traceback."""
        (tmp_path / "malformed.edges").write_text("0 1\n1 x\n")
        (tmp_path / "nan.edges").write_text("0 1 1.0\n1 2 nan\n")
        (tmp_path / "empty.edges").write_text("")
        (tmp_path / "garbage.cch").write_text("garbage\n")
        (tmp_path / "nodes-abc.edges").write_text("# nodes abc\n0 1\n")
        (tmp_path / "nodes-negative.edges").write_text("# nodes -3\n0 1\n")
        (tmp_path / "huge-id.edges").write_text("0 99999999999999999999\n")
        (tmp_path / "nodes-huge.edges").write_text("# nodes 99999999999999\n0 1\n")
        (tmp_path / "id-huge.edges").write_text("0 999999999999\n")
        (tmp_path / "net.edges").write_text("0 1\n1 2\n2 0\n")
        (tmp_path / "file").write_text("a regular file\n")
        words = argv.format(tmp=tmp_path).split()
        while "=" in words[0]:
            monkeypatch.setenv(*words.pop(0).split("=", 1))
        try:
            code = main(words)
        except SystemExit as error:
            code = error.code
        err = capsys.readouterr().err
        lines = [
            line
            for line in err.splitlines()
            if not line.startswith(("usage:", " "))
        ]
        assert code == 2 and len(lines) == 1, err
        assert "Traceback" not in err
        assert f"{words[0]}: " in lines[0]

    @pytest.mark.parametrize("bug", [TypeError, RuntimeError, ValueError])
    def test_a_bug_is_a_traceback_not_exit_2(self, bug, tmp_path, monkeypatch):
        """Only refused input (``ReproError``) and ``OSError`` exit 2; any
        other exception out of a command propagates, a plain
        ``ValueError`` included."""

        def broken(*args, **kwargs):
            raise bug("not the user's fault")

        monkeypatch.setattr("repro.graphs.ingest.ingest_topology", broken)
        path = tmp_path / "net.edges"
        path.write_text("0 1\n")
        with pytest.raises(bug, match="not the user's fault"):
            main(["ingest", str(path), "--no-cache"])

    def test_input_error_crosses_a_process_boundary_unchanged(self):
        # A pool worker's InputError reaches cli.main as itself.
        error = pickle.loads(pickle.dumps(InputError("f.edges:2: bad")))
        assert type(error) is InputError and error.args == ("f.edges:2: bad",)
        assert isinstance(error, ReproError) and isinstance(error, ValueError)
