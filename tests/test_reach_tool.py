"""``tools/reach.py``'s comparison of reached names with its allowlist.

Fed a synthetic set of reached names: no entry point runs here (the probe
itself runs in CI's "Reachability" step).  The parts the comparison rests
on -- the allowlist parser, the ``ast`` keys and the profile hook's keys,
the declared entry points -- are checked on small inputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.cli.parser import build_parser
from repro.utils import formatting, randomness

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

DEFINED = {"repro.a:run", "repro.a:Table.row", "repro.b:bench_shim"}
REACHED = {"repro.a:run", "repro.a:Table.row"}
ALLOWLIST = "# a comment line\n\nrepro.b:bench_shim  # bench (item 2)\n"


def test_a_listed_unreached_name_passes():
    assert reach.compare(DEFINED, REACHED, ALLOWLIST) == []


def test_an_unlisted_unreached_name_fails():
    errors = reach.compare(DEFINED | {"repro.b:orphan"}, REACHED, ALLOWLIST)
    assert errors == ["unreached and not on the allowlist: repro.b:orphan"]


def test_a_listed_name_that_is_reached_fails():
    errors = reach.compare(DEFINED, REACHED | {"repro.b:bench_shim"}, ALLOWLIST)
    assert errors == ["on the allowlist but reached: repro.b:bench_shim"]


def test_a_listed_name_that_no_longer_exists_fails():
    errors = reach.compare(DEFINED - {"repro.b:bench_shim"}, REACHED, ALLOWLIST)
    assert errors == ["on the allowlist but not defined: repro.b:bench_shim"]


@pytest.mark.parametrize(
    "line", ["repro.b:bench_shim", "repro.b:bench_shim  # because"]
)
def test_a_line_without_a_reason_from_the_set_fails(line):
    errors = reach.compare(DEFINED, REACHED, line + "\n")
    assert len(errors) == 1 and "has no reason from" in errors[0]


def test_defs_are_keyed_by_qualname(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "m.py").write_text(
        "import abc\n"
        "def f():\n"
        "    def inner():\n"
        "        pass\n"
        "class C(abc.ABC):\n"
        "    @abc.abstractmethod\n"
        "    def declared(self): ...\n"
        "    def g(self):\n"
        "        return 1\n"
    )
    found = reach.defined_functions(package, root=tmp_path)
    assert found == {
        "repro.m:f": 3,
        "repro.m:f.<locals>.inner": 2,
        "repro.m:C.g": 2,
    }


@pytest.mark.parametrize("reason", reach.REASONS)
def test_every_reason_in_the_set_is_accepted(reason):
    listed, errors = reach.parse_allowlist(f"repro.b:bench_shim  # {reason}\n")
    assert errors == [] and listed == {"repro.b:bench_shim": reason}


def test_a_name_listed_twice_fails():
    errors = reach.compare(DEFINED, REACHED, ALLOWLIST + ALLOWLIST)
    assert errors == ["allowlist line 6: repro.b:bench_shim listed twice"]


def test_a_line_that_is_not_a_name_fails():
    errors = reach.compare(DEFINED, REACHED, ALLOWLIST + "bench_shim  # storage\n")
    assert errors == [
        "allowlist line 4: cannot parse 'bench_shim  # storage'"
    ]


def test_indented_comments_and_blank_lines_are_skipped():
    text = "   # indented comment\n \t \n" + ALLOWLIST
    assert reach.parse_allowlist(text) == (
        {"repro.b:bench_shim": "bench (item 2)"}, []
    )


def test_errors_come_by_kind_then_by_name():
    allowlist = (
        "repro.z:gone  # accessor\n"
        "repro.a:run  # accessor\n"
        "repro.a:gone  # accessor\n"
    )
    defined = {"repro.a:run", "repro.b:y", "repro.b:x"}
    assert reach.compare(defined, {"repro.a:run"}, allowlist) == [
        "unreached and not on the allowlist: repro.b:x",
        "unreached and not on the allowlist: repro.b:y",
        "on the allowlist but reached: repro.a:run",
        "on the allowlist but not defined: repro.a:gone",
        "on the allowlist but not defined: repro.z:gone",
    ]


@pytest.mark.parametrize(
    "relative, module",
    [
        ("repro/__init__.py", "repro"),
        ("repro/graphs/__init__.py", "repro.graphs"),
        ("repro/graphs/csr.py", "repro.graphs.csr"),
    ],
)
def test_module_of(tmp_path, relative, module):
    assert reach.module_of(tmp_path / relative, root=tmp_path) == module


def _defs_of(tmp_path, source):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "m.py").write_text(source)
    return reach.defined_functions(package, root=tmp_path)


def test_a_property_and_its_setter_are_one_key(tmp_path):
    found = _defs_of(
        tmp_path,
        "class C:\n"
        "    @property\n"
        "    def x(self):\n"
        "        return self._x\n"
        "    @x.setter\n"
        "    def x(self, value):\n"
        "        self._x = value\n",
    )
    assert found == {"repro.m:C.x": 4}


def test_overloads_are_declarations_and_async_defs_count(tmp_path):
    found = _defs_of(
        tmp_path,
        "import typing\n"
        "from typing import overload\n"
        "@overload\n"
        "def f(x: int) -> int: ...\n"
        "@typing.overload\n"
        "def f(x: str) -> str: ...\n"
        "def f(x):\n"
        "    return x\n"
        "async def g():\n"
        "    return 1\n",
    )
    assert found == {"repro.m:f": 2, "repro.m:g": 2}


def test_nested_classes_and_defs_under_a_branch(tmp_path):
    found = _defs_of(
        tmp_path,
        "import sys\n"
        "if sys.platform:\n"
        "    def h():\n"
        "        pass\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def m(self):\n"
        "            pass\n",
    )
    assert found == {"repro.m:h": 2, "repro.m:Outer.Inner.m": 2}


def test_code_outside_the_package_has_no_key():
    assert reach._key(test_code_outside_the_package_has_no_key.__code__) is None
    assert reach._key(os.path.join.__code__) is None


def test_runtime_keys_are_the_ast_keys():
    # A module function, a method and a closure, as the hook keys them.
    from repro import _lazy
    from repro.graphs.topology import TopologyBuilder

    closure = _lazy.lazy_exports("repro.x", {})[1]
    codes = [
        randomness.derive_seed.__code__,
        TopologyBuilder.freeze.__code__,
        closure.__code__,
    ]
    keys = [reach._key(code) for code in codes]
    assert keys == [
        "repro.utils.randomness:derive_seed",
        "repro.graphs.topology:TopologyBuilder.freeze",
        "repro._lazy:lazy_exports.<locals>.__dir__",
    ]
    assert set(keys) <= reach.defined_functions().keys()


def _call_in_a_thread(function, *args):
    thread = threading.Thread(target=function, args=args)
    thread.start()
    thread.join()


def test_the_hook_records_this_thread_and_threads_started_under_it(tmp_path):
    # ``start()`` would also register a fork handler for the rest of this
    # process, so the two hooks it installs are installed by hand.
    recorder = reach.Recorder(tmp_path)
    sys.setprofile(recorder._hook)
    threading.setprofile(recorder._hook)
    try:
        randomness.derive_seed(1, "here")
        _call_in_a_thread(formatting.format_table, ["a"], [[1]])
    finally:
        recorder.stop()
    reached = recorder.reached()
    assert "repro.utils.randomness:derive_seed" in reached
    assert "repro.utils.formatting:format_table" in reached
    assert "repro.utils.randomness:make_rng" not in reached


def test_a_forked_child_spools_what_it_enters(tmp_path):
    # What a pool worker does after the fork, run in this process: each
    # name goes to the spool file the parent's ``reached`` reads back.
    child = reach.Recorder(tmp_path)
    child._after_fork()
    try:
        randomness.make_rng(3, "child")
    finally:
        child.stop()
        child._out.close()
    spooled = (tmp_path / f"child-{os.getpid()}.txt").read_text().split()
    assert spooled == [
        "repro.utils.randomness:make_rng",
        "repro.utils.randomness:derive_seed",
    ]
    assert set(spooled) <= reach.Recorder(tmp_path).reached()


def test_environment_restores_what_it_overrode(monkeypatch):
    monkeypatch.setenv("REPRO_REACH_SET", "before")
    monkeypatch.delenv("REPRO_REACH_UNSET", raising=False)
    extra = {"REPRO_REACH_SET": "during", "REPRO_REACH_UNSET": "during"}
    with reach._environment(extra):
        assert os.environ["REPRO_REACH_SET"] == "during"
        assert os.environ["REPRO_REACH_UNSET"] == "during"
    assert os.environ["REPRO_REACH_SET"] == "before"
    assert "REPRO_REACH_UNSET" not in os.environ


def test_an_entry_point_with_an_unexpected_status_is_reported(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        reach,
        "ENTRY_POINTS",
        (("list", {}, ["list"]), ("typo", {}, ["run", "fig99-nope"])),
    )
    monkeypatch.setattr(reach, "EXPECTED_STATUS", {})
    failed = reach.run_entry_points(tmp_path)
    assert len(failed) == 1 and failed[0].startswith("typo: exit 2\n")
    assert "unknown experiment 'fig99-nope'" in failed[0]
    monkeypatch.setattr(reach, "EXPECTED_STATUS", {"typo": 2})
    assert reach.run_entry_points(tmp_path) == []


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_cli_subcommand_has_an_entry_point():
    commands = set()
    for name, sub in _subcommands(build_parser()).items():
        nested = _subcommands(sub)
        commands.update((name, leaf) for leaf in nested)
        if not nested:
            commands.add((name,))
    argvs = [
        tuple(target) for _, _, target in reach.ENTRY_POINTS
        if isinstance(target, list)
    ]
    uncovered = {
        command for command in commands
        if not any(argv[: len(command)] == command for argv in argvs)
    }
    assert uncovered == set()


def test_the_entry_points_name_files_that_exist():
    labels = [label for label, _, _ in reach.ENTRY_POINTS]
    assert len(set(labels)) == len(labels)
    assert set(reach.EXPECTED_STATUS) <= set(labels)
    data = reach.ROOT / "tests" / "data"
    for _, env, target in reach.ENTRY_POINTS:
        assert set(env) <= {"REPRO_SCALE", "REPRO_NO_CKERNELS"}
        if isinstance(target, Path):
            assert target.is_file()
            continue
        for arg in target:
            if arg.startswith("{data}/"):
                assert (data / arg[len("{data}/"):]).is_file()
    examples = {p.name for p in (reach.ROOT / "examples").glob("*.py")}
    assert examples == {
        target.name for _, _, target in reach.ENTRY_POINTS
        if isinstance(target, Path)
    }


def test_the_committed_allowlist_parses_and_names_defined_functions():
    # With nothing reached, every error but "unreached" is the allowlist's.
    errors = reach.compare(
        reach.defined_functions(), set(), reach.ALLOWLIST.read_text()
    )
    assert [e for e in errors if not e.startswith("unreached")] == []


def test_every_listed_accessor_is_read_by_name_in_the_tests():
    # "accessor" claims the tests or benchmarks pin the name; a dunder is
    # reached through its protocol, not by name.
    listed, _ = reach.parse_allowlist(reach.ALLOWLIST.read_text())
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("tests", "benchmarks")
        for path in (reach.ROOT / folder).rglob("*.py")
    )
    attributes = [
        name.rsplit(".", 1)[-1].rsplit(":", 1)[-1]
        for name, reason in listed.items()
        if reason == "accessor"
    ]
    unread = [
        attribute for attribute in attributes
        if not attribute.startswith("__")
        and re.search(rf"\b{attribute}\b", corpus) is None
    ]
    assert attributes and unread == []
