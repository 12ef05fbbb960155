#!/usr/bin/env python3
"""Reachability probe: every ``src/repro`` function sits on a user path.

Runs the entry points in :data:`ENTRY_POINTS` -- CLI invocations, one flag
family each, and the runnable examples -- in this process with
``sys.setprofile`` / ``threading.setprofile`` installed, and records every
code object under ``src/repro`` that is entered.  A process the run forks
(``repro run --workers 2``'s pool) keeps the hook and appends each code
object it enters for the first time to a file this probe reads back, so the
pool workers are traced like the parent.  A code object is keyed
``module:qualname`` (``co_qualname``), which is the same on 3.11 and 3.12.

Every ``def`` under ``src/repro`` is listed with :mod:`ast`; a ``def``
decorated ``abstractmethod`` or ``overload`` is a declaration with no body
to run and is not counted.  A ``def`` never entered must be on the allowlist
(``tools/reach_allowlist.txt``), one ``module:qualname  # reason`` per
line, with a reason from :data:`REASONS`.  The probe exits non-zero when a
name is unreached and not listed, a listed name is reached, a listed name
no longer exists, or a line has no reason from the set -- so the list can
only shrink.

Usage: python tools/reach.py

No third-party package is needed (``coverage`` is not used); ``src`` is put
on ``sys.path`` by the probe itself.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterable, Mapping

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")

#: Why a function may stay in ``src/`` although no entry point enters it.
REASONS = (
    "bench (item 2)",  # imported or read by the frozen bench/
    "error path",  # taken only on a fault the tests inject
    "storage",  # slab / shared-memory placement no entry point selects
    "accessor",  # a read-only method or property that tests pin
)

#: ``(label, environment, what to run)``.  ``what to run`` is an argv list
#: for ``repro.cli.main`` or the path of an example under ``examples/``;
#: ``{tmp}`` is a scratch directory (also the working directory) and
#: ``{data}`` is ``tests/data``.  Order matters where one entry reads what
#: an earlier one wrote (the cache, the generated edge file, a slab dir).
#: Every entry must exit 0 but those in :data:`EXPECTED_STATUS`.
SCALE = {"REPRO_SCALE": "0.2"}
NO_C = {"REPRO_NO_CKERNELS": "1"}
RICH_KINDS = [
    "--kinds", "edge-down", "edge-up", "edge-reweight", "node-leave",
    "node-join",
]
ENTRY_POINTS: tuple[tuple[str, Mapping[str, str], object], ...] = (
    ("list", {}, ["list"]),
    ("scenarios list", {}, ["scenarios", "list"]),
    ("run --all --no-cache", SCALE, ["run", "--all", "--no-cache"]),
    ("run --all, cold cache", SCALE,
     ["run", "--all", "--cache-dir", "{tmp}/cache", "--json-dir", "{tmp}/j"]),
    ("run --all, warm cache", SCALE,
     ["run", "--all", "--cache-dir", "{tmp}/cache", "--json-dir", "{tmp}/j"]),
    ("run --workers 2, warm cache", SCALE,
     ["run", "fig02-state-cdf", "fig09-scaling", "--workers", "2",
      "--cache-dir", "{tmp}/cache"]),
    ("run, a misspelt id", {}, ["run", "fig04-gnm-comparisn"]),
    ("run --topology-file", SCALE,
     ["run", "fig02-state-cdf", "--topology-file", "{data}/fixture-as.links",
      "--topology-format", "caida-aslinks", "--cache-dir", "{tmp}/cache"]),
    ("cache stats", {}, ["cache", "stats", "--cache-dir", "{tmp}/cache"]),
    ("cache ls", {}, ["cache", "ls", "--cache-dir", "{tmp}/cache"]),
    ("cache prune --dry-run", {},
     ["cache", "prune", "--cache-dir", "{tmp}/cache", "--max-bytes", "1",
      "--dry-run"]),
    ("cache prune", {},
     ["cache", "prune", "--cache-dir", "{tmp}/cache", "--max-bytes", "256K",
      "--max-age-days", "30"]),
    ("cache clear", {}, ["cache", "clear", "--cache-dir", "{tmp}/cache"]),
    ("ingest --list-formats", {}, ["ingest", "--list-formats"]),
    ("ingest caida-aslinks", {},
     ["ingest", "{data}/fixture-as.links", "--format", "caida-aslinks",
      "--largest-component", "--cache-dir", "{tmp}/ingest"]),
    ("ingest rocketfuel", {},
     ["ingest", "{data}/fixture-isp.cch", "--format", "rocketfuel",
      "--no-cache"]),
    ("generate", {}, ["generate", "gnm", "256", "--seed", "7",
                      "--out", "{tmp}/net.edges"]),
    ("generate geometric", {}, ["generate", "geometric", "256", "--seed", "3",
                                "--out", "{tmp}/geo.edges"]),
    ("profile", {}, ["profile", "{tmp}/net.edges"]),
    ("compare", {},
     ["compare", "{tmp}/net.edges", "--pairs", "60", "--protocols", "disco",
      "nd-disco", "s4", "vrr", "path-vector", "shortest-path"]),
    ("compare disco, Python tier", NO_C,
     ["compare", "{tmp}/net.edges", "--pairs", "20", "--protocols", "disco"]),
    ("substrate --routes", {},
     ["substrate", "gnm", "512", "--seed", "1", "--routes", "8",
      "--threads", "2"]),
    ("substrate --storage DIR", {},
     ["substrate", "gnm", "512", "--seed", "5", "--storage", "{tmp}/slabs"]),
    ("substrate --storage DIR, reused", {},
     ["substrate", "gnm", "512", "--seed", "5", "--storage", "{tmp}/slabs"]),
    ("substrate --storage mmap", {},
     ["substrate", "{tmp}/net.edges", "--storage", "mmap",
      "--vicinity-storage", "{tmp}/vicinity", "--protocols", "s4"]),
    ("substrate, Python tier", NO_C,
     ["substrate", "gnm", "256", "--seed", "5", "--routes", "4"]),
    ("substrate on a weighted file, Python tier", NO_C,
     ["substrate", "{tmp}/geo.edges", "--seed", "5"]),
    ("churn, default stream", {},
     ["churn", "gnm", "256", "--events", "24", "--seed", "1",
      "--json", "{tmp}/churn-default.json"]),
    ("churn --kinds", {},
     ["churn", "gnm", "256", "--events", "40", *RICH_KINDS]),
    ("churn --kinds --allow-partition", {},
     ["churn", "geometric", "256", "--events", "40", *RICH_KINDS,
      "--allow-partition", "--json", "{tmp}/churn-rich.json"]),
    ("churn --kinds --allow-partition, Python tier", NO_C,
     ["churn", "gnm", "128", "--events", "24", *RICH_KINDS,
      "--allow-partition"]),
    ("churn default stream, Python tier", NO_C,
     ["churn", "gnm", "128", "--events", "12", "--seed", "1"]),
    ("resolve --groups", {},
     ["resolve", "gnm", "256", "--lookups", "5000", "--duration", "64",
      "--churn-shards", "2", "--groups", "--diurnal", "0.5", "--flash",
      "8", "16", "3", "--zipf", "0.9", "--json", "{tmp}/resolve.json"]),
    ("examples/quickstart.py", {}, ROOT / "examples" / "quickstart.py"),
    ("examples/enterprise_flat_names.py", {},
     ROOT / "examples" / "enterprise_flat_names.py"),
    ("examples/internet_routing.py", {},
     ROOT / "examples" / "internet_routing.py"),
    ("examples/sensor_network.py", {},
     ROOT / "examples" / "sensor_network.py"),
)

#: Entry points that are a user's mistake, and the status they must exit
#: with (the CLI's usage error, with close-match suggestions).
EXPECTED_STATUS = {"run, a misspelt id": 2}


# -- what exists: every def under src/repro -------------------------------


def module_of(path: Path, root: Path = SRC) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package is its ``__init__``."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_declaration(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            decorator.id if isinstance(decorator, ast.Name) else ""
        )
        if name in ("abstractmethod", "overload"):
            return True
    return False


def defined_functions(
    package: Path = PACKAGE, root: Path = SRC
) -> dict[str, int]:
    """``module:qualname`` -> source lines, for every def under ``package``.

    Two defs with one qualname (a property and its setter) are one key
    whose lines add up.
    """
    found: dict[str, int] = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not _is_declaration(child):
                    key = f"{module}:{qualname}"
                    lines = child.end_lineno - child.lineno + 1
                    found[key] = found.get(key, 0) + lines
                visit(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, module_of(path, root), "")
    return found


# -- what runs: the profile hook ------------------------------------------


def _key(code) -> str | None:
    filename = code.co_filename
    if not filename.startswith(str(PACKAGE) + os.sep):
        return None
    return f"{module_of(Path(filename))}:{code.co_qualname}"


class Recorder:
    """Collect the code objects entered here and in forked children.

    Code objects compare equal by content, not by file, so two identical
    helpers in two modules would collapse in a set; they are kept by
    ``id`` (the dict's values hold them alive, so no id is reused).
    """

    def __init__(self, spool: Path) -> None:
        self.codes: dict[int, object] = {}
        self.spool = spool

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in self.codes:
                self.codes[id(code)] = code

    def _child_hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in self.codes:
                self.codes[id(code)] = code
                key = _key(code)
                if key is not None:
                    self._out.write(key + "\n")
                    self._out.flush()

    def _after_fork(self) -> None:
        # A pool worker may be killed rather than exit, so each name is on
        # disk as soon as it is first entered.
        self._out = open(self.spool / f"child-{os.getpid()}.txt", "a")
        sys.setprofile(self._child_hook)
        threading.setprofile(self._child_hook)

    def start(self) -> None:
        os.register_at_fork(after_in_child=self._after_fork)
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self) -> set[str]:
        keys = {key for key in map(_key, self.codes.values()) if key}
        for path in self.spool.glob("child-*.txt"):
            keys.update(path.read_text().split())
        return keys


@contextlib.contextmanager
def _environment(extra: Mapping[str, str]):
    saved = {name: os.environ.get(name) for name in extra}
    os.environ.update(extra)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_entry_points(tmp: Path) -> list[str]:
    """Run :data:`ENTRY_POINTS` in order; return the ones that failed."""
    from repro.cli import main

    failed = []
    fields = {"tmp": str(tmp), "data": str(ROOT / "tests" / "data")}
    for label, env, target in ENTRY_POINTS:
        sink = io.StringIO()
        try:
            with _environment(env), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if isinstance(target, Path):
                    saved_argv = sys.argv
                    sys.argv = [str(target)]
                    try:
                        runpy.run_path(str(target), run_name="__main__")
                    finally:
                        sys.argv = saved_argv
                    status = 0
                else:
                    status = main([arg.format(**fields) for arg in target])
        except SystemExit as stop:
            status = stop.code
        if (status or 0) != EXPECTED_STATUS.get(label, 0):
            failed.append(f"{label}: exit {status}\n{sink.getvalue()[-2000:]}")
    return failed


# -- the comparison ---------------------------------------------------------

_LINE = re.compile(r"^(?P<name>[\w.]+:[\w.<>]+)\s*(?:#\s*(?P<reason>.*?))?\s*$")


def parse_allowlist(text: str) -> tuple[dict[str, str], list[str]]:
    """``(name -> reason, errors)`` of an allowlist's text.

    Blank lines and lines that start with ``#`` are comments.
    """
    listed: dict[str, str] = {}
    errors: list[str] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        match = _LINE.match(line.strip())
        if match is None:
            errors.append(f"allowlist line {number}: cannot parse {line!r}")
            continue
        name, reason = match.group("name"), match.group("reason")
        if reason not in REASONS:
            errors.append(
                f"allowlist line {number}: {name} has no reason from "
                f"{', '.join(REASONS)} (got {reason!r})"
            )
        if name in listed:
            errors.append(f"allowlist line {number}: {name} listed twice")
        listed[name] = reason
    return listed, errors


def compare(
    defined: Iterable[str], reached: set[str], allowlist_text: str
) -> list[str]:
    """Every way the allowlist and the probe disagree, one message each."""
    defined = set(defined)
    listed, errors = parse_allowlist(allowlist_text)
    for name in sorted(defined - reached - listed.keys()):
        errors.append(f"unreached and not on the allowlist: {name}")
    for name in sorted(listed.keys() & reached):
        errors.append(f"on the allowlist but reached: {name}")
    for name in sorted(listed.keys() - defined):
        errors.append(f"on the allowlist but not defined: {name}")
    return errors


def main() -> int:
    started = time.perf_counter()
    defined = defined_functions()
    sys.path.insert(0, str(SRC))
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as scratch:
        tmp = Path(scratch)
        (tmp / "spool").mkdir()
        recorder = Recorder(tmp / "spool")
        os.chdir(tmp)
        recorder.start()
        try:
            failed = run_entry_points(tmp)
        finally:
            recorder.stop()
            os.chdir(home)
        reached = recorder.reached()
    unreached = {name: defined[name] for name in defined if name not in reached}
    allowlist = ALLOWLIST.read_text(encoding="utf-8")
    errors = failed + compare(defined, reached, allowlist)
    reasons = list(parse_allowlist(allowlist)[0].values())
    by_reason = {reason: reasons.count(reason) for reason in REASONS}
    print(
        f"reach: {len(defined)} defs, {len(unreached)} unreached "
        f"({sum(unreached.values())} lines), allowlist "
        + ", ".join(f"{reason} {count}" for reason, count in by_reason.items())
        + f"; {len(ENTRY_POINTS)} entry points in "
        f"{time.perf_counter() - started:.1f}s"
    )
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
