"""Start-up is a contract: a command imports what it runs.

Command and scenario modules are named in tables (``repro.cli.COMMANDS``,
``repro.scenarios.registry.CATALOG``) and imported when run, and ``import
repro`` resolves its exports on first use (PEP 562).  These tests hold the
import *sets*: each runs the real ``python -m repro ...`` in a fresh
interpreter and reads back which ``repro`` modules it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments

_ROOT = Path(__file__).resolve().parent.parent

# Runs ``python -m repro ARGS`` in-process and writes what got imported.
_CHILD = """
import json, runpy, sys
out = sys.argv.pop(1)
code = None
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

# Packages no light command may touch, and the figure modules.
_HEAVY = ("repro.core", "repro.graphs.csr", "repro.dynamics",
          "repro.resolution", "repro.sim")  # fmt: skip
_FIGURES = "repro.experiments.fig"


def _env(**extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), **extra)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def _repro(tmp_path, *argv: str, **extra_env: str):
    """(exit code, repro modules loaded, stdout) of ``python -m repro argv``."""
    out = tmp_path / "modules.json"
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), *argv],
        env=_env(**extra_env),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.exists(), done.stderr
    report = json.loads(out.read_text())
    loaded = {name for name in report["modules"] if name.startswith("repro")}
    return report["code"], loaded, done.stdout


def _under(loaded: set, *prefixes: str) -> set:
    """The loaded modules at or below any of the dotted ``prefixes``."""
    return {
        name
        for name in loaded
        for prefix in prefixes
        if name == prefix or name.startswith(prefix + ".")
    }


def _figures(loaded: set) -> set:
    return {name for name in loaded if name.startswith(_FIGURES)}


class TestLightCommands:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["list"], ["cache", "stats", "--cache-dir", "empty"]],
        ids=["help", "list", "cache-stats"],
    )
    def test_imports_no_routing_stack_and_no_experiment(self, argv, tmp_path):
        code, loaded, stdout = _repro(tmp_path, *argv)
        assert code == 0 and stdout
        assert not _under(loaded, *_HEAVY)
        assert not _figures(loaded)
        assert "repro.experiments.runner" not in loaded

    def test_import_repro_is_only_the_package(self, tmp_path):
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro, sys; print(sorted(m for m in sys.modules "
                "if m.startswith('repro')))",
            ],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['repro', 'repro._lazy']"


class TestRun:
    def test_run_imports_the_selected_scenario_only(self, tmp_path):
        code, loaded, stdout = _repro(
            tmp_path, "run", "fig07", "--no-cache", REPRO_SCALE="0.1"
        )
        assert code == 0 and "Fig. 7" in stdout
        assert _figures(loaded) == {"repro.experiments.fig07_state_bytes"}
        assert "repro.experiments.runner" not in loaded
        assert not _under(loaded, "repro.dynamics", "repro.resolution", "repro.sim")

    def test_suggestions_come_from_the_table(self, tmp_path):
        code, loaded, _ = _repro(tmp_path, "run", "fig04-gnm-comparisn")
        assert code == 2
        assert not _figures(loaded)

    def test_workers_resolve_through_the_same_table(self, tmp_path):
        outputs = {}
        for workers in ("1", "2"):
            code, loaded, stdout = _repro(
                tmp_path, "run", "fig02", "--no-cache", "--workers", workers,
                "--json-dir", f"json-{workers}", REPRO_SCALE="0.1",
            )  # fmt: skip
            assert code == 0
            assert _figures(loaded) == {"repro.experiments.fig02_state_cdf"}
            document = tmp_path / f"json-{workers}" / "fig02-state-cdf.json"
            outputs[workers] = (stdout, document.read_bytes())
        assert outputs["1"] == outputs["2"]


class TestLazyExports:
    @pytest.mark.parametrize("package", [repro, repro.experiments])
    def test_every_public_name_resolves(self, package):
        assert set(dir(package)) >= set(package.__all__)
        for name in package.__all__:
            namespace: dict = {}
            exec(f"from {package.__name__} import {name}", namespace)
            assert namespace[name] is getattr(package, name)

    @pytest.mark.parametrize("package", [repro, repro.experiments])
    def test_unknown_attribute_names_the_module(self, package):
        with pytest.raises(
            AttributeError,
            match=f"module '{package.__name__}' has no attribute 'nope'",
        ):
            package.nope


class TestPackaging:
    def test_setup_py_declares_the_package(self):
        done = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-2:] == ["repro", repro.__version__]
