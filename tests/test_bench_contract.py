"""The frozen ``bench/`` package's import contract with ``src/repro``.

``bench/`` cannot be edited by an ordinary PR, and nothing else in tier-1
calls ``bench.harness.host_block``, so a PR that deletes or renames what
``bench/`` imports can be green here and still crash ``python -m bench
measure``.  This is the check that fails first.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _repro_imports():
    """Every ``(file, module, name)`` of a ``from repro… import name`` in
    ``bench/**/*.py``."""
    found = []
    for path in sorted(BENCH_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    found.extend(
                        (path.name, module, alias.name) for alias in node.names
                    )
    return found


def test_every_name_bench_imports_from_repro_exists():
    imports = _repro_imports()
    assert ("harness.py", "repro.perf.kernel_bench", "host_metadata") in imports
    for file, module, name in imports:
        if hasattr(importlib.import_module(module), name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            pytest.fail(f"bench/{file} imports {name!r} from {module}: gone")


def test_host_metadata_has_the_keys_host_block_spreads():
    from repro.perf.kernel_bench import host_metadata

    assert set(host_metadata()) == {
        "cpu_model",
        "cpu_count",
        "machine",
        "system",
        "python",
        "python_implementation",
        "kernel_tier",
        "kernel_threads",
        "kernel_threads_env",
    }
