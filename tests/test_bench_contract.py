"""The frozen ``bench/`` package's contract with ``src/repro``.

``bench/`` cannot be edited by an ordinary PR, and nothing else in tier-1
calls ``bench.harness.host_block``, so a PR that deletes or renames what
``bench/`` imports, a keyword it passes or an attribute it reads can be
green here and still crash ``python -m bench measure``.  This is the check
that fails first: the names imported and the keywords passed to them are
read off ``bench/**/*.py``; what ``bench/`` reads off the *objects* those
calls return cannot be, so it is a table here, checked on small real ones.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_trees():
    for path in sorted(BENCH_DIR.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _repro_import_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                yield node


def _repro_imports():
    """Every ``(file, module, name)`` of a ``from repro… import name`` in
    ``bench/**/*.py``."""
    return [
        (path.name, node.module, alias.name)
        for path, tree in _bench_trees()
        for node in _repro_import_nodes(tree)
        for alias in node.names
    ]


def _imported(module: str, name: str):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def test_every_name_bench_imports_from_repro_exists():
    imports = _repro_imports()
    assert ("harness.py", "repro.perf.kernel_bench", "host_metadata") in imports
    for file, module, name in imports:
        try:
            _imported(module, name)
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


def _call_surface():
    """What ``bench/`` does with the names it imports from ``repro``: every
    ``(file, name, object, keyword)`` of a call ``name(..., keyword=...)``
    -- a ``**spread`` of a module-level dict literal counts its keys -- and
    every ``(file, name, object, attribute)`` of a read ``name.attribute``."""
    keywords, reads = [], []
    for path, tree in _bench_trees():
        objects = {
            alias.asname or alias.name: _imported(node.module, alias.name)
            for node in _repro_import_nodes(tree)
            for alias in node.names
        }
        literals = {
            target.id: [key.value for key in node.value.keys]
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                for keyword in node.keywords if name in objects else ():
                    if keyword.arg is not None:
                        passed = [keyword.arg]
                    else:
                        passed = literals.get(getattr(keyword.value, "id", None), ())
                    keywords += [(path.name, name, objects[name], k) for k in passed]
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                name = node.value.id
                if name in objects:
                    reads.append((path.name, name, objects[name], node.attr))
    return keywords, reads


def test_every_keyword_bench_passes_and_attribute_it_reads_exists():
    keywords, reads = _call_surface()
    # The walk sees the calls two ROADMAP deletions would break.
    assert {
        ("run_traffic", "cache_budget"),
        ("run_traffic", "replicas"),  # through **_SERVICE
        ("NDDiscoRouting", "build_stats"),
        ("ChurnEngine", "landmarks"),
        ("generate_event_stream", "preserve_connectivity"),
    } <= {(name, keyword) for _, name, _, keyword in keywords}
    for file, name, target, keyword in keywords:
        parameters = inspect.signature(target).parameters
        assert keyword in parameters or any(
            parameter.kind is parameter.VAR_KEYWORD
            for parameter in parameters.values()
        ), f"bench/{file} passes {keyword}= to {name}: gone"
    for file, name, target, attribute in reads:
        assert hasattr(target, attribute), (
            f"bench/{file} reads {name}.{attribute}: gone"
        )


def test_the_objects_bench_reads_have_what_it_reads():
    """``bench/workloads/{converge,resolve,churn}.py`` by hand: the phase
    timings ``build_stats=`` fills, the two ND-Disco shims ``converge.py``
    reads (evaluated as it evaluates them, against the slabs), the report
    ``run_traffic`` returns with its ``cache_stats`` keys, and the engine
    and reports of a churn repeat.
    Deleting ``build_stats=`` (ROADMAP item 1) fails here and waits for
    ``bench/`` to be unfrozen (item 2).  So does what is left of item 8: the
    router cache is gone, and ``run_traffic`` keeps an ignored
    ``cache_budget=`` and a constant ``cache_stats`` for ``resolve.py``."""
    from array import array

    from repro.core.nddisco import NDDiscoRouting
    from repro.dynamics.engine import ChurnEngine, EventReport
    from repro.dynamics.stream import generate_event_stream
    from repro.graphs.generators import gnm_random_graph
    from repro.resolution import generate_lookup_workload, run_traffic

    topology = gnm_random_graph(48, seed=4, average_degree=6.0)
    stats: dict = {}
    routing = NDDiscoRouting(topology, seed=4, build_stats=stats)
    assert {"spt_seconds", "vicinity_seconds", "address_seconds"} <= set(stats)
    for name in ("tables", "landmarks", "vicinities", "closest_landmark_rows",
                 "names", "addresses"):
        assert hasattr(routing, name), name
    assert routing.tables.slab_items()
    # ``converge.py::check`` and ``::probe``, expression for expression.
    vicinity = routing.tables.vicinity
    for node in range(48):
        members, dists, _ = vicinity.row(node)
        shim = dict(routing.vicinities[node].distances.items())
        assert list(shim.items()) == list(zip(members, dists))
    assert array("d", routing.closest_landmark_rows[1]) == array(
        "d", routing.tables.closest_dist
    )

    # ``converge.py::probe`` calls the batch drivers on ``topology.csr()``,
    # an object the AST walk above cannot see: these positional shapes.
    csr = topology.csr()
    landmarks = array("q", sorted(routing.landmarks))
    dist_out = array("d", bytes(8 * len(landmarks) * 48))
    parent_out = array("q", bytes(8 * len(landmarks) * 48))
    assert csr.spt_rows_batch_into(landmarks, dist_out, parent_out) is None
    assert dist_out[landmarks[0]] == 0.0 and parent_out[landmarks[0]] == -1
    radii = array("d", routing.closest_landmark_rows[1])
    for flat in (csr.k_nearest_batch_flat(9), csr.radius_batch_flat(radii)):
        offsets, members, dists, parents = flat
        assert len(offsets) == 49 and offsets[-1] == len(members)
        assert len(dists) == len(parents) == len(members)

    workload = generate_lookup_workload(48, num_lookups=40, duration_ticks=4, seed=4)
    assert workload.num_lookups == 40
    report = run_traffic(routing, workload, cache_budget=1 << 12)
    for name in ("lookups", "group_hits", "ring_hits", "misses", "latencies",
                 "staleness", "hops", "shard_loads", "expired_records",
                 "cache_stats"):
        assert hasattr(report, name), name
    assert report.cache_stats == {"hits": 0, "misses": 0, "evictions": 0}
    assert "cache_stats" not in {
        field.name for field in dataclasses.fields(report)
    }

    assert {"event", "applied", "cost", "rows_repaired",
            "vicinities_recomputed"} <= {
        field.name for field in dataclasses.fields(EventReport)
    }
    engine = ChurnEngine(topology, landmarks=sorted(routing.landmarks))
    (event,) = generate_event_stream(topology, num_events=1, seed=4)
    applied = engine.apply(event)
    assert applied.event is event and applied.applied
    assert applied.cost.total_incremental_entries >= 0
    assert engine.topology is not topology
    fresh = ChurnEngine(engine.topology, landmarks=sorted(routing.landmarks))
    assert engine.state_signature() == fresh.state_signature()
