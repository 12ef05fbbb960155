"""Differential suite for the slab-direct substrate builder.

:func:`repro.core.substrate_build.build_substrate_tables` replaces the
dict-mediated component path (dense per-landmark rows, per-node
vicinity dicts, one ``from_components`` pass; now
``tests/oracles/component_build.py``) with kernel output written straight into the preallocated slabs, plus an
in-kernel thread fan-out and mmap-backed placement.  Nothing about the
*content* is allowed to change: every variant must produce slabs
byte-identical to the component-path oracle, on every topology family the
experiments use.

The comparisons here are exact (``bytes(slab) == bytes(slab)`` per slab),
not approximate -- the cache layer shares these slabs as raw buffers
across processes, so a single differing byte is corruption, not noise.
"""

from __future__ import annotations

import weakref

import pytest

from oracles import reference_paths as reference
from oracles.component_build import (
    closest_landmarks,
    from_components,
    landmark_spts,
)
from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.core.substrate_build import (
    build_ball_tables,
    build_substrate_tables,
    cluster_sizes_from_members,
)
from repro.core.tables import NodeSearchTables, SubstrateTables
from repro.core.vicinity import compute_vicinities, vicinity_size
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs import topology as topology_module
from repro.naming.names import name_for_node
from tiers import needs_c


def _families():
    return [
        ("gnm", gnm_random_graph(257, seed=5, average_degree=6.0)),
        ("geometric", geometric_random_graph(120, seed=7, average_degree=7.0)),
        ("router-level", internet_router_level(150, seed=9)),
    ]


FAMILIES = _families()


def _oracle(topology, landmarks):
    """The dict-mediated component path the builder must reproduce."""
    n = topology.num_nodes
    spts = landmark_spts(topology, landmarks)
    closest = closest_landmarks(spts, n)
    size = vicinity_size(n)
    vicinities = [reference.dijkstra_k_nearest(topology, v, size) for v in range(n)]
    return from_components(n, spts, closest, vicinities)


def _assert_identical_slabs(expected: SubstrateTables, actual: SubstrateTables):
    left = expected.slab_items()
    right = actual.slab_items()
    assert [(name, code) for name, code, _ in left] == [
        (name, code) for name, code, _ in right
    ]
    for (name, _, slab_a), (_, _, slab_b) in zip(left, right):
        assert bytes(slab_a) == bytes(slab_b), f"slab {name} differs"
    assert expected.num_nodes == actual.num_nodes
    assert bytes(expected.landmark_ids) == bytes(actual.landmark_ids)


@pytest.mark.parametrize("family,topology", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_slab_direct_serial_matches_dict_path(family, topology):
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = _oracle(topology, landmarks)
    actual = build_substrate_tables(topology, landmarks)
    _assert_identical_slabs(expected, actual)


@needs_c
@pytest.mark.parametrize("family,topology", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_refused_batch_kernels_match_dict_path(
    family, topology, refuse_batch_kernels, monkeypatch
):
    """A kernel that cannot allocate: both phases fall into the Python
    tier's per-source loop inside their driver, warn once each, and build
    the same slabs."""
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = _oracle(topology, landmarks)
    monkeypatch.setitem(
        topology_module._CSR_CACHE,
        id(topology),
        (weakref.ref(topology), refuse_batch_kernels(topology)),
    )
    with pytest.warns(RuntimeWarning, match="could not allocate") as caught:
        actual = build_substrate_tables(topology, landmarks)
    assert [str(warning.message).split()[0] for warning in caught] == [
        "spt_rows_batch",
        "k_nearest_batch",
    ]
    _assert_identical_slabs(expected, actual)


@pytest.mark.parametrize("family,topology", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_mmap_attached_load_matches_dict_path(family, topology, tmp_path):
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = _oracle(topology, landmarks)
    root = str(tmp_path / "slabs")
    built = build_substrate_tables(
        topology, landmarks, storage=root
    )
    _assert_identical_slabs(expected, built)
    attached = SubstrateTables.from_mmap(root)
    _assert_identical_slabs(expected, attached)


def test_anonymous_mmap_placement_matches_dict_path():
    family, topology = FAMILIES[0]
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = _oracle(topology, landmarks)
    actual = build_substrate_tables(
        topology, landmarks, storage="mmap"
    )
    _assert_identical_slabs(expected, actual)


def test_split_storage_matches_dict_path(tmp_path):
    """SPT slabs in a directory, vicinity slabs in anonymous mmap."""
    family, topology = FAMILIES[0]
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = _oracle(topology, landmarks)
    actual = build_substrate_tables(
        topology,
        landmarks,
        storage=str(tmp_path / "spt"),
        vicinity_storage="mmap",
        persist=False,
    )
    _assert_identical_slabs(expected, actual)


def test_landmark_only_build_matches_from_components():
    """S4's own substrate: no vicinity slabs."""
    family, topology = FAMILIES[1]
    n = topology.num_nodes
    landmarks = select_landmarks(n, seed=2)
    spts = landmark_spts(topology, landmarks)
    closest = closest_landmarks(spts, n)
    expected = from_components(n, spts, closest, None)
    actual = build_substrate_tables(
        topology, landmarks, include_vicinity=False
    )
    _assert_identical_slabs(expected, actual)


@pytest.mark.parametrize("family,topology", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_injected_vicinities_match_slab_direct(family, topology):
    """Vicinity rows set on landmark-only tables in place of the builder's
    vicinity phase, then adopted by ``NDDiscoRouting.from_tables``."""
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = NDDiscoRouting(topology, landmarks=landmarks)
    tables = build_substrate_tables(
        topology, landmarks, include_vicinity=False
    )
    tables.vicinity = compute_vicinities(topology)
    injected = NDDiscoRouting.from_tables(topology, tables, expected.names)
    _assert_identical_slabs(expected.tables, injected.tables)


def test_injected_vicinities_must_cover_every_node():
    family, topology = FAMILIES[1]
    tables = build_substrate_tables(
        topology,
        select_landmarks(topology.num_nodes, seed=2),
        include_vicinity=False,
    )
    tables.vicinity = compute_vicinities(gnm_random_graph(20, seed=1))
    names = [name_for_node(v) for v in range(topology.num_nodes)]
    with pytest.raises(ValueError, match="no vicinity table over"):
        NDDiscoRouting.from_tables(topology, tables, names)


def test_build_stats_and_progress_hooks():
    family, topology = FAMILIES[0]
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    stats: dict = {}
    lines: list[str] = []
    build_substrate_tables(
        topology, landmarks, stats=stats, progress=lines.append
    )
    assert stats["spt_seconds"] >= 0.0
    assert stats["vicinity_seconds"] >= 0.0
    assert stats["slab_bytes"] > 0
    assert any("landmark SPTs" in line for line in lines)
    assert any("vicinities" in line for line in lines)


def test_rejects_empty_and_out_of_range_landmarks():
    family, topology = FAMILIES[0]
    with pytest.raises(ValueError):
        build_substrate_tables(topology, [])
    with pytest.raises(ValueError):
        build_substrate_tables(topology, [topology.num_nodes])


def _assert_balls_match_dict_transport(**build_options):
    family, topology = FAMILIES[2]
    n = topology.num_nodes
    landmarks = select_landmarks(n, seed=2)
    spts = landmark_spts(topology, landmarks)
    _, closest_dist = closest_landmarks(spts, n)
    radii = list(closest_dist)
    expected = NodeSearchTables.from_searches(
        [
            reference.dijkstra_radius(topology, node, radius)
            for node, radius in enumerate(radii)
        ]
    )
    actual = build_ball_tables(topology, radii, **build_options)
    assert bytes(expected.offsets) == bytes(actual.offsets)
    assert bytes(expected.members) == bytes(actual.members)
    assert bytes(expected.dists) == bytes(actual.dists)
    assert bytes(expected.parents) == bytes(actual.parents)


def test_ball_tables_match_dict_transport():
    _assert_balls_match_dict_transport()


# -- in-kernel thread fan-out ------------------------------------------------
# The batched C entry points loop sources inside the kernel and fan them
# over a pthread pool; every width must reproduce the single-thread build
# byte for byte, on RAM arrays and on file-backed slab directories alike.


@pytest.fixture(scope="module")
def thread_oracles():
    family, topology = FAMILIES[0]
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    serial = build_substrate_tables(
        topology, landmarks, threads=1
    )
    return topology, landmarks, serial


@pytest.mark.parametrize("storage", ["array", "mmap-dir"])
@pytest.mark.parametrize("threads", [2, 3, 8])
def test_threaded_build_matches_serial_and_pool(
    threads, storage, thread_oracles, tmp_path
):
    topology, landmarks, serial = thread_oracles
    kwargs = {}
    if storage == "mmap-dir":
        kwargs["storage"] = str(tmp_path / f"slabs-{threads}")
    actual = build_substrate_tables(
        topology, landmarks, threads=threads, **kwargs
    )
    _assert_identical_slabs(serial, actual)
    if storage == "mmap-dir":
        attached = SubstrateTables.from_mmap(kwargs["storage"])
        _assert_identical_slabs(serial, attached)


@pytest.mark.parametrize("family,topology", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_threaded_build_matches_dict_path(family, topology):
    """threads=2 against the dict-mediated oracle, once per kernel family."""
    landmarks = select_landmarks(topology.num_nodes, seed=2)
    expected = _oracle(topology, landmarks)
    actual = build_substrate_tables(
        topology, landmarks, threads=2
    )
    _assert_identical_slabs(expected, actual)


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_ball_tables_threads_match_dict_transport(threads):
    _assert_balls_match_dict_transport(threads=threads)


def test_cluster_sizes_match_membership_double_loop():
    family, topology = FAMILIES[0]
    n = topology.num_nodes
    landmarks = select_landmarks(n, seed=2)
    spts = landmark_spts(topology, landmarks)
    _, closest_dist = closest_landmarks(spts, n)
    balls = build_ball_tables(topology, list(closest_dist))
    expected = [0] * n
    for node in range(n):
        row = balls.members[balls.offsets[node] : balls.offsets[node + 1]]
        for member in row:
            if member != node:
                expected[member] += 1
    actual = cluster_sizes_from_members(balls.members, n)
    assert list(actual) == expected
