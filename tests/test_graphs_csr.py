"""Differential tests: CSR row drivers vs the dict-based oracle.

The CSR subsystem (:mod:`repro.graphs.csr`) must be a pure performance
change: for every C kernel a topology's weight profile admits and for the
Python tier (:func:`oracles.reference_paths.every_search`), every topology
family, and every truncation mode, the rows the drivers return -- distances
*and* parents -- must match the reference implementation bit-for-bit,
including the shared equal-distance smaller-predecessor tie-break.
"""

from __future__ import annotations

import os
import random
import stat
import tempfile
import weakref
from array import array
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_paths as reference
from oracles.reference_paths import every_search
from repro.graphs import _ckernels
from repro.graphs._ckernels import load_kernels
from repro.graphs.csr import kernel_threads, tree_path
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    ring_graph,
    two_level_tree,
)
from repro.graphs import topology as topology_module
from repro.graphs.topology import Topology
from small_graphs import grid_graph, star_graph
from tiers import kernel_tier, needs_c


def _families() -> dict:
    """Topology families covering unit weights, real weights, and tie-heavy
    regular structure."""
    return {
        "gnm": gnm_random_graph(90, seed=3, average_degree=6.0),
        "geometric": geometric_random_graph(90, seed=4, average_degree=7.0),
        "grid": grid_graph(9, 10),
        "two-level-tree": two_level_tree(8),
    }


@pytest.fixture(params=list(_families()))
def family(request):
    return _families()[request.param]


class TestDifferential:
    """Every search of each family against the oracle, one driver per test
    (on unit weights the C tier runs all three kernels: BFS, the bucket
    queue and the heap)."""

    def test_spt_rows_match_reference(self, family, tier):
        n = family.num_nodes
        for csr in every_search(family, tier=tier).values():
            for source in range(0, n, 7):
                distances, parents = reference.dijkstra(family, source)
                dist_row, parent_row = csr.spt_rows(source)
                assert dist_row == [distances.get(v, 0.0) for v in range(n)]
                assert parent_row == [parents.get(v, -1) for v in range(n)]

    def test_dijkstra_with_targets_matches_reference(self, family, tier):
        for csr in every_search(family, tier=tier).values():
            rng = random.Random(5)
            for source in range(0, family.num_nodes, 11):
                targets = rng.sample(range(family.num_nodes), 6)
                expected = reference.dijkstra(
                    family, source, targets=targets
                )[0]
                assert csr.batched_target_distances(
                    [(source, target) for target in targets]
                ) == {(source, target): expected[target] for target in targets}

    def test_k_nearest_matches_reference(self, family, tier):
        for csr in every_search(family, tier=tier).values():
            reference.assert_matches_oracle(
                family,
                csr,
                range(0, family.num_nodes, 9),
                ks=(1, 2, 9, 30, family.num_nodes),
            )

    def test_radius_matches_reference(self, family, tier):
        for csr in every_search(family, tier=tier).values():
            reference.assert_matches_oracle(
                family,
                csr,
                range(0, family.num_nodes, 9),
                radii=(0.0, 1.0, 2.0, 2.5, 4.0, 100.0),
            )

    def test_heap_kernel_matches_bfs_on_unit_weights(self, tier):
        # On a unit-weight graph the C tier runs its heap and bucket queue
        # beside BFS, and the Python tier its heap: all must produce the
        # oracle's rows.
        topology = gnm_random_graph(80, seed=6, average_degree=5.0)
        assert topology.weight_profile().unit
        for csr in every_search(topology, tier=tier).values():
            reference.assert_matches_oracle(
                topology,
                csr,
                range(0, 80, 7),
                ks=(1, 11, 80),
                radii=(0.0, 2.0, 3.0),
            )

    def test_batched_target_distances_match_reference(self, family, tier):
        rng = random.Random(9)
        pairs = [
            (rng.randrange(family.num_nodes), rng.randrange(family.num_nodes))
            for _ in range(40)
        ]
        for csr in every_search(family, tier=tier).values():
            assert csr.batched_target_distances(
                pairs
            ) == reference.all_pairs_sampled_distances(family, pairs)


class TestSharedTieBreak:
    """The equal-distance smaller-predecessor rule, in every row driver.

    On this diamond, node 3 is reachable at distance 2 through both 1 and 2;
    the deterministic choice is predecessor 1.  The seed implementation only
    guaranteed this for the full search.
    """

    @pytest.fixture()
    def diamond(self) -> Topology:
        return Topology.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_all_variants_agree_on_tied_predecessor(self, diamond, tier):
        for csr in every_search(diamond, tier=tier).values():
            _, full = reference.spt_search(csr, 0)
            _, near = reference.k_nearest_search(csr, 0, 4)
            _, ball = reference.radius_search(csr, 0, 2.0, inclusive=True)
            assert full[3] == 1
            assert near == full
            assert ball == full

    def test_weighted_ties_resolved_identically(self, tier):
        # Two equal-cost weighted paths 0->1->4 and 0->2->4 (cost 3.0), plus
        # a decoy: variants must pick predecessor 1 for node 4.
        topology = Topology.from_edges(
            5,
            [(0, 1, 1.0), (0, 2, 2.0), (1, 4, 2.0), (2, 4, 1.0), (0, 3, 5.0)],
        )
        for csr in every_search(topology, tier=tier).values():
            _, full = reference.spt_search(csr, 0)
            _, near = reference.k_nearest_search(csr, 0, 5)
            _, ball = reference.radius_search(csr, 0, 10.0)
            assert full[4] == 1
            assert near == full
            assert ball == full

    def test_variants_agree_on_random_unit_graphs(self, tier):
        # Unit-weight random graphs are tie-heavy; an untruncated k-nearest /
        # radius search must reproduce the full search's predecessor map.
        for seed in range(5):
            topology = gnm_random_graph(60, seed=seed, average_degree=5.0)
            for csr in every_search(topology, tier=tier).values():
                distances, full = reference.spt_search(csr, 0)
                _, near = reference.k_nearest_search(
                    csr, 0, topology.num_nodes
                )
                _, ball = reference.radius_search(
                    csr, 0, max(distances.values()), inclusive=True
                )
                assert near == full
                assert ball == full


class TestTreePath:
    def test_walks_parents_from_the_root(self):
        _, parent = Topology.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 4.0), (2, 3, 1.0)]
        ).csr().spt_rows(0)
        assert tree_path(parent, 0, 3) == [0, 1, 2, 3]
        assert tree_path(parent, 0, 0) == [0]

    def test_row_at_an_offset(self):
        rows = array("q", [-1, 0, 1, 1, -1, 1])  # a path rooted at 0, a star at 1
        assert tree_path(rows, 0, 2) == [0, 1, 2]
        assert tree_path(rows, 1, 2, base=3) == [1, 2]
        assert tree_path(rows, 1, 0, base=3) == [1, 0]

    def test_off_the_tree_raises(self):
        _, parent = Topology.from_edges(4, [(0, 1)]).csr().spt_rows(0)
        with pytest.raises(ValueError, match="not reachable"):
            tree_path(parent, 0, 3)

    def test_parent_cycle_raises(self):
        with pytest.raises(ValueError, match="not reachable"):
            tree_path([2, 2, 1], 0, 1)


class TestCSRCache:
    def test_snapshot_is_cached(self):
        topology = gnm_random_graph(30, seed=1, average_degree=4.0)
        assert topology.csr() is topology.csr()

    def test_a_foreign_entry_under_the_id_is_not_served(self, monkeypatch):
        # An id outlives its object, so the cache may hold, under a live
        # topology's id, another topology's entry: the live topology gets
        # a CSR of its own, and keeps it.
        topology = Topology.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        foreign = Topology.from_edges(3, [(0, 1), (1, 2)])
        monkeypatch.setitem(
            topology_module._CSR_CACHE,
            id(topology),
            (weakref.ref(foreign), foreign.fresh_csr()),
        )
        csr = topology.csr()
        assert csr.num_nodes == 5
        assert csr.spt_rows(0)[0] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert topology.csr() is csr

    def test_unit_weight_detection(self):
        unit = Topology.from_edges(3, [(0, 1), (1, 2)])
        weighted = Topology.from_edges(3, [(0, 1), (1, 2, 2.5)])
        assert unit.csr().profile.unit
        assert not weighted.csr().profile.unit


class TestEngineSwitch:
    """The public API against the oracle.  (There is no switch any more;
    the class keeps its name so the surviving test keeps its id.)"""

    def test_public_api_identical_across_engines(self):
        topology = geometric_random_graph(70, seed=8, average_degree=6.0)
        csr = topology.csr()
        pairs = [(0, 5), (3, 40), (3, 9), (22, 61)]
        expected = (
            reference.dijkstra(topology, 3),
            reference.dijkstra_k_nearest(topology, 3, 12),
            reference.dijkstra_radius(topology, 3, 2.0),
            reference.all_pairs_sampled_distances(topology, pairs),
        )
        actual = (
            reference.spt_search(csr, 3),
            reference.k_nearest_search(csr, 3, 12),
            reference.radius_search(csr, 3, 2.0),
            csr.batched_target_distances(pairs),
        )
        assert actual == expected


class TestBatchedDrivers:
    """Row ``i`` of a batch driver is the one-source search of source ``i``."""

    def test_batched_spt_matches_single(self):
        topology = gnm_random_graph(50, seed=3, average_degree=5.0)
        csr = topology.csr()
        sources = [0, 7, 21]
        dist = array("d", bytes(8 * 50 * len(sources)))
        parent = array("q", bytes(8 * 50 * len(sources)))
        csr.spt_rows_batch_into(sources, dist, parent)
        for index, source in enumerate(sources):
            rows = (
                dist[50 * index : 50 * (index + 1)].tolist(),
                parent[50 * index : 50 * (index + 1)].tolist(),
            )
            assert rows == csr.spt_rows(source)
            distances, predecessors = reference.dijkstra(topology, source)
            assert rows[0] == [distances[node] for node in range(50)]
            assert rows[1] == [predecessors.get(node, -1) for node in range(50)]

    def test_batched_k_nearest_matches_single(self):
        topology = geometric_random_graph(40, seed=5, average_degree=5.0)
        csr = topology.csr()
        batched = _flat_rows(csr.k_nearest_batch_flat(7))
        for node in range(40):
            assert batched[node] == _settle_row(
                reference.dijkstra_k_nearest(topology, node, 7)
            )

    def test_batched_radius_matches_single(self):
        topology = gnm_random_graph(40, seed=6, average_degree=5.0)
        csr = topology.csr()
        radii = [1.0 + (node % 3) for node in range(40)]
        batched = _flat_rows(csr.radius_batch_flat(radii))
        for node in range(40):
            assert batched[node] == _settle_row(
                reference.dijkstra_radius(topology, node, radii[node])
            )

    def test_batched_radius_rejects_negative(self):
        topology = gnm_random_graph(10, seed=6, average_degree=3.0)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            topology.csr().radius_batch_flat([-1.0] * 10)

    def test_batched_radius_rejects_short_radii(self):
        topology = gnm_random_graph(10, seed=6, average_degree=3.0)
        with pytest.raises(ValueError):
            topology.csr().radius_batch_flat([1.0] * 9)
        with pytest.raises(ValueError):
            topology.csr().radius_batch_flat([1.0] * 4, nodes=[0, 1, 2])

    def test_parallel_radius_length_mismatch(self):
        topology = gnm_random_graph(10, seed=8, average_degree=3.0)
        with pytest.raises(ValueError):
            topology.csr().radius_batch_flat([1.0] * 3, threads=2)

    def test_batched_radius_node_subset(self):
        topology = gnm_random_graph(10, seed=6, average_degree=3.0)
        csr = topology.csr()
        batched = _flat_rows(csr.radius_batch_flat([1.0, 2.0], nodes=[7, 2]))
        assert batched == [
            _settle_row(reference.dijkstra_radius(topology, 7, 1.0)),
            _settle_row(reference.dijkstra_radius(topology, 2, 2.0)),
        ]


def _flat_rows(flat) -> list[list[tuple[int, float, int]]]:
    """``(member, distance, parent)`` per entry, one list per batch row."""
    offsets, members, dists, parents = flat
    return [
        list(zip(members[lo:hi], dists[lo:hi], parents[lo:hi]))
        for lo, hi in zip(offsets, offsets[1:])
    ]


def _settle_row(search) -> list[tuple[int, float, int]]:
    """An oracle search in the shape of :func:`_flat_rows` (the dicts
    iterate in settle order; the source has no predecessor)."""
    distances, predecessors = search
    return [
        (node, distance, predecessors.get(node, -1))
        for node, distance in distances.items()
    ]


def _batch_graphs() -> dict:
    """One graph per C kernel: BFS, Dial buckets, 4-ary heap."""
    return {
        "unit": gnm_random_graph(60, seed=11, average_degree=5.0),
        "quantized": geometric_random_graph(
            60, seed=12, average_degree=6.0, latency_quantum=0.25
        ),
        "irregular": geometric_random_graph(60, seed=13, average_degree=6.0),
    }


BATCH_GRAPHS = _batch_graphs()


def _spt_batch(csr, sources, *, threads, fill=0.0):
    n = csr.num_nodes
    dist = array("d", bytes(8 * n * len(sources)))
    parent = array("q", bytes(8 * n * len(sources)))
    closest_dist = array("d", [inf]) * n
    closest = array("q", [-1]) * n
    csr.spt_rows_batch_into(
        sources,
        dist,
        parent,
        fill=fill,
        closest_dist=closest_dist,
        closest_landmark=closest,
        threads=threads,
    )
    return dist, parent, closest_dist, closest


def _k_nearest_batch(csr, k, sources, *, base, threads):
    capacity = base + len(sources) * min(k, csr.num_nodes)
    members = array("q", [-9]) * capacity
    dists = array("d", [-9.0]) * capacity
    parents = array("q", [-9]) * capacity
    offsets = array("q", [base])
    position = csr.k_nearest_batch_into(
        k, sources, members, dists, parents, offsets,
        base=base, threads=threads,
    )
    return position, offsets, members, dists, parents


def _same_bytes(expected, actual) -> None:
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert bytes(left) == bytes(right)


@needs_c
@pytest.mark.parametrize("mode", [1, 3, "refused"])
class TestBatchDrivers:
    """The batch drivers, C tier vs the pure-Python tier, byte for byte.

    Widths 1 and 3 are the in-kernel batch (3 does not divide the source
    counts, so chunk boundaries fall mid-batch).  ``"refused"`` is the one
    fallback: the kernel call returns ``-1``, the driver warns once, naming
    the entry point, and runs the Python tier's per-source loop, which must
    produce the same bytes.
    """

    @pytest.fixture(autouse=True)
    def _refuse(self, refuse_batch_kernels):
        self._refused = refuse_batch_kernels

    def _native(self, topology, mode):
        if mode == "refused":
            return self._refused(topology), 1
        with kernel_tier("c"):
            return topology.fresh_csr(), mode

    @staticmethod
    def _driven(mode, entry, call):
        if mode != "refused":
            return call()
        with pytest.warns(
            RuntimeWarning, match=f"{entry} could not allocate"
        ) as caught:
            result = call()
        assert len(caught) == 1
        return result

    @pytest.mark.parametrize("name", list(BATCH_GRAPHS))
    def test_spt_rows_with_closest_fold(self, name, mode):
        topology = BATCH_GRAPHS[name]
        sources = [2, 9, 17, 31, 44, 58]
        with kernel_tier("python"):
            expected = _spt_batch(topology.fresh_csr(), sources, threads=None)
        native, threads = self._native(topology, mode)
        actual = self._driven(
            mode,
            "spt_rows_batch",
            lambda: _spt_batch(native, sources, threads=threads),
        )
        _same_bytes(expected, actual)
        oracle = reference.dijkstra(topology, 17)[0]
        n = topology.num_nodes
        assert list(actual[0][2 * n : 3 * n]) == [oracle[v] for v in range(n)]
        assert set(actual[3]) <= set(sources)

    @pytest.mark.parametrize("name", list(BATCH_GRAPHS))
    def test_k_nearest_with_base_and_source_subset(self, name, mode):
        topology = BATCH_GRAPHS[name]
        sources = [40, 3, 59, 0, 21, 22, 7]
        with kernel_tier("python"):
            python = topology.fresh_csr()
        native, threads = self._native(topology, mode)
        expected = _k_nearest_batch(python, 9, sources, base=5, threads=None)
        actual = self._driven(
            mode,
            "k_nearest_batch",
            lambda: _k_nearest_batch(
                native, 9, sources, base=5, threads=threads
            ),
        )
        assert actual[0] == expected[0] == 5 + 9 * len(sources)
        _same_bytes(expected[1:], actual[1:])
        assert list(actual[2][:5]) == [-9] * 5  # below ``base``: untouched
        assert list(actual[1]) == [5 + 9 * i for i in range(len(sources) + 1)]
        flat = self._driven(
            mode,
            "k_nearest_batch",
            lambda: native.k_nearest_batch_flat(9, sources, threads=threads),
        )
        _same_bytes(python.k_nearest_batch_flat(9, sources), flat)
        assert bytes(flat[1]) == bytes(actual[2][5:])
        assert list(flat[1][9:18]) == list(
            reference.dijkstra_k_nearest(topology, 3, 9)[0]
        )

    @pytest.mark.parametrize("inclusive", [False, True], ids=["strict", "inclusive"])
    @pytest.mark.parametrize("name", list(BATCH_GRAPHS))
    def test_radius_rows(self, name, inclusive, mode):
        topology = BATCH_GRAPHS[name]
        n = topology.num_nodes
        # Multiples of the quantum (and of the unit hop), so nodes sit at
        # exactly the boundary the two modes disagree on.
        radii = [2.0 * (node % 5) for node in range(n)]
        with kernel_tier("python"):
            python = topology.fresh_csr()
        expected = python.radius_batch_flat(radii, inclusive=inclusive)
        native, threads = self._native(topology, mode)
        actual = self._driven(
            mode,
            "radius_batch",
            lambda: native.radius_batch_flat(
                radii, inclusive=inclusive, threads=threads
            ),
        )
        _same_bytes(expected, actual)
        subset = [50, 4, 33]
        _same_bytes(
            python.radius_batch_flat(
                [8.0, 4.0, 6.0], subset, inclusive=inclusive
            ),
            self._driven(
                mode,
                "radius_batch",
                lambda: native.radius_batch_flat(
                    [8.0, 4.0, 6.0], subset,
                    inclusive=inclusive, threads=threads,
                ),
            ),
        )
        if name != "irregular":
            other = python.radius_batch_flat(radii, inclusive=not inclusive)
            assert bytes(other[1]) != bytes(actual[1])

    @pytest.mark.parametrize("name", list(BATCH_GRAPHS))
    def test_target_distances(self, name, mode):
        topology = BATCH_GRAPHS[name]
        pairs = [(40, 3), (40, 59), (0, 21), (22, 7), (7, 22), (3, 3)]
        with kernel_tier("python"):
            expected = topology.fresh_csr().batched_target_distances(pairs)
        native, threads = self._native(topology, mode)
        actual = self._driven(
            mode,
            "target_distances_batch",
            lambda: native.batched_target_distances(pairs, threads=threads),
        )
        assert actual == expected
        assert actual[(40, 59)] == reference.dijkstra(topology, 40)[0][59]

    @pytest.mark.parametrize("weight", [1.0, 0.3], ids=["unit", "irregular"])
    def test_disconnected_short_rows_and_fill(self, weight, mode):
        # Components {0,1,2}, {3,4}, {5}: every search stops short of n,
        # so stale arena entries from the previous source must be repaired.
        topology = Topology.from_edges(
            6, [(0, 1, weight), (1, 2, weight), (3, 4, weight)]
        )
        with kernel_tier("python"):
            python = topology.fresh_csr()
        native, threads = self._native(topology, mode)
        sources = [0, 3, 5]
        expected = _spt_batch(python, sources, threads=None, fill=99.0)
        actual = self._driven(
            mode,
            "spt_rows_batch",
            lambda: _spt_batch(native, sources, threads=threads, fill=99.0),
        )
        _same_bytes(expected, actual)
        dist, parent, closest_dist, closest = actual
        assert list(dist[6:12]) == [99.0, 99.0, 99.0, 0.0, weight, 99.0]
        assert list(parent[6:12]) == [-1, -1, -1, -1, 3, -1]
        assert list(closest) == [0, 0, 0, 3, 3, 5]
        assert closest_dist[5] == 0.0

        everyone = list(range(6))
        expected = _k_nearest_batch(python, 4, everyone, base=0, threads=None)
        actual = self._driven(
            mode,
            "k_nearest_batch",
            lambda: _k_nearest_batch(
                native, 4, everyone, base=0, threads=threads
            ),
        )
        position, offsets, members = actual[:3]
        assert position == expected[0] == 3 * 3 + 2 * 2 + 1
        assert list(offsets) == [0, 3, 6, 9, 11, 13, 14]
        for left, right in zip(expected[1:], actual[1:]):
            assert bytes(left[:position]) == bytes(right[:position])
        assert list(members[9:14]) == [3, 4, 4, 3, 5]
        flat = self._driven(
            mode,
            "k_nearest_batch",
            lambda: native.k_nearest_batch_flat(4, threads=threads),
        )
        assert len(flat[1]) == position
        _same_bytes(python.k_nearest_batch_flat(4), flat)


@needs_c
def test_kernel_library_exports_no_single_source_search():
    """Every C search is batched: the three kernels are static in
    ``_kernels.c``, reached only through the batch entry points."""
    lib = load_kernels()
    for name in ("spt_heap4", "spt_dial", "spt_bfs"):
        assert not hasattr(lib, name), name
    assert hasattr(lib, "k_nearest_batch")


class TestTierSwitch:
    """``REPRO_NO_CKERNELS`` is the one tier switch, read when a snapshot is
    built; the weight profile picks the kernel."""

    @needs_c
    def test_a_snapshot_keeps_the_tier_it_was_built_on(self):
        topology = gnm_random_graph(40, seed=5, average_degree=4.0)
        expected = reference.dijkstra(topology, 3)
        with kernel_tier("python"):
            python = topology.fresh_csr()
            with kernel_tier("c"):
                native = topology.fresh_csr()
            # Built with the variable cleared, searched with it set: the C
            # arena ran, and no Python row slab was carved.
            assert (native.tier, native.kernel) == ("c", "bfs")
            assert reference.spt_search(native, 3) == expected
            assert native._c is not None and native._arc is None
        with kernel_tier("c"):
            # Built with the variable set, searched with it cleared.
            assert (python.tier, python.kernel) == ("python", "heap")
            assert reference.spt_search(python, 3) == expected
            assert python._arc is not None and python._c is None

    def test_the_tier_fixture_sets_the_switch(self, tier):
        assert bool(os.environ.get("REPRO_NO_CKERNELS")) == (tier == "python")
        assert ring_graph(4).fresh_csr().tier == tier

    def test_the_switch_gives_back_the_callers_value(self):
        before = os.environ.get("REPRO_NO_CKERNELS")
        with kernel_tier("python"):
            with kernel_tier("c"):
                assert "REPRO_NO_CKERNELS" not in os.environ
            assert os.environ.get("REPRO_NO_CKERNELS") == "1"
        with kernel_tier("c"):
            with pytest.raises(RuntimeError):
                with kernel_tier("python"):
                    assert os.environ.get("REPRO_NO_CKERNELS") == "1"
                    raise RuntimeError("the body fails")
            assert "REPRO_NO_CKERNELS" not in os.environ
        with pytest.raises(ValueError, match="unknown tier"):
            with kernel_tier("fortran"):
                pass
        assert os.environ.get("REPRO_NO_CKERNELS") == before


class TestKernelCache:
    """Where the package directory is not writable, the shared object is
    cached in a per-user directory under the shared temp directory; a
    cached object is loaded only if no other user can have put it there."""

    @pytest.fixture()
    def compile_object(self, tmp_path, monkeypatch):
        """``_compile`` with an unwritable package directory, ``tmp_path``
        as the temp directory and a compiler that writes an empty object."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        compiler = tmp_path / "cc"
        compiler.write_text(
            '#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n: > "$2"\n'
        )
        compiler.chmod(0o755)
        monkeypatch.setattr(_ckernels, "_BUILD_DIR", str(blocker / "_build"))
        monkeypatch.setattr(_ckernels, "_compiler", lambda: str(compiler))
        monkeypatch.setattr(_ckernels, "_build_error", None)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return lambda: _ckernels._compile(_ckernels._SOURCE)

    def test_a_private_object_is_reused(self, compile_object, tmp_path):
        target = Path(compile_object())
        assert target.parent == tmp_path / f"repro-kernels-{os.getuid()}"
        assert stat.S_IMODE(target.parent.stat().st_mode) == 0o700
        target.write_bytes(b"cached")
        assert compile_object() == str(target)
        assert target.read_bytes() == b"cached"

    def test_a_writable_object_is_rebuilt(self, compile_object):
        target = Path(compile_object())
        target.write_bytes(b"planted")
        target.chmod(0o666)
        assert compile_object() == str(target)
        assert target.read_bytes() == b""
        assert stat.S_IMODE(target.stat().st_mode) == 0o755

    def test_a_writable_directory_is_refused(self, compile_object):
        target = Path(compile_object())
        target.parent.chmod(0o777)
        assert compile_object() is None
        assert "not private" in _ckernels.build_error()

    def test_a_foreign_directory_is_refused(
        self, compile_object, tmp_path, monkeypatch
    ):
        other = os.getuid() + 1
        (tmp_path / f"repro-kernels-{other}").mkdir(mode=0o700)
        monkeypatch.setattr(os, "getuid", lambda: other)
        assert compile_object() is None
        assert "not private" in _ckernels.build_error()


@pytest.fixture()
def tier_csr(tier):
    """A 20-node snapshot on each tier."""
    return gnm_random_graph(20, seed=1, average_degree=4.0).fresh_csr()


class TestKernelValidation:
    def test_batch_flat_validates_k_before_sizing(self):
        topology = gnm_random_graph(10, seed=1, average_degree=3.0)
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be > 0, got {k}"):
                topology.csr().k_nearest_batch_flat(k)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_garbage_kernel_threads_env_raises(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", value)
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS") as error:
            kernel_threads()
        assert repr(value) in str(error.value)
        assert kernel_threads(2) == 2  # an explicit width never reads it
        # The pure-Python tier runs no threads and still refuses the value.
        with kernel_tier("python"):
            python = ring_graph(5).fresh_csr()
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
            python.k_nearest_batch_flat(2)
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert kernel_threads() == 3

    @pytest.mark.parametrize("value", [0, -3, 1.5, "2"])
    def test_garbage_kernel_threads_argument_raises(self, value, tier_csr):
        """The argument follows the variable's rule, on both tiers."""
        with pytest.raises(ValueError, match="threads must be a positive"):
            kernel_threads(value)
        n = tier_csr.num_nodes
        calls = [
            lambda: tier_csr.spt_rows_batch_into(
                [0], array("d", bytes(8 * n)), array("q", bytes(8 * n)),
                threads=value,
            ),
            lambda: tier_csr.k_nearest_batch_flat(3, threads=value),
            lambda: tier_csr.radius_batch_flat([1.0] * n, threads=value),
            lambda: tier_csr.batched_target_distances([(0, 1)], threads=value),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="threads must be a positive"):
                call()

    def test_short_members_buffer_raises_before_writing(self, tier_csr):
        # One entry short used to select the per-source loop, write all but
        # the last row and die on a memoryview assignment.
        k, sources = 4, list(range(10))
        buffers = {
            "members": array("q", [-9]) * 40,
            "dists": array("d", [-9.0]) * 40,
            "parents": array("q", [-9]) * 40,
        }
        offsets = array("q", [0])
        for name in buffers:
            short = dict(buffers, **{name: buffers[name][:39]})
            with pytest.raises(ValueError, match=f"{name} must hold at least"):
                tier_csr.k_nearest_batch_into(k, sources, **short, offsets=offsets)
        with pytest.raises(ValueError, match="members must hold at least"):
            tier_csr.k_nearest_batch_into(
                k, sources, **buffers, offsets=offsets, base=1
            )
        assert list(offsets) == [0]
        for name, buffer in buffers.items():
            assert set(buffer) == {-9}, name
        assert tier_csr.k_nearest_batch_into(
            k, sources, **buffers, offsets=offsets
        ) == 40

    def test_wrong_item_type_raises_before_writing(self, tier_csr):
        # An int64 buffer where doubles go used to come back holding double
        # bit patterns (4607182418800017408 for 1.0).
        n = tier_csr.num_nodes
        ints = array("q", [-9]) * (2 * n)
        doubles = array("d", [-9.0]) * (2 * n)
        with pytest.raises(TypeError, match="dist_out must be a contiguous"):
            tier_csr.spt_rows_batch_into([0, 1], ints, ints)
        with pytest.raises(TypeError, match="parent_out must be a contiguous"):
            tier_csr.spt_rows_batch_into([0, 1], doubles, doubles)
        with pytest.raises(TypeError, match="closest_dist must be a contiguous"):
            tier_csr.spt_rows_batch_into(
                [0, 1], doubles, ints,
                closest_dist=ints[:n], closest_landmark=ints[:n],
            )
        with pytest.raises(ValueError, match="closest_landmark must hold exactly"):
            tier_csr.spt_rows_batch_into(
                [0, 1], doubles, ints,
                closest_dist=doubles[:n], closest_landmark=ints[: n - 1],
            )
        with pytest.raises(TypeError, match="dists must be a contiguous"):
            tier_csr.k_nearest_batch_into(
                2, [0, 1], ints, ints, ints, array("q", [0])
            )
        with pytest.raises(TypeError, match="members must be a buffer"):
            tier_csr.k_nearest_batch_into(
                2, [0, 1], [0] * 4, doubles, ints, array("q", [0])
            )
        assert set(ints) == {-9} and set(doubles) == {-9.0}

    def test_read_only_buffer_raises(self, tier_csr):
        n = tier_csr.num_nodes
        frozen = memoryview(bytes(8 * n)).cast("d")
        with pytest.raises(TypeError, match="dist_out must be writable"):
            tier_csr.spt_rows_batch_into([0], frozen, array("q", bytes(8 * n)))
        with pytest.raises(TypeError, match="parents must be writable"):
            tier_csr.k_nearest_batch_into(
                1,
                [0],
                array("q", [0]),
                array("d", [0.0]),
                memoryview(bytes(8)).cast("q"),
                array("q", [0]),
            )

    def test_source_out_of_range(self, tier_csr):
        for source in (20, -1):
            with pytest.raises(ValueError, match="out of range"):
                tier_csr.spt_rows(source)
            with pytest.raises(ValueError, match="out of range"):
                tier_csr.k_nearest_batch_flat(3, [source])
            with pytest.raises(ValueError, match="out of range"):
                tier_csr.radius_batch_flat([1.0], [source])

    def test_invalid_k_and_radius(self, tier_csr):
        with pytest.raises(ValueError, match="k must be > 0"):
            tier_csr.k_nearest_batch_flat(0, [0])
        with pytest.raises(ValueError, match="radius must be >= 0"):
            tier_csr.radius_batch_flat([-0.5], [0])

    def test_unreachable_target_raises(self):
        topology = Topology.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            topology.csr().batched_target_distances([(0, 3)])

    def test_num_edges(self):
        topology = gnm_random_graph(30, seed=2, average_degree=4.0)
        assert len(topology.csr().neighbors) == 2 * topology.num_edges


class TestPropertyBased:
    """Random graphs, every row driver of every search against the oracle."""

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dijkstra_differential_random_gnm(self, seed):
        topology = gnm_random_graph(30, seed=seed, average_degree=4.0)
        expected = reference.dijkstra(topology, 0)
        for csr in every_search(topology).values():
            assert reference.spt_search(csr, 0) == expected

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=30),
    )
    def test_k_nearest_differential_random_gnm(self, seed, k):
        topology = gnm_random_graph(25, seed=seed, average_degree=4.0)
        expected = _settle_row(reference.dijkstra_k_nearest(topology, 0, k))
        for csr in every_search(topology).values():
            assert _settle_row(reference.k_nearest_search(csr, 0, k)) == expected

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        radius=st.floats(min_value=0.0, max_value=0.6),
        inclusive=st.booleans(),
    )
    def test_radius_differential_random_geometric(self, seed, radius, inclusive):
        topology = geometric_random_graph(25, seed=seed, average_degree=4.0)
        expected = _settle_row(
            reference.dijkstra_radius(topology, 0, radius, inclusive=inclusive)
        )
        for csr in every_search(topology).values():
            assert _settle_row(
                reference.radius_search(csr, 0, radius, inclusive=inclusive)
            ) == expected

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_tie_break_structured_families(self, seed):
        rng = random.Random(seed)
        topology = {
            0: lambda: star_graph(12),
            1: lambda: ring_graph(14),
            2: lambda: grid_graph(4, 5),
            3: lambda: two_level_tree(5),
        }[seed % 4]()
        source = rng.randrange(topology.num_nodes)
        k = rng.randint(1, topology.num_nodes)
        for csr in every_search(topology).values():
            assert reference.spt_search(csr, source) == reference.dijkstra(
                topology, source
            )
            assert _settle_row(
                reference.k_nearest_search(csr, source, k)
            ) == _settle_row(reference.dijkstra_k_nearest(topology, source, k))
