"""Differential tests for the weighted CSR kernels (heap + Dial bucket).

The PR that introduced kernel auto-selection added two weighted kernels --
an indexed 4-ary heap and a Dial-style bucket queue -- each available in a
compiled C tier (when a compiler is present) and a pure-Python tier.  Every
(kernel, tier) combination must be bit-identical to the dict-based reference
engine: distances *and* predecessors, across the row drivers -- full SPT
rows, k-nearest and radius rows, target distances -- on every topology
family the paper evaluates.

This file also pins:

* the :class:`~repro.graphs.csr.WeightProfile` quantum detection and its
  caching/invalidation on :class:`~repro.graphs.topology.Topology`;
* bucket-queue fallback -- irregular float weights must disqualify the
  bucket kernel and auto-select the heap;
* the exact-boundary semantics of ``radius_batch_flat`` on weighted graphs (strict ``<`` by default, ``<=`` with
  ``inclusive=True``), which were previously untested at the boundary;
* the id ordering of BFS frontiers and Dial buckets (``order_ids`` in
  ``_kernels.c``): star / hub shapes whose levels straddle its insertion-sort
  cut-off, need one to three radix bytes, and fill the scratch tail of
  ``order`` to its last slot.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_paths as reference
from repro.graphs._ckernels import load_kernels
from repro.graphs.csr import (
    DIAL_MAX_QUANTA,
    CSRGraph,
    WeightProfile,
    profile_weights,
)
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
    two_level_tree,
)
from repro.graphs.topology import Topology, TopologyBuilder

HAVE_C = load_kernels() is not None

TIERS = [False] + ([True] if HAVE_C else [])
TIER_IDS = ["python"] + (["c"] if HAVE_C else [])


def _quantized_geometric(n: int, seed: int) -> Topology:
    return geometric_random_graph(
        n, seed=seed, average_degree=7.0, latency_quantum=0.25
    )


def _families() -> dict[str, Topology]:
    """Weighted / unit / tie-heavy families for kernel differentials."""
    return {
        "geometric": geometric_random_graph(90, seed=4, average_degree=7.0),
        "geometric-q": _quantized_geometric(90, seed=4),
        "router-level": internet_router_level(90, seed=2),
        "two-level-tree": two_level_tree(8),
    }


def _assert_matches_reference(topology: Topology, csr: CSRGraph) -> None:
    n = topology.num_nodes
    rng = random.Random(17)
    for source in range(0, n, 7):
        full = reference.dijkstra(topology, source)
        assert reference.spt_search(csr, source) == full
        for k in (1, 3, 17, n):
            assert _settle_rows(
                reference.k_nearest_search(csr, source, k)
            ) == _settle_rows(reference.dijkstra_k_nearest(topology, source, k))
        for radius in (0.0, 1.0, 2.5, 30.0):
            for inclusive in (False, True):
                assert _settle_rows(
                    reference.radius_search(
                        csr, source, radius, inclusive=inclusive
                    )
                ) == _settle_rows(
                    reference.dijkstra_radius(
                        topology, source, radius, inclusive=inclusive
                    )
                )
        pairs = [(source, target) for target in rng.sample(range(n), 5)]
        assert csr.batched_target_distances(pairs) == {
            (source, target): full[0][target] for _, target in pairs
        }


class TestKernelTierDifferential:
    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("family", sorted(_families()))
    def test_auto_kernel_matches_reference(self, family, use_c):
        topology = _families()[family]
        csr = topology.fresh_csr(use_c=use_c)
        _assert_matches_reference(topology, csr)

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("kernel", ["heap", "bucket"])
    def test_forced_kernels_match_reference_on_quantized(self, kernel, use_c):
        # Quantized weights admit both kernels; they must agree bit-for-bit
        # with the oracle (and hence with each other).
        topology = _quantized_geometric(80, seed=9)
        csr = topology.fresh_csr(kernel=kernel, use_c=use_c)
        assert csr.kernel == kernel
        _assert_matches_reference(topology, csr)

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    def test_heap_kernel_on_irregular_floats(self, use_c):
        topology = geometric_random_graph(70, seed=11, average_degree=6.0)
        csr = topology.fresh_csr(use_c=use_c)
        assert csr.kernel == "heap"
        _assert_matches_reference(topology, csr)

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    def test_spt_rows_and_target_distances(self, use_c):
        topology = _quantized_geometric(60, seed=5)
        csr = topology.fresh_csr(use_c=use_c)
        n = topology.num_nodes
        for source in (0, 17, 42):
            distances, parents = reference.dijkstra(topology, source)
            dist_row, parent_row = csr.spt_rows(source)
            assert dist_row == [distances.get(v, 0.0) for v in range(n)]
            assert parent_row == [parents.get(v, -1) for v in range(n)]
        rng = random.Random(3)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        assert csr.batched_target_distances(
            pairs
        ) == reference.all_pairs_sampled_distances(topology, pairs)

    def test_empty_target_set_settles_only_source(self):
        # targets=[] stops the Python tier's one-source search (every batch
        # driver's fallback) after settling the source.  The C tier has no
        # one-source entry point, so there is no C twin to hold to it.
        topology = _quantized_geometric(40, seed=8)
        csr = topology.fresh_csr(use_c=False)
        assert csr._search(3, targets=[]) == [3]

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    def test_out_of_range_target_rejected(self, use_c):
        # Regression: out-of-range target ids used to reach the C kernel
        # unvalidated (out-of-bounds write into the target-flag buffer).
        topology = _quantized_geometric(40, seed=8)
        csr = topology.fresh_csr(use_c=use_c)
        with pytest.raises(ValueError):
            csr.batched_target_distances([(0, 10**6)])
        with pytest.raises(ValueError):
            csr.batched_target_distances([(0, -1)])

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    def test_disconnected_graph_contracts(self, use_c):
        topology = Topology.from_edges(5, [(0, 1, 0.5), (2, 3, 1.5)])
        csr = topology.fresh_csr(use_c=use_c)
        assert reference.spt_search(csr, 0) == reference.dijkstra(topology, 0)
        assert reference.k_nearest_search(csr, 2, 5) == reference.dijkstra(
            topology, 2
        )
        dist_row, parent_row = csr.spt_rows(0, fill=-7.0)
        assert dist_row == [0.0, 0.5, -7.0, -7.0, -7.0]
        assert parent_row == [-1, 0, -1, -1, -1]
        with pytest.raises(ValueError):
            csr.batched_target_distances([(0, 4)])

    def test_tiers_agree_after_many_arena_reuses(self):
        # Generation stamping must keep searches independent in both tiers:
        # one width-1 C batch runs every source in one reused arena.
        if not HAVE_C:
            pytest.skip("C kernels unavailable")
        topology = _quantized_geometric(70, seed=13)
        c_csr = topology.fresh_csr(use_c=True)
        py_csr = topology.fresh_csr(use_c=False)
        sources = range(0, 70, 3)
        assert _batch_rows(c_csr, sources, 9) == _batch_rows(py_csr, sources, 9)
        for source in sources:
            assert c_csr.spt_rows(source) == py_csr.spt_rows(source)


class TestBucketFallback:
    def test_irregular_weights_disqualify_bucket(self):
        topology = geometric_random_graph(40, seed=6, average_degree=5.0)
        profile = topology.weight_profile()
        assert profile.quantum is None
        assert not profile.bucket_ok
        assert topology.csr().kernel == "heap"
        with pytest.raises(ValueError):
            topology.fresh_csr(kernel="bucket")

    def test_excessive_weight_ratio_disqualifies_bucket(self):
        # Quantized but with max_weight / quantum beyond the cap.
        topology = Topology.from_edges(
            3, [(0, 1, 0.5), (1, 2, 0.5 * (DIAL_MAX_QUANTA + 1))]
        )
        profile = topology.weight_profile()
        assert profile.quantum is None
        assert topology.csr().kernel == "heap"

    def test_bfs_requires_unit_weights(self):
        topology = Topology.from_edges(3, [(0, 1, 2.0), (1, 2, 2.0)])
        with pytest.raises(ValueError):
            topology.fresh_csr(kernel="bfs")

    def test_unknown_kernel_rejected(self):
        topology = Topology.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            topology.fresh_csr(kernel="fibonacci")


class TestWeightProfile:
    def test_unit_profile(self):
        profile = profile_weights([1.0, 1.0, 1.0])
        assert profile == WeightProfile(True, 1.0, 1.0, 1.0, 1)

    def test_pow2_quantum_detection(self):
        profile = profile_weights([0.5, 2.5, 1.0, 3.75])
        assert profile.quantum == 0.25
        assert profile.max_quanta == 15
        assert not profile.unit

    def test_irregular_floats_have_no_quantum(self):
        assert profile_weights([0.1, 0.2]).quantum is None

    def test_infinite_weight_routes_to_heap(self):
        # Profiling a raw iterable must not crash on inf; no graph takes
        # one: the array entry point rejects it like Topology.add_edge.
        import math
        from array import array

        profile = profile_weights([1.0, math.inf])
        assert profile.quantum is None
        with pytest.raises(ValueError, match="> 0 and finite"):
            Topology.from_edge_arrays(
                3,
                array("q", [0, 1]),
                array("q", [1, 2]),
                array("d", [math.inf, 1.0]),
            )

    def test_empty_profile_is_unit(self):
        assert profile_weights([]).unit

    def test_profile_cached_and_frozen_with_each_edit(self):
        topology = Topology.from_edges(4, [(0, 1, 2.0), (1, 2, 2.0)])
        first = topology.weight_profile()
        assert topology.weight_profile() is first
        assert first.quantum == 2.0
        builder = TopologyBuilder.from_topology(topology)
        builder.add_edge(2, 3, 0.75)
        assert builder.freeze().weight_profile().quantum == 0.25
        # Heavier duplicate edge: the weights do not change.
        builder.add_edge(0, 1, 9.0)
        assert builder.freeze().weight_profile().quantum == 0.25
        assert topology.weight_profile() is first


class TestRadiusBoundary:
    """Exact-boundary semantics of the radius kernels on weighted graphs.

    ``radius_batch_flat`` is strict by default: a node at exactly ``radius``
    is *excluded* (the S4 cluster rule ``d(v, w) < d(w, l_w)``);
    ``inclusive=True`` turns the comparison into ``<=``.  These cases sit a
    node exactly on the boundary, which no earlier test pinned down.
    """

    @pytest.fixture()
    def weighted_path(self) -> Topology:
        # 0 --1.5-- 1 --1.5-- 2 --0.5-- 3: node 2 sits at exactly 3.0.
        return Topology.from_edges(
            4, [(0, 1, 1.5), (1, 2, 1.5), (2, 3, 0.5)]
        )

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("kernel", ["heap", "bucket"])
    def test_exact_boundary_excluded_by_default(
        self, weighted_path, kernel, use_c
    ):
        csr = weighted_path.fresh_csr(kernel=kernel, use_c=use_c)
        distances, _ = reference.radius_search(csr, 0, 3.0)
        assert sorted(distances) == [0, 1]

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    @pytest.mark.parametrize("kernel", ["heap", "bucket"])
    def test_exact_boundary_included_when_inclusive(
        self, weighted_path, kernel, use_c
    ):
        csr = weighted_path.fresh_csr(kernel=kernel, use_c=use_c)
        distances, _ = reference.radius_search(csr, 0, 3.0, inclusive=True)
        assert sorted(distances) == [0, 1, 2]
        assert distances[2] == 3.0

    def test_public_api_matches_reference_at_boundary(self, weighted_path):
        for inclusive in (False, True):
            assert reference.radius_search(
                weighted_path.csr(), 0, 3.0, inclusive=inclusive
            ) == reference.dijkstra_radius(
                weighted_path, 0, 3.0, inclusive=inclusive
            )

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    def test_zero_radius_settles_only_source(self, weighted_path, use_c):
        csr = weighted_path.fresh_csr(use_c=use_c)
        distances, predecessors = reference.radius_search(csr, 1, 0.0)
        assert distances == {1: 0.0}
        assert predecessors == {}

    @pytest.mark.parametrize("use_c", TIERS, ids=TIER_IDS)
    def test_batched_radius_boundary(self, weighted_path, use_c):
        csr = weighted_path.fresh_csr(use_c=use_c)
        radii = [3.0, 1.5, 2.0, 0.5]
        strict = _flat_settle_rows(csr.radius_batch_flat(radii))
        inclusive = _flat_settle_rows(
            csr.radius_batch_flat(radii, inclusive=True)
        )
        for node, radius in enumerate(radii):
            assert strict[node] == _settle_rows(
                reference.dijkstra_radius(weighted_path, node, radius)
            )
            assert inclusive[node] == _settle_rows(
                reference.dijkstra_radius(
                    weighted_path, node, radius, inclusive=True
                )
            )
        # Nodes 0 and 2 sit at exactly 1.5 from source 1: excluded by the
        # strict boundary, included by the inclusive one.
        assert strict[1][0] == [(1, 0.0)]
        assert sorted(node for node, _ in inclusive[1][0]) == [0, 1, 2]


def _star(
    n: int, hub: int, seed: int, *, weights=(1.0,), degree: int | None = None
) -> Topology:
    """Hub joined to ``degree`` other ids (default: all), listed shuffled.

    The hub's adjacency row is in random id order, so the level it opens is
    only in settle order once the kernel has ordered it; when ``degree``
    leaves ids out, each of those hangs off a random leaf (a second level).
    """
    rng = random.Random(seed)
    others = [node for node in range(n) if node != hub]
    rng.shuffle(others)
    leaves = others if degree is None else others[:degree]
    edges = [(hub, leaf, rng.choice(weights)) for leaf in leaves]
    edges += [
        (rng.choice(leaves), node, rng.choice(weights))
        for node in others[len(leaves):]
    ]
    return Topology.from_edges(n, edges)


def _settle_rows(result) -> tuple[list, list]:
    """``(node, dist)`` and ``(node, pred)`` rows of a search, in settle order."""
    distances, predecessors = result
    return list(distances.items()), list(predecessors.items())


def _flat_settle_rows(flat) -> list[tuple[list, list]]:
    """:func:`_settle_rows` of every row of a ``*_batch_flat`` result."""
    offsets, members, dists, parents = flat
    return [
        (
            list(zip(members[start:end], dists[start:end])),
            list(zip(members[start + 1 : end], parents[start + 1 : end])),
        )
        for start, end in zip(offsets, offsets[1:])
    ]


def _batch_rows(csr, sources, k: int | None = None):
    """:func:`_settle_rows` of each source's search, from one width-1
    ``k_nearest_batch_flat`` call (``k = n``: full searches) -- on the C
    tier one arena reused across the sources."""
    k = csr.num_nodes if k is None else k
    return _flat_settle_rows(csr.k_nearest_batch_flat(k, sources, threads=1))


def _assert_same_settle_order(
    topology: Topology, sources, ks, *, kernel: str | None = None
) -> None:
    """Every tier settles ``sources`` like the reference: order, dist, pred."""
    graphs = [
        topology.fresh_csr(kernel=kernel, use_c=use_c)
        for use_c in TIERS
    ]
    expected = [
        _settle_rows(reference.dijkstra(topology, source)) for source in sources
    ]
    for csr in graphs:
        assert _batch_rows(csr, sources) == expected
    for k in ks:
        expected = [
            _settle_rows(reference.dijkstra_k_nearest(topology, source, k))
            for source in sources
        ]
        for csr in graphs:
            # On the C tier the batch runs in a malloc'd arena of exactly n
            # slots, reused across the sources, where the sanitizer leg
            # sees a write past the tail of ``order``.
            assert _batch_rows(csr, sources, k) == expected


#: ``ORDER_INSERTION_MAX`` in ``_kernels.c``: levels up to this wide are
#: insertion-sorted, wider ones take the radix passes.
_INSERTION_MAX = 24


class TestLevelOrdering:
    """BFS frontiers and Dial buckets settle in ascending id order."""

    @pytest.mark.parametrize(
        "leaves",
        [2, _INSERTION_MAX - 1, _INSERTION_MAX, _INSERTION_MAX + 1, 200],
    )
    def test_frontier_widths_around_the_insertion_cutoff(self, leaves):
        # From the hub, level 1 is ``leaves`` wide and fills order's tail to
        # its last slot (settled + width == n); from a leaf, level 2 holds
        # leaves - 1 ids.
        n = leaves + 1
        topology = _star(n, hub=n // 2, seed=leaves)
        assert topology.csr().kernel == "bfs"
        _assert_same_settle_order(
            topology, [n // 2, 0, n - 1], ks=[2, leaves // 2 + 1, n]
        )

    @pytest.mark.parametrize("n", [250, 5000, (1 << 16) + 700])
    def test_ids_of_one_two_and_three_radix_bytes(self, n):
        # The widest case holds ids equal in their low 16 bits (5 and
        # 65541) in one level, so a dropped third pass would misorder them.
        hub = n - 3
        topology = _star(n, hub=hub, seed=n)
        assert list(reference.dijkstra(topology, hub)[0]) == [hub] + [
            node for node in range(n) if node != hub
        ]
        _assert_same_settle_order(topology, [hub, 3], ks=[n - 100])

    def test_truncated_level_far_wider_than_the_room_left(self):
        n, hub, k = 3000, 1500, 50
        topology = _star(n, hub=hub, seed=3, degree=1200)
        smallest = sorted(topology.neighbors(hub))[: k - 1]
        for use_c in TIERS:
            csr = topology.fresh_csr(use_c=use_c)
            distances, predecessors = reference.k_nearest_search(csr, hub, k)
            assert list(distances) == [hub] + smallest
            assert predecessors == dict.fromkeys(smallest, hub)
        _assert_same_settle_order(topology, [hub], ks=[k, 1201, 1202])

    def test_dial_bucket_wider_than_the_cutoff(self):
        # Dyadic weights: four buckets of ~75 leaves each behind the hub,
        # and leaf-to-leaf shortcuts that leave stale entries in them.
        rng = random.Random(5)
        builder = TopologyBuilder.from_topology(
            _star(301, hub=150, seed=5, weights=(0.5, 1.0, 1.5, 2.0))
        )
        for _ in range(300):
            u, v = rng.sample(range(301), 2)
            builder.add_edge(u, v, 0.5)
        topology = builder.freeze()
        assert topology.csr().kernel == "bucket"
        _assert_same_settle_order(
            topology, [150, 0, 300], ks=[40, 160], kernel="bucket"
        )

    def test_one_arena_across_very_different_frontier_widths(self):
        # A 1200-leaf hub with a 40-node path hanging off leaf 0: searches
        # from the path run width-1 levels through the arena that the hub's
        # search just filled, and the other way round.
        n, hub = 1241, 600
        topology = _star(1201, hub=hub, seed=9)
        edges = list(topology.edges())
        edges += [(0, 1201, 1.0)] + [(v, v + 1, 1.0) for v in range(1201, n - 1)]
        topology = Topology.from_edges(n, edges)
        sources = [hub, n - 1, 7, 1220, hub, 0, n - 1]
        _assert_same_settle_order(topology, sources, ks=[5, 45, 700])

    @pytest.mark.parametrize("kernel", ["bfs", "bucket"])
    def test_threads_order_every_batch_row_identically(self, kernel):
        # Each kernel thread orders levels into the tail of its own arena's
        # order row; rows must not depend on the width (this is the test the
        # sanitizer CI legs run at threads=2).
        weights = (1.0,) if kernel == "bfs" else (0.5, 1.0, 1.5)
        topology = _star(900, hub=450, seed=2, weights=weights, degree=500)
        graphs = [
            topology.fresh_csr(kernel=kernel, use_c=use_c)
            for use_c in TIERS
        ]
        sources = [450, 0, 899, 450, 17, 3, 450, 620]
        for k in (30, 400, 900):
            expected = [
                _settle_rows(reference.dijkstra_k_nearest(topology, source, k))
                for source in sources
            ]
            for csr in graphs:
                for threads in (1, 2, 3):
                    flat = csr.k_nearest_batch_flat(k, sources, threads=threads)
                    assert _flat_settle_rows(flat) == expected


class TestParallelKernelThreading:
    def test_forced_kernel_reaches_workers(self):
        topology = _quantized_geometric(48, seed=7)
        auto = topology.csr().k_nearest_batch_flat(9, threads=2)
        for kernel in ("heap", "bucket"):
            forced = topology.fresh_csr(kernel=kernel)
            assert forced.kernel == kernel
            assert forced.k_nearest_batch_flat(9, threads=2) == auto


class TestPropertyBasedWeighted:
    def test_random_quantized_graphs_both_kernels(self):
        for seed in range(8):
            topology = _quantized_geometric(30, seed=seed)
            expected = [
                reference.dijkstra(topology, s)
                for s in range(topology.num_nodes)
            ]
            for kernel in ("heap", "bucket"):
                for use_c in TIERS:
                    csr = topology.fresh_csr(kernel=kernel, use_c=use_c)
                    got = [
                        reference.spt_search(csr, s)
                        for s in range(topology.num_nodes)
                    ]
                    assert got == expected

    @given(
        leaves=st.integers(1, 3 * _INSERTION_MAX),
        tail=st.integers(0, 6),
        dyadic=st.booleans(),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_star_and_hub_shapes_settle_in_id_order(
        self, leaves, tail, dyadic, seed, data
    ):
        # Stars (tail == 0) put settled + width == n, the scratch bound of
        # the kernels' level ordering, on every search from the hub; a
        # ``tail`` of second-level nodes moves the wide level off the bound.
        n = leaves + tail + 1
        hub = data.draw(st.integers(0, n - 1))
        source = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(1, n))
        topology = _star(
            n,
            hub=hub,
            seed=seed,
            weights=(0.5, 1.0, 1.5) if dyadic else (1.0,),
            degree=leaves,
        )
        _assert_same_settle_order(topology, [hub, source], ks=[k])
