"""A measurement batch's route accounting below the FFI: ``route_walks``.

``measure_stretch`` and ``measure_congestion`` route their batch into one
flat ``'q'`` array of ids plus the end of each route, hand both to
:meth:`~repro.graphs.csr.CSRGraph.route_walks` once and read each route's
length and each edge's use count back.  On the C tier that is one
``route_walks`` call of ``_kernels.c``; on the Python tier (and when the call
cannot allocate) the method runs the per-hop loop, its twin.  This file holds
the two to each other and to the rule:

* **the differential** -- on small connected graphs of the three weight
  profiles (unit weights: BFS; multiples of 0.5: Dial; irregular: heap),
  walks, empty, one-node and repeated-node paths: the lengths are
  bit-equal (``float.hex``) to each other and to
  :meth:`~repro.protocols.base.RouteResult.length`, the ``(lo, hi, count)``
  triples equal, ascending and the brute-force count, the statuses equal;
* **the boundary** -- ids ``-5``, ``n`` and ``2**40`` and a hop that is no
  edge give a non-zero status, length 0.0 and no use, and leave the rest of
  the batch alone; route ends out of order or past the ids are refused
  before any call; a call that cannot allocate warns once and gives the
  twin's answer;
* **the measurements** -- stretch and congestion reports of Disco,
  ND-Disco, S4, VRR and the shortest-path baselines are equal on both
  tiers, and a route with a hop that is no edge raises the rule's
  ``KeyError`` from both metrics on both tiers.

The kernel is built under ASan + UBSan in CI with this file.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.reference_paths import assert_c_tier_picks
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.topology import Topology
from repro.metrics.congestion import measure_congestion
from repro.metrics.stretch import measure_stretch
from repro.protocols.base import RouteResult, RoutingScheme
from repro.protocols.pathvector import PathVectorRouting
from repro.protocols.s4 import S4Routing
from repro.protocols.shortest_path import ShortestPathRouting
from repro.protocols.vrr import VirtualRingRouting
from tiers import TIERS, kernel_tier, needs_c

#: weight profile -> (the kernel it selects, a weight drawn from rng)
_PROFILES = {
    "unit": ("bfs", lambda rng: 1.0),
    "half": ("bucket", lambda rng: 0.5 * rng.randint(1, 8)),
    "irregular": ("heap", lambda rng: rng.uniform(0.1, 10.0)),
}

_SETTINGS = settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)


def _connected(num_nodes: int, extra: int, profile: str, seed: int) -> Topology:
    """A random spanning tree plus ``extra`` chords, weighted by ``profile``."""
    rng = random.Random(seed)
    weight = _PROFILES[profile][1]
    edges = {}
    for node in range(1, num_nodes):
        edges[(rng.randrange(node), node)] = weight(rng)
    for _ in range(extra):
        u, v = sorted(rng.sample(range(num_nodes), 2))
        edges.setdefault((u, v), weight(rng))
    topology = Topology.from_edges(
        num_nodes, [(u, v, w) for (u, v), w in edges.items()]
    )
    assert_c_tier_picks(topology, _PROFILES[profile][0])
    return topology


def _walk(topology: Topology, rng: random.Random, hops: int) -> tuple[int, ...]:
    """A random walk of ``hops`` hops (nodes and edges may repeat)."""
    path = [rng.randrange(topology.num_nodes)]
    for _ in range(hops):
        path.append(rng.choice(topology.neighbors(path[-1])))
    return tuple(path)


def _paths(topology: Topology, seed: int) -> list[tuple[int, ...]]:
    """Walks, plus the empty, one-node and repeated-node paths."""
    rng = random.Random(seed)
    paths = [_walk(topology, rng, rng.randrange(12)) for _ in range(40)]
    node = rng.randrange(topology.num_nodes)
    paths += [(), (node,), (node, node)]
    rng.shuffle(paths)
    return paths


def _flat(paths) -> tuple[array, array]:
    """``paths`` as ``route_walks`` takes them: their ids, and each one's end."""
    nodes, ends = array("q"), array("q")
    for path in paths:
        nodes.extend(path)
        ends.append(len(nodes))
    return nodes, ends


def _tiers(topology: Topology):
    """A C-tier and a Python-tier snapshot of one topology."""
    with kernel_tier("c"):
        native = topology.fresh_csr()
    with kernel_tier("python"):
        return native, topology.fresh_csr()


def _exact(result):
    """``route_walks``'s result with every length as ``float.hex``."""
    lengths, used, status = result
    return [length.hex() for length in lengths], used.tolist(), status.tolist()


def _usage(used) -> dict[tuple[int, int], int]:
    """``(lo, hi, count)`` triples as a dict, in their order."""
    flat = used.tolist()
    return dict(zip(zip(flat[::3], flat[1::3]), flat[2::3]))


@needs_c
class TestDifferential:
    @_SETTINGS
    @given(
        num_nodes=st.integers(8, 48),
        density=st.integers(0, 3),
        profile=st.sampled_from(sorted(_PROFILES)),
        seed=st.integers(0, 2**16),
    )
    def test_tiers_agree_with_each_other_and_the_rule(
        self, num_nodes, density, profile, seed
    ):
        topology = _connected(num_nodes, density * num_nodes // 2, profile, seed)
        paths = _paths(topology, seed + 1)
        c_tier, python_tier = _tiers(topology)
        walked = c_tier.route_walks(*_flat(paths))
        assert _exact(walked) == _exact(python_tier.route_walks(*_flat(paths)))
        lengths, used, status = walked
        usage = _usage(used)
        expected: dict[tuple[int, int], int] = {}
        for path, length, code in zip(paths, lengths, status):
            if any(a == b for a, b in zip(path, path[1:])):  # no self-loops
                assert code != 0 and length == 0.0
                continue
            assert code == 0
            rule = RouteResult(path=path, mechanism="walk").length(topology)
            assert length.hex() == rule.hex()
            for a, b in zip(path, path[1:]):
                key = (min(a, b), max(a, b))
                expected[key] = expected.get(key, 0) + 1
        assert list(usage.items()) == sorted(expected.items())

    def test_an_empty_batch(self):
        topology = _connected(5, 2, "unit", 1)
        for tier in _tiers(topology):
            assert _exact(tier.route_walks(*_flat([]))) == ([], [], [])
            assert _exact(tier.route_walks(*_flat([(), ()]))) == (
                [0.0.hex()] * 2, [], [0, 0]
            )

    @pytest.mark.parametrize(
        "ends", [[3, 2], [-1, 2], [2, 7]], ids=["back", "negative", "past"]
    )
    def test_ends_out_of_order_or_past_the_ids_are_refused(self, ends):
        topology = _connected(8, 2, "unit", 1)
        nodes = array("q", [0, 1, 0, 1, 0, 1])
        for tier in _tiers(topology):
            with pytest.raises(ValueError, match="route ends"):
                tier.route_walks(nodes, array("q", ends))


@needs_c
class TestBoundary:
    @pytest.mark.parametrize("bad", [-5, "n", 2**40])
    def test_an_id_out_of_range_refuses_its_path_only(self, bad):
        topology = _connected(12, 6, "irregular", 3)
        n = topology.num_nodes
        bad = n if bad == "n" else bad
        good = _walk(topology, random.Random(4), 5)
        paths = [good, (0, bad), (bad,), (bad, 0, 1), good]
        c_tier, python_tier = _tiers(topology)
        walked = c_tier.route_walks(*_flat(paths))
        assert _exact(walked) == _exact(python_tier.route_walks(*_flat(paths)))
        lengths, used, status = walked
        usage = _usage(used)
        assert status[0] == status[4] == 0
        assert all(code != 0 for code in status[1:4])
        assert lengths[1:4].tolist() == [0.0, 0.0, 0.0]
        assert lengths[0] == lengths[4] == RouteResult(good, "walk").length(topology)
        assert sum(usage.values()) == 2 * (len(good) - 1)

    def test_a_hop_that_is_no_edge_refuses_its_path_only(self):
        topology = _connected(12, 0, "half", 5)
        u, v = next(
            (u, v)
            for u in range(12)
            for v in range(u + 1, 12)
            if not topology.has_edge(u, v)
        )
        a, b, _ = next(topology.edges())
        paths = [(a, b), (b, a, v, u), (u, v), (a, b, a)]
        c_tier, python_tier = _tiers(topology)
        walked = c_tier.route_walks(*_flat(paths))
        assert _exact(walked) == _exact(python_tier.route_walks(*_flat(paths)))
        lengths, used, status = walked
        usage = _usage(used)
        assert status[0] == status[3] == 0
        assert status[1] != 0 and status[2] != 0
        assert lengths[1] == lengths[2] == 0.0
        assert usage == {(min(a, b), max(a, b)): 3}

    def test_refused_allocation_warns_once_and_runs_the_twin(
        self, refuse_batch_kernels
    ):
        topology = _connected(30, 20, "irregular", 7)
        paths = _paths(topology, 8)
        refusing = refuse_batch_kernels(topology)
        with pytest.warns(RuntimeWarning, match="route_walks could not") as caught:
            refused = refusing.route_walks(*_flat(paths))
        assert len(caught) == 1
        with kernel_tier("python"):
            twin = topology.fresh_csr().route_walks(*_flat(paths))
        assert _exact(refused) == _exact(twin)


def _families(topology: Topology) -> list:
    nddisco = NDDiscoRouting(topology, seed=2)
    return [
        DiscoRouting(topology, seed=2, nddisco=nddisco),
        nddisco,
        S4Routing.from_nddisco(nddisco),
        VirtualRingRouting(topology, seed=2),
        ShortestPathRouting(topology),
        PathVectorRouting(topology, seed=2),
    ]


@needs_c
class TestMeasurements:
    @pytest.mark.parametrize("profile", sorted(_PROFILES))
    def test_reports_are_equal_on_both_tiers(self, profile):
        topology = _connected(48, 40, profile, 11)
        reports = {}
        for tier in TIERS:
            # A copy's csr() is built on the tier, and so is every scheme.
            with kernel_tier(tier):
                reports[tier] = [
                    (
                        scheme.name,
                        measure_stretch(scheme, pair_sample=120, seed=3),
                        measure_congestion(scheme, seed=4),
                        measure_congestion(
                            scheme, seed=4, use_later_packets=False
                        ),
                    )
                    for scheme in _families(topology.copy())
                ]
        assert len(reports["c"]) == len(reports["python"]) == 6
        for native, python in zip(reports["c"], reports["python"]):
            assert native == python, native[0]
            assert list(native[2].edge_usage) == [
                (u, v) for u, v, _ in topology.edges()
            ]

    def test_a_hop_that_is_no_edge_raises_the_rules_key_error(self, tier):
        topology = _connected(16, 0, "unit", 6)
        u, v = next(
            (u, v)
            for u in range(16)
            for v in range(u + 1, 16)
            if not topology.has_edge(u, v)
        )

        class Teleporting(RoutingScheme):
            """Shortest paths, except that ``u -> v`` jumps straight there."""

            def __init__(self, topology):
                super().__init__(topology)
                self._shortest = ShortestPathRouting(topology)

            def state_profile(self, nodes):
                return self._shortest.state_profile(nodes)

            def first_packet_route(self, source, target):
                if (source, target) == (u, v):
                    return RouteResult(path=(u, v), mechanism="teleport")
                return self._shortest.first_packet_route(source, target)

            later_packet_route = first_packet_route

        scheme = Teleporting(topology)
        pairs = [(0, 5), (u, v), (3, 9)]
        message = f"no edge {u}-{v}"
        assert topology.csr().tier == tier
        with pytest.raises(KeyError, match=message):
            measure_stretch(scheme, pairs=pairs)
        for later in (True, False):
            with pytest.raises(KeyError, match=message):
                measure_congestion(
                    scheme, pairs=pairs, use_later_packets=later
                )
        assert measure_congestion(scheme, pairs=[(0, 5), (3, 9)]).flows == 2
