"""ND-Disco's batch relays below the FFI: ``relay_routes`` against the rule.

A measurement calls ``router.prefetch(pairs, ...)`` once; on the C tier the
ND-Disco router then fills its :meth:`compact` memo with the batch's
landmark relays from one ``relay_routes`` call.  The Python rule
(:meth:`~repro.core.nddisco._NDDiscoRouter.compact` on a router that never
prefetched) stays the definition, and this file holds the kernel to it:

* **the differential** -- on small connected graphs of the three weight
  profiles (unit weights: BFS; multiples of 0.5: Dial; irregular: heap),
  the four shortcut modes the kernel serves, tables in RAM, in anonymous
  ``mmap`` slabs and attached from a slab directory: every prefetched
  ``(path, "landmark-relay")`` equals, list for list, what a fresh router
  computes, and every relay the batch needs was prefetched;
* **the boundary** -- a parent slab or vicinity parent slab with one id
  flipped out of range gives the pair a non-zero status, keeps it out of
  the memo, and the rule then raises what it raises; a kernel that cannot
  allocate leaves the memo empty with the batch drivers' one
  ``RuntimeWarning``; the Python tier, the Up-Down-Stream modes and
  read-only slab views never call the kernel.

The kernel is built under ASan + UBSan in CI with this file.
"""

from __future__ import annotations

import random
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.reference_paths import assert_c_tier_picks
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.core.substrate_build import build_substrate_tables
from repro.core.tables import SubstrateTables
from repro.graphs.topology import Topology
from repro.metrics.congestion import measure_congestion
from repro.metrics.stretch import measure_stretch
from repro.naming.names import name_for_node
from tiers import kernel_tier, needs_c

_KERNEL_MODES = (
    ShortcutMode.NONE,
    ShortcutMode.TO_DESTINATION,
    ShortcutMode.SHORTER_REVERSE_FORWARD,
    ShortcutMode.NO_PATH_KNOWLEDGE,
)

#: weight profile -> (the kernel it selects, a weight drawn from rng)
_PROFILES = {
    "unit": ("bfs", lambda rng: 1.0),
    "half": ("bucket", lambda rng: 0.5 * rng.randint(1, 8)),
    "irregular": ("heap", lambda rng: rng.uniform(0.1, 10.0)),
}

_SETTINGS = settings(
    deadline=None,
    max_examples=40,
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


def _scheme(topology, tables, mode, *, resolve=True) -> NDDiscoRouting:
    names = [name_for_node(v) for v in range(topology.num_nodes)]
    return NDDiscoRouting.from_tables(
        topology, tables, names, shortcut_mode=mode, resolve_first_packet=resolve
    )


def _tables(topology, seed, scale, placement, directory):
    rng = random.Random(seed)
    landmarks = rng.sample(range(topology.num_nodes), max(1, topology.num_nodes // 8))
    storage = "mmap" if placement == "mmap" else None
    tables = build_substrate_tables(
        topology, landmarks, vicinity_scale=scale, storage=storage
    )
    if placement == "slab-dir":
        tables = SubstrateTables.from_mmap(tables.save_slabs(f"{directory}/t"))
    return tables


def _expected_relays(router, pairs, *, first, later, resolve):
    """The flat keys whose :meth:`compact` the measured routes read, as the
    Python rule finds them on a router that never prefetched."""
    scheme, n = router.scheme, router._num_nodes
    keys = set()
    for source, target in pairs:
        if source == target or router.knows_direct(source, target):
            continue
        if (first and not resolve) or (
            later and not router.in_vicinity(target, source)
        ):
            keys.add(source * n + target)
        if first and resolve:
            resolver = scheme.resolution_database.home_landmark(
                scheme.names[target]
            )
            if resolver != target and not router.knows_direct(resolver, target):
                keys.add(resolver * n + target)
    return keys


@needs_c
class TestDifferential:
    @_SETTINGS
    @given(
        num_nodes=st.integers(8, 64),
        density=st.integers(0, 3),
        profile=st.sampled_from(sorted(_PROFILES)),
        mode=st.sampled_from(_KERNEL_MODES),
        placement=st.sampled_from(["ram", "mmap", "slab-dir"]),
        scale=st.sampled_from([0.3, 0.6, 1.0]),
        resolve=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_prefetched_relay_is_the_rules(
        self, num_nodes, density, profile, mode, placement, scale, resolve, seed
    ):
        topology = _connected(num_nodes, density * num_nodes // 2, profile, seed)
        with tempfile.TemporaryDirectory() as directory:
            tables = _tables(topology, seed, scale, placement, directory)
            scheme = _scheme(topology, tables, mode, resolve=resolve)
            rng = random.Random(seed + 1)
            pairs = [
                (rng.randrange(num_nodes), rng.randrange(num_nodes))
                for _ in range(3 * num_nodes)
            ]
            n = num_nodes
            for first, later in ((True, True), (True, False), (False, True)):
                batch = scheme.router()
                batch.prefetch(pairs, first=first, later=later)
                prefetched = dict(batch._compact)
                fresh = scheme.router()
                for key, (path, mechanism) in prefetched.items():
                    assert mechanism == "landmark-relay"
                    assert fresh.compact(*divmod(key, n)) == (path, mechanism)
                rule = scheme.router()
                assert set(prefetched) == _expected_relays(
                    rule, pairs, first=first, later=later, resolve=resolve
                )

    @pytest.mark.parametrize("mode", _KERNEL_MODES)
    def test_measurements_are_unchanged(self, mode):
        """The measurements read the same routes with the memo filled by
        the kernel as a router that routes pair by pair computes."""
        topology = _connected(60, 40, "irregular", 5)
        scheme = _scheme(topology, _tables(topology, 5, 0.4, "ram", None), mode)
        rng = random.Random(9)
        pairs = [(rng.randrange(60), rng.randrange(60)) for _ in range(200)]
        pairs = [(s, t) for s, t in pairs if s != t]
        stretch = measure_stretch(scheme, pairs=pairs)
        router = scheme.router()
        for index, (source, target) in enumerate(pairs):
            first, later = router.pair(source, target)
            shortest = topology.csr().batched_target_distances([(source, target)])
            distance = shortest[(source, target)]
            assert stretch.first_packet[index] == first.length(topology) / distance
            assert stretch.later_packets[index] == later.length(topology) / distance
        for later in (True, False):
            usage = measure_congestion(scheme, pairs=pairs, use_later_packets=later)
            route = scheme.router().later if later else scheme.router().first
            expected = {(u, v): 0 for u, v, _ in topology.edges()}
            for source, target in pairs:
                path = route(source, target).path
                for a, b in zip(path, path[1:]):
                    expected[(min(a, b), max(a, b))] += 1
            assert usage.edge_usage == expected


class _Recording:
    """The kernel library, recording each ``relay_routes`` call's statuses
    (or refusing the call as a failed allocation)."""

    def __init__(self, lib, *, refuse=False):
        self._lib = lib
        self.refuse = refuse
        self.statuses: list[list[int]] = []

    def __getattr__(self, name):
        function = getattr(self._lib, name)
        if name != "relay_routes":
            return function

        def call(*args):
            if self.refuse:
                return -1
            total = function(*args)
            self.statuses.append(list(args[-2]))
            return total

        return call


def _relay_fixture(mode=ShortcutMode.TO_DESTINATION):
    """A scheme over writable RAM tables, and every pair whose later
    packets take the landmark relay (what a later-packet prefetch sends)."""
    topology = _connected(48, 30, "irregular", 11)
    tables = _tables(topology, 11, 0.3, "ram", None)
    scheme = _scheme(topology, tables, mode)
    router = scheme.router()
    pairs = [
        (s, t)
        for s in range(48)
        for t in range(48)
        if s != t
        and router.compact(s, t)[1] == "landmark-relay"
        and not router.in_vicinity(t, s)
    ]
    assert pairs
    return topology, tables, scheme, pairs


def _prefetch_recorded(scheme, pairs, **kwargs):
    """Prefetch ``pairs`` (later packets) on a fresh router over a recording
    library; returns the router and the library."""
    csr = scheme.topology.csr()
    lib = csr._clib
    recording = csr._clib = _Recording(lib, **kwargs)
    try:
        router = scheme.router()
        router.prefetch(pairs, first=False, later=True)
    finally:
        csr._clib = lib
    return router, recording


@needs_c
class TestBoundary:
    def test_a_parent_flipped_out_of_range(self):
        """A negative id in the SPT parent slab: the pairs walking through
        it get a status, stay out of the memo, and the rule raises."""
        topology, tables, scheme, pairs = _relay_fixture()
        source, target = pairs[0]
        landmark = tables.closest[target]
        row = tables.landmarks.index(landmark) * topology.num_nodes
        saved = tables.spt_parent[row + target]
        tables.spt_parent[row + target] = -5
        try:
            router, recording = _prefetch_recorded(scheme, pairs)
            (statuses,) = recording.statuses
            assert statuses[pairs.index((source, target))] != 0
            assert source * topology.num_nodes + target not in router._compact
            with pytest.raises(ValueError):
                router.compact(source, target)
        finally:
            tables.spt_parent[row + target] = saved

    def test_a_parent_far_beyond_the_slab(self):
        topology, tables, scheme, pairs = _relay_fixture()
        source, target = pairs[0]
        landmark = tables.closest[target]
        row = tables.landmarks.index(landmark) * topology.num_nodes
        saved = tables.spt_parent[row + target]
        tables.spt_parent[row + target] = 1 << 40
        try:
            router, recording = _prefetch_recorded(scheme, pairs)
            assert recording.statuses[0][pairs.index((source, target))] != 0
            assert source * topology.num_nodes + target not in router._compact
            with pytest.raises((ValueError, IndexError)):
                router.compact(source, target)
        finally:
            tables.spt_parent[row + target] = saved

    @pytest.mark.parametrize("bad", [-7, 48, 1 << 40])
    def test_a_vicinity_parent_flipped_out_of_range(self, bad):
        """The To-Destination splice walks a vicinity row's parents: an id
        outside it fails the pair, not the read."""
        topology, tables, scheme, pairs = _relay_fixture()
        vicinity = tables.vicinity
        rule = scheme.router()
        for source, target in pairs:
            path = rule.relay(source, target)
            path = path[: path.index(target) + 1]
            owner = next(
                (node for node in path[:-1] if rule.in_vicinity(node, target)),
                None,
            )
            if owner is not None:
                break
        else:
            pytest.fail("no relay splices in a vicinity path")
        position = vicinity._index(owner)[target]
        saved = vicinity.parents[position]
        vicinity.parents[position] = bad
        try:
            router, recording = _prefetch_recorded(scheme, pairs)
            assert recording.statuses[0][pairs.index((source, target))] != 0
            assert source * topology.num_nodes + target not in router._compact
            with pytest.raises(ValueError):
                router.compact(source, target)
        finally:
            vicinity.parents[position] = saved

    def test_a_batch_that_cannot_allocate_falls_back(self):
        topology, tables, scheme, pairs = _relay_fixture()
        with pytest.warns(RuntimeWarning, match="relay_routes could not allocate"):
            router, _ = _prefetch_recorded(scheme, pairs, refuse=True)
        assert not router._compact
        fresh = scheme.router()
        assert [router.compact(s, t) for s, t in pairs] == [
            fresh.compact(s, t) for s, t in pairs
        ]

    @pytest.mark.parametrize(
        "mode", [ShortcutMode.UP_DOWN_STREAM, ShortcutMode.PATH_KNOWLEDGE]
    )
    def test_up_down_stream_stays_in_python(self, mode):
        topology, tables, scheme, pairs = _relay_fixture(mode)
        router, recording = _prefetch_recorded(scheme, pairs)
        assert recording.statuses == [] and not router._compact


@needs_c
def test_read_only_views_route_in_python():
    """``ctypes`` cannot take a read-only view (the churn engine's live
    tables): the hook leaves the memo alone and the rule routes."""
    topology, tables, _, pairs = _relay_fixture()
    scheme = _scheme(topology, tables.read_only(), ShortcutMode.TO_DESTINATION)
    router, recording = _prefetch_recorded(scheme, pairs)
    assert recording.statuses == [] and not router._compact
    rule = _scheme(topology, tables, ShortcutMode.TO_DESTINATION).router()
    assert [router.compact(s, t) for s, t in pairs] == [
        rule.compact(s, t) for s, t in pairs
    ]


def test_the_python_tier_never_calls_the_kernel():
    with kernel_tier("python"):
        topology = _connected(40, 20, "unit", 3)
        scheme = _scheme(
            topology, _tables(topology, 3, 0.3, "ram", None), ShortcutMode.NONE
        )
        router = scheme.router()
    assert topology.csr()._clib is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        router.prefetch([(0, 39), (5, 17)], first=True, later=True)
    assert not router._compact
