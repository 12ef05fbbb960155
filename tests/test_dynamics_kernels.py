"""The churn layer below the FFI: C entry points against their Python twins.

Every pass :class:`~repro.dynamics.engine.ChurnEngine` runs per event is one
C entry point with a pure-Python twin (``repair_rows`` in
:mod:`repro.graphs.incremental`; ``closest_refold``, ``vicinity_candidates``
and ``vicinity_commit`` in :mod:`repro.dynamics.passes`; ``shift_offsets``
under :meth:`CSRGraph.with_edge` / ``without_edge``).  This file holds them
to three contracts:

* **differential** -- C tier = Python twin = a fresh search on the mutated
  topology, slabs compared *bitwise* and change lists compared as lists,
  over unit, dyadic and irregular-float weights, random event sequences and
  the named partition / tie cases;
* **frozen bills** -- sha256 of every report plus the final
  ``state_signature()`` of twelve seeded streams, computed at the commit
  *before* the engine moved onto slabs and asserted here on both tiers;
* **the boundary** -- short, long and wrong-typecode buffers and
  out-of-range ids raise ``ValueError`` / ``TypeError`` before any C code
  runs or any slab is written.

The Python tier is forced with ``REPRO_NO_CKERNELS=1`` for the length of a
``with`` block (the variable is read on every dispatch); without a C
compiler both sides of a differential are the twin and the tests still pin
it to the fresh search.
"""

from __future__ import annotations

import hashlib
import os
import random
from array import array
from contextlib import contextmanager
from math import inf

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.addressing.labels import LabelCodec
from repro.core.nddisco import NDDiscoRouting
from repro.core.substrate_build import apply_maintenance, build_substrate_tables
from repro.core.tables import _TABLE_SLOTS, _VICINITY_SLOTS
from repro.dynamics import ChurnEngine, DynEvent, generate_event_stream
from repro.dynamics.passes import (
    commit_vicinities,
    refold_closest,
    vicinity_candidates,
)
from repro.graphs import _ckernels
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.incremental import (
    RowChanges,
    repair_rows_after_decrease,
    repair_rows_after_detach,
    repair_rows_after_increase,
)
from repro.graphs.topology import Topology

_SETTINGS = settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

_TIERS = ("c", "python")

#: Weight families: unit (BFS kernel), dyadic (Dial kernel; equal-distance
#: ties are common) and irregular floats (heap kernel; sums round).
_WEIGHTS = {
    "unit": lambda rng: 1.0,
    "dyadic": lambda rng: rng.choice((0.5, 1.0, 1.0, 2.25)),
    "float": lambda rng: rng.uniform(0.1, 3.0),
}


@contextmanager
def _tier(name: str):
    """Run the body on the C tier or, with the switch set, on the twins."""
    saved = os.environ.pop("REPRO_NO_CKERNELS", None)
    if name == "python":
        os.environ["REPRO_NO_CKERNELS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_NO_CKERNELS", None)
        if saved is not None:
            os.environ["REPRO_NO_CKERNELS"] = saved


def _random_graph(seed: int, family: str) -> Topology:
    """A small random graph, often disconnected (unreachable row entries)."""
    rng = random.Random(seed)
    n = rng.randrange(6, 36)
    topology = Topology(n)
    for _ in range(rng.randrange(n // 2, 3 * n)):
        u, v = rng.sample(range(n), 2)
        topology.add_edge(u, v, _WEIGHTS[family](rng))
    return topology


def _fresh_rows(topology: Topology, roots) -> tuple[array, array, array, array]:
    """Dist / parent slabs and the closest fold from a full search."""
    n = topology.num_nodes
    dist = array("d", bytes(8 * len(roots) * n))
    parent = array("q", bytes(8 * len(roots) * n))
    closest = array("q", [-1]) * n
    closest_dist = array("d", [inf]) * n
    topology.csr().spt_rows_batch_into(
        array("q", roots), dist, parent, fill=inf,
        closest_dist=closest_dist, closest_landmark=closest,
    )
    return dist, parent, closest, closest_dist


def _lists(changes: RowChanges) -> tuple:
    return tuple(
        list(part)
        for part in (
            changes.rows,
            changes.dist_ends,
            changes.dist_changed,
            changes.parent_ends,
            changes.parent_changed,
        )
    )


class _Rows:
    """One tier's copy of a topology and its landmark slabs under repair."""

    def __init__(self, tier: str, topology: Topology, roots) -> None:
        self.tier = tier
        self.topology = topology.copy()
        self.roots = array("q", roots)
        with _tier(tier):
            self.dist, self.parent, self.closest, self.closest_dist = (
                _fresh_rows(self.topology, self.roots)
            )

    def repair(self, mutate, repair, *event) -> RowChanges:
        """Mutate the topology, repair every row, refold; check against a
        fresh search bit for bit.  Returns the change lists."""
        with _tier(self.tier):
            mutate(self.topology)
            changes = repair(
                self.topology, self.roots, self.dist, self.parent, *event
            )
            self.refolded, self.stale = refold_closest(
                self.topology, self.roots, self.dist, self.parent, changes,
                self.closest, self.closest_dist,
            )
            fresh = _fresh_rows(self.topology, self.roots)
        mine = (self.dist, self.parent, self.closest, self.closest_dist)
        for slab, expected in zip(mine, fresh):
            assert slab.tobytes() == expected.tobytes(), (self.tier, event)
        return changes


def _repair_on_both(topology, roots, mutate, repair, *event) -> RowChanges:
    """One event on fresh per-tier copies; the tiers must agree exactly."""
    c_tier, python_tier = (_Rows(tier, topology, roots) for tier in _TIERS)
    changes = c_tier.repair(mutate, repair, *event)
    assert _lists(changes) == _lists(
        python_tier.repair(mutate, repair, *event)
    )
    assert list(c_tier.refolded) == list(python_tier.refolded)
    assert list(c_tier.stale) == list(python_tier.stale)
    return changes


# -- (a) + (b): row repair and closest refold ---------------------------------


class TestRepairRows:
    @given(
        seed=st.integers(0, 10**6),
        family=st.sampled_from(sorted(_WEIGHTS)),
    )
    @_SETTINGS
    def test_random_event_sequences(self, seed, family):
        """Edge down / up / heavier / lighter and node leave / join, in
        sequence on one pair of slabs: the repaired state feeds the next
        repair, as in the engine."""
        rng = random.Random(seed + 1)
        topology = _random_graph(seed, family)
        n = topology.num_nodes
        roots = sorted(rng.sample(range(n), rng.randrange(1, 5)))
        tiers = [_Rows(tier, topology, roots) for tier in _TIERS]
        captured: dict[int, list[tuple[int, float]]] = {}
        for _ in range(10):
            live = tiers[0].topology
            edges = sorted((u, v) for u, v, _ in live.edges())
            kind = rng.choice(
                ("down", "up", "heavier", "lighter", "leave", "join")
            )
            if kind in ("down", "heavier", "lighter") and edges:
                u, v = rng.choice(edges)
                if kind == "down":
                    mutate = lambda t: t.remove_edge(u, v)
                else:
                    factor = 1.5 if kind == "heavier" else 0.5
                    weight = live.edge_weight(u, v) * factor
                    mutate = lambda t: t.set_edge_weight(u, v, weight)
                if kind == "lighter":
                    call = (repair_rows_after_decrease, [(v, u)])
                else:
                    call = (repair_rows_after_increase, u, v)
            elif kind == "up":
                u, v = rng.sample(range(n), 2)
                if live.has_edge(u, v) or u in captured or v in captured:
                    continue
                weight = _WEIGHTS[family](rng)
                mutate = lambda t: t.add_edge(u, v, weight)
                call = (repair_rows_after_decrease, [(u, v)])
            elif kind == "leave":
                node = rng.randrange(n)
                if node in captured:
                    continue
                arcs = list(live.adjacency[node])
                captured[node] = arcs

                def mutate(t):
                    for neighbor, _ in arcs:
                        t.remove_edge(node, neighbor)

                call = (repair_rows_after_detach, node, arcs)
            elif kind == "join" and captured:
                node = rng.choice(sorted(captured))
                arcs = [
                    (neighbor, weight)
                    for neighbor, weight in captured.pop(node)
                    if neighbor not in captured
                ]

                def mutate(t):
                    for neighbor, weight in arcs:
                        t.add_edge(node, neighbor, weight)

                call = (
                    repair_rows_after_decrease,
                    [(node, neighbor) for neighbor, _ in arcs],
                )
            else:
                continue
            c_changes, python_changes = (
                rows.repair(mutate, *call) for rows in tiers
            )
            assert _lists(c_changes) == _lists(python_changes), (kind, call)
            assert list(tiers[0].refolded) == list(tiers[1].refolded)
            assert list(tiers[0].stale) == list(tiers[1].stale)

    @staticmethod
    def _two_cliques() -> Topology:
        """Two 4-cliques joined by the single bridge edge (3, 4)."""
        topology = Topology(8)
        for base in (0, 4):
            for i in range(base, base + 4):
                for j in range(i + 1, base + 4):
                    topology.add_edge(i, j, 1.0)
        topology.add_edge(3, 4, 1.0)
        return topology

    def test_bridge_down_partitions_the_rows(self):
        changes = _repair_on_both(
            self._two_cliques(), [0, 5],
            lambda t: t.remove_edge(3, 4), repair_rows_after_increase, 3, 4,
        )
        # Each root loses exactly the far clique, distances and parents.
        assert _lists(changes) == (
            [0, 1], [4, 8], [4, 5, 6, 7, 0, 1, 2, 3],
            [4, 8], [4, 5, 6, 7, 0, 1, 2, 3],
        )

    def test_row_root_leaves_then_rejoins(self):
        topology = self._two_cliques()
        arcs = list(topology.adjacency[3])
        c_tier, python_tier = (_Rows(tier, topology, [3, 6]) for tier in _TIERS)

        def leave(t):
            for neighbor, _ in arcs:
                t.remove_edge(3, neighbor)

        def join(t):
            for neighbor, weight in arcs:
                t.add_edge(3, neighbor, weight)

        for rows in (c_tier, python_tier):
            gone = rows.repair(leave, repair_rows_after_detach, 3, arcs)
            # Row 0 is rooted at 3: the root keeps 0.0 / -1 and is not
            # reported; every other node becomes unreachable.
            assert list(gone.dist_changed[: gone.dist_ends[0]]) == [
                0, 1, 2, 4, 5, 6, 7,
            ]
            assert rows.dist[3] == 0.0 and rows.parent[3] == -1
            back = rows.repair(
                join, repair_rows_after_decrease,
                [(3, neighbor) for neighbor, _ in arcs],
            )
            assert list(back.dist_changed[: back.dist_ends[0]]) == [
                0, 1, 2, 4, 5, 6, 7,
            ]
        pristine = _fresh_rows(topology, [3, 6])
        assert c_tier.dist.tobytes() == pristine[0].tobytes()
        assert c_tier.parent.tobytes() == pristine[1].tobytes()

    def test_join_with_every_captured_neighbour_dead_changes_nothing(self):
        topology = self._two_cliques()
        for neighbor in (0, 1, 2, 4):
            topology.remove_edge(3, neighbor)
        changes = _repair_on_both(
            topology, [0, 5], lambda t: None, repair_rows_after_decrease, [],
        )
        assert _lists(changes) == ([], [], [], [], [])

    def test_leave_of_an_already_unreachable_node(self):
        topology = self._two_cliques()
        topology.remove_edge(3, 4)
        arcs = list(topology.adjacency[6])

        def leave(t):
            for neighbor, _ in arcs:
                t.remove_edge(6, neighbor)

        changes = _repair_on_both(
            topology, [0, 5], leave, repair_rows_after_detach, 6, arcs,
        )
        # Row 0 cannot see node 6 and is skipped; row 1 loses it.
        assert list(changes.rows) == [1]
        assert list(changes.dist_changed) == [6]

    def test_reweight_that_ties_flips_the_parent_only(self):
        # 3 hangs under 2 at distance 2; the edge 1-3 gets lighter until
        # dist[1] + w == dist[3]: no distance moves, the parent flips to
        # the smaller id.
        topology = Topology.from_edges(
            4, [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (1, 3, 2.0)]
        )
        changes = _repair_on_both(
            topology, [0],
            lambda t: t.set_edge_weight(1, 3, 1.0),
            repair_rows_after_decrease, [(1, 3)],
        )
        assert _lists(changes) == ([0], [0], [], [1], [3])

    def test_multi_edge_improve_reports_a_twice_improved_node_once(self):
        # Node 3 rejoins over two edges; the first restored offers 1 + 5,
        # the second 1 + 1.
        topology = Topology.from_edges(
            5, [(0, 1, 1.0), (0, 2, 1.0), (3, 4, 1.0)]
        )

        def join(t):
            t.add_edge(3, 1, 5.0)
            t.add_edge(3, 2, 1.0)

        changes = _repair_on_both(
            topology, [0], join, repair_rows_after_decrease, [(3, 1), (3, 2)],
        )
        assert _lists(changes) == ([0], [2], [3, 4], [2], [3, 4])


# -- (c): the vicinity candidate filter ---------------------------------------

# A small pool, so equal distances, exact boundaries, a value just inside
# and just outside the relative slack, and unreachable entries all occur.
_DISTANCES = st.sampled_from(
    [0.0, 0.5, 1.0, 1.5, 2.0, 2.0 * (1 + 5e-10), 2.0 * (1 + 5e-9), 3.0, inf]
)


class TestVicinityCandidates:
    @given(
        rows=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                *(st.lists(_DISTANCES, min_size=n, max_size=n),) * 3
            )
        ),
        tight=st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0])),
    )
    @_SETTINGS
    def test_tiers_agree(self, rows, tight):
        row_u, row_v, radius = (array("d", row) for row in rows)
        endpoint_rows = [row_u] if tight is None else [row_u, row_v]
        results = []
        for tier in _TIERS:
            with _tier(tier):
                results.append(
                    list(vicinity_candidates(endpoint_rows, radius, tight=tight))
                )
        assert results[0] == results[1]
        assert results[0] == sorted(set(results[0]))

    def test_slack_admits_a_boundary_a_few_ulps_out(self):
        radius = array("d", [2.0, 2.0, inf, 0.0])
        row = array("d", [2.0 * (1 + 5e-10), 2.0 * (1 + 5e-9), inf, 0.0])
        for tier in _TIERS:
            with _tier(tier):
                assert list(vicinity_candidates([row], radius)) == [0, 2, 3]


# -- (d): commit-and-bill of recomputed vicinity rows -------------------------


def _stored_vicinities(topology: Topology, k: int):
    """Fixed-stride slabs, lengths and radius of every node's vicinity."""
    n = topology.num_nodes
    stride = min(k, n)
    offsets, *packed = topology.csr().k_nearest_batch_flat(k)
    slabs = [array(slab.typecode, bytes(8 * n * stride)) for slab in packed]
    lengths = array("q", bytes(8 * n))
    radius = array("d", [inf]) * n
    for node in range(n):
        lo, hi = offsets[node], offsets[node + 1]
        for slab, rows in zip(slabs, packed):
            slab[node * stride : node * stride + hi - lo] = rows[lo:hi]
        lengths[node] = hi - lo
        if hi - lo == stride:
            radius[node] = packed[1][hi - 1]
    return slabs, lengths, radius


def _bill_oracle(old_row, new_row) -> int:
    """Members that came, went or moved between two (member, dist) rows."""
    old, new = dict(zip(*old_row[:2])), dict(zip(*new_row[:2]))
    return sum(old.get(m) != new.get(m) for m in old.keys() | new.keys())


class TestCommitVicinities:
    @given(
        seed=st.integers(0, 10**6),
        family=st.sampled_from(sorted(_WEIGHTS)),
        k=st.integers(1, 8),
    )
    @_SETTINGS
    def test_tiers_agree_and_match_a_fresh_build(self, seed, family, k):
        rng = random.Random(seed + 2)
        topology = _random_graph(seed, family)
        n = topology.num_nodes
        stride = min(k, n)
        states = []
        for tier in _TIERS:
            with _tier(tier):
                states.append(_stored_vicinities(topology.copy(), k))
        for _ in range(4):  # a few mutations
            edges = sorted((u, v) for u, v, _ in topology.edges())
            u, v = rng.sample(range(n), 2)
            if topology.has_edge(u, v):
                topology.remove_edge(u, v)
            elif edges and rng.random() < 0.5:
                topology.set_edge_weight(*rng.choice(edges), 0.75)
            else:
                topology.add_edge(u, v, _WEIGHTS[family](rng))
        candidates = array(
            "q", sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
        )
        if not candidates:
            fresh = (array("q", [0]), array("q"), array("d"), array("q"))
        else:
            fresh = topology.csr().k_nearest_batch_flat(k, candidates)
        expected_bill = 0
        expected_changed = []
        slabs, lengths, _ = states[0]
        for index, node in enumerate(candidates):
            lo, hi = fresh[0][index], fresh[0][index + 1]
            new_row = [list(slab[lo:hi]) for slab in fresh[1:]]
            base = node * stride
            old_row = [
                list(slab[base : base + lengths[node]]) for slab in slabs
            ]
            expected_bill += _bill_oracle(old_row, new_row)
            if old_row != new_row:
                expected_changed.append(node)
        results = []
        for tier, (slabs, lengths, radius) in zip(_TIERS, states):
            with _tier(tier):
                changed, billed = commit_vicinities(
                    candidates, fresh, slabs, lengths, radius
                )
            results.append((list(changed), billed))
        assert results[0] == results[1] == (expected_changed, expected_bill)
        (c_slabs, c_lengths, c_radius), (p_slabs, p_lengths, p_radius) = states
        assert c_lengths.tobytes() == p_lengths.tobytes()
        assert c_radius.tobytes() == p_radius.tobytes()
        rebuilt, rebuilt_lengths, rebuilt_radius = _stored_vicinities(topology, k)
        for node in candidates:
            assert c_lengths[node] == rebuilt_lengths[node]
            assert c_radius[node] == rebuilt_radius[node]
            lo, hi = node * stride, node * stride + c_lengths[node]
            for c_slab, p_slab, fresh_slab in zip(c_slabs, p_slabs, rebuilt):
                assert (
                    c_slab[lo:hi].tobytes()
                    == p_slab[lo:hi].tobytes()
                    == fresh_slab[lo:hi].tobytes()
                )

    def test_parent_only_change_is_stored_unbilled(self):
        # Three nodes, stride 3; only node 0 has a row, and it comes back
        # with member 2 re-parented from 0 to 1 at the same distance.
        stored = (
            array("q", [0, 1, 2] + [0] * 6),
            array("d", [0.0, 1.0, 1.0] + [0.0] * 6),
            array("q", [-1, 0, 0] + [0] * 6),
        )
        fresh = (array("q", [0, 3]), array("q", [0, 1, 2]),
                 array("d", [0.0, 1.0, 1.0]), array("q", [-1, 0, 1]))
        for tier in _TIERS:
            slabs = tuple(slab[:] for slab in stored)
            lengths = array("q", [3, 0, 0])
            radius = array("d", [1.0, inf, inf])
            with _tier(tier):
                changed, billed = commit_vicinities(
                    [0], fresh, slabs, lengths, radius
                )
            assert (list(changed), billed) == ([0], 0)
            assert list(slabs[2][:3]) == [-1, 0, 1]


# -- the engine: both tiers, slab for slab ------------------------------------


def _family_topology(family: str, seed: int) -> Topology:
    if family == "gnm":
        return gnm_random_graph(72, seed=seed, average_degree=5.0)
    if family == "geometric":
        return geometric_random_graph(72, seed=seed, average_degree=5.0)
    return internet_router_level(80, seed=seed)


def _engine_bytes(engine: ChurnEngine) -> list[bytes]:
    return [
        slab.tobytes()
        for slab in (
            engine._dist_slab,
            engine._parent_slab,
            engine._closest,
            engine._closest_dist,
            *engine._vicinity_slabs,
            engine._vicinity_lengths,
            engine._radius,
        )
    ]


class TestEngineTiers:
    @pytest.mark.parametrize("family", ["gnm", "geometric", "router"])
    def test_every_slab_is_byte_equal_after_every_event(self, family):
        topology = _family_topology(family, 5)
        events = generate_event_stream(
            topology, num_events=24, seed=5, preserve_connectivity=False
        )
        engines = []
        for tier in _TIERS:
            with _tier(tier):
                engines.append(ChurnEngine(topology, seed=5))
        for event in events:
            reports = []
            for tier, engine in zip(_TIERS, engines):
                with _tier(tier):
                    reports.append(engine.apply(event))
            assert reports[0] == reports[1], event
            c_bytes, python_bytes = map(_engine_bytes, engines)
            assert c_bytes == python_bytes, event
        c_dirty, python_dirty = (engine.take_dirty() for engine in engines)
        assert c_dirty == python_dirty

    @pytest.mark.parametrize("tier", _TIERS)
    def test_maintained_slabs_match_a_fresh_build(self, tier):
        """apply_maintenance reads the engine through views of its slabs."""
        with _tier(tier):
            topology = gnm_random_graph(48, seed=2, average_degree=5.0)
            routing = NDDiscoRouting(topology, seed=2)
            landmarks = sorted(routing.landmarks)
            tables = build_substrate_tables(
                topology, landmarks, codec=LabelCodec(topology)
            )
            engine = ChurnEngine.from_routing(routing)
            engine.run(generate_event_stream(topology, num_events=16, seed=2))
            for node in sorted(engine.dead_nodes):
                engine.apply(DynEvent(99, "node-join", node))
            assert engine.topology.is_connected()
            codec = LabelCodec(engine.topology)
            assert apply_maintenance(tables, engine, codec=codec).vicinities
            fresh = build_substrate_tables(
                engine.topology, landmarks, codec=codec
            )
        for slot, _ in _TABLE_SLOTS:
            assert bytes(getattr(tables, slot)) == bytes(getattr(fresh, slot))
        for slot, _ in _VICINITY_SLOTS:
            assert bytes(getattr(tables.vicinity, slot)) == bytes(
                getattr(fresh.vicinity, slot)
            )


# -- frozen bills --------------------------------------------------------------

_EDGE_KINDS = ("edge-down", "edge-up", "edge-reweight")
_NODE_KINDS = ("node-leave", "node-join")

#: sha256 of ``repr((bills, state_signature()))`` per (family, kinds,
#: preserve_connectivity) stream at seed 17, computed at commit 840c7e0 --
#: the parent of the change that moved the engine onto flat slabs and its
#: per-event loops into C -- on both tiers there (they agreed).
_FROZEN = {
    ("gnm", "edge", True): "2ba7e0656d9a4fbec23c6ec33608ed233ec1c6fd45e7d907c42df65619defbd7",
    ("gnm", "edge", False): "592f30acd24d280ed65471c765f1f9699c08b28d150e1247b33c29b1f8437889",
    ("gnm", "node", True): "589b1d20add0b2f95b68b498c66e9289df2fe008acc3880f1ec5657fea52a5f8",
    ("gnm", "node", False): "d364a21a98ac77bca870ea80551806d67ede325fc76d3a3ebe43952c1f35f2ad",
    ("geometric", "edge", True): "2653a9d30b3172a9be9eb8ee0a5ac8be871ec9d214b55623277ba79e6a17ff07",
    ("geometric", "edge", False): "ea90ab543aea7a14cd97ca7cbdad4f8f7e4220b7941417e9e6fd708b897f99d8",
    ("geometric", "node", True): "41b3e4951d0c8b306d32a4f0f275c503be4ed165a17b10b5c452869837e60dfe",
    ("geometric", "node", False): "22e373218aca5349f2ee7b2dd792352d6e06569ee8fb52e0384f7229a6d7726e",
    ("router", "edge", True): "70242714f3b82edd02d930a09310f09c3671171b967b66b0f76aefbc0668869e",
    ("router", "edge", False): "28074f8de7bf0a42002efeb07ccea851f381ed4b0d9cbb9a1a6d5fb39dace76a",
    ("router", "node", True): "3eb27ed2b9b04597c80f0a7e3aa0bbcd3ee820e50fe549c9f48b0a1f9479d3a6",
    ("router", "node", False): "acf2dab0df95feb85dbe28c696744eb55fc0aff53de4dee12c2c85e13bc2ce0d",
}


def _stream_digest(family: str, kinds, preserve: bool, seed: int = 17) -> str:
    topology = _family_topology(family, seed)
    events = generate_event_stream(
        topology,
        num_events=30,
        seed=seed,
        kinds=kinds,
        preserve_connectivity=preserve,
    )
    engine = ChurnEngine(topology, seed=seed)
    bills = [
        (
            report.event.kind,
            report.applied,
            report.cost.addresses_changed,
            report.cost.landmark_set_changed,
            report.cost.resolution_updates,
            report.cost.dissemination_messages,
            report.cost.vicinity_entries_changed,
            report.cost.landmark_entries_changed,
            report.rows_repaired,
            report.vicinities_recomputed,
        )
        for report in engine.run(events)
    ]
    payload = repr((bills, engine.state_signature()))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestFrozenBills:
    @pytest.mark.parametrize("tier", _TIERS)
    @pytest.mark.parametrize(
        "family, kinds, preserve", sorted(_FROZEN), ids=lambda value: str(value)
    )
    def test_bills_and_state_are_the_parents(self, family, kinds, preserve, tier):
        with _tier(tier):
            digest = _stream_digest(
                family, _EDGE_KINDS if kinds == "edge" else _NODE_KINDS, preserve
            )
        assert digest == _FROZEN[family, kinds, preserve]


# -- CSR offsets under single-edge patches ------------------------------------


class TestShiftedOffsets:
    @given(seed=st.integers(0, 10**6))
    @_SETTINGS
    def test_patched_snapshot_equals_a_rebuilt_one(self, seed):
        rng = random.Random(seed)
        for tier in _TIERS:
            with _tier(tier):
                topology = _random_graph(seed, "dyadic")
                n = topology.num_nodes
                topology.csr()  # live snapshot: every mutation patches it
                for _ in range(12):
                    u, v = rng.sample(range(n), 2)
                    if topology.has_edge(u, v):
                        topology.remove_edge(u, v)
                    else:
                        topology.add_edge(u, v, 1.5)
                    patched = topology.csr()
                    rebuilt = CSRGraph.from_topology(topology)
                    assert patched.offsets == rebuilt.offsets
                    assert patched.neighbors == rebuilt.neighbors
                    assert patched.weights == rebuilt.weights

    def test_out_of_range_endpoints_raise(self):
        csr = Topology.from_edges(3, [(0, 1), (1, 2)]).csr()
        for u, v in ((-1, 2), (1, 1)):
            with pytest.raises(ValueError):
                csr._shifted_offsets(u, v, 1)
        with pytest.raises((ValueError, IndexError)):
            csr.with_edge(0, 3, 1.0)


# -- the boundary: nothing malformed reaches C --------------------------------


def _engine_like():
    """A topology with converged slabs and one pending edge-down."""
    topology = gnm_random_graph(24, seed=3, average_degree=4.0)
    roots = array("q", [2, 9, 17])
    dist, parent, closest, closest_dist = _fresh_rows(topology, roots)
    u, v, _ = sorted(topology.edges())[0]
    topology.remove_edge(u, v)
    return topology, roots, dist, parent, closest, closest_dist, (u, v)


class TestBoundary:
    def test_repair_rows_rejects_bad_buffers_and_ids(self):
        topology, roots, dist, parent, _, _, (u, v) = _engine_like()
        n = topology.num_nodes
        before = (dist.tobytes(), parent.tobytes())
        bad_calls = [
            # short, long, wrong typecode, not a buffer
            (ValueError, roots, dist[:-1], parent, u, v),
            (ValueError, roots, dist, parent + array("q", [0]), u, v),
            (ValueError, roots[:2], dist, parent, u, v),
            (TypeError, roots, array("q", bytes(8 * len(dist))), parent, u, v),
            (TypeError, roots, dist, array("d", bytes(8 * len(parent))), u, v),
            (TypeError, roots, dist.tolist(), parent, u, v),
            (TypeError, roots, bytes(dist), parent, u, v),
            # ids out of range
            (ValueError, roots, dist, parent, u, n),
            (ValueError, roots, dist, parent, -1, v),
            (ValueError, array("q", [2, 9, n]), dist, parent, u, v),
        ]
        for tier in _TIERS:
            with _tier(tier):
                for error, *arguments in bad_calls:
                    with pytest.raises(error):
                        repair_rows_after_increase(topology, *arguments)
                with pytest.raises(ValueError):
                    repair_rows_after_detach(
                        topology, roots, dist, parent, u, [(n + 3, 1.0)]
                    )
                with pytest.raises(ValueError):
                    repair_rows_after_detach(
                        topology, roots, dist, parent, n, []
                    )
                with pytest.raises(ValueError):  # out of range
                    repair_rows_after_decrease(
                        topology, roots, dist, parent, [(0, n)]
                    )
                with pytest.raises(ValueError):  # not an edge (just removed)
                    repair_rows_after_decrease(
                        topology, roots, dist, parent, [(u, v)]
                    )
        assert (dist.tobytes(), parent.tobytes()) == before

    def test_refold_closest_rejects_bad_buffers_and_ids(self):
        topology, roots, dist, parent, closest, closest_dist, (u, v) = (
            _engine_like()
        )
        n = topology.num_nodes
        changes = repair_rows_after_increase(topology, roots, dist, parent, u, v)
        before = (closest.tobytes(), closest_dist.tobytes())

        def ids(*values):
            return array("q", values)

        def call(**overrides):
            arguments = dict(
                topology=topology, landmarks=roots, dist_slab=dist,
                parent_slab=parent, changes=changes, closest=closest,
                closest_dist=closest_dist,
            )
            arguments.update(overrides)
            return refold_closest(**arguments)

        bad_buffers = [
            (ValueError, dict(dist_slab=dist[:-1])),
            (ValueError, dict(parent_slab=parent + ids(0))),
            (ValueError, dict(landmarks=roots[:1])),
            (ValueError, dict(closest_dist=closest_dist[:-1])),
            (TypeError, dict(dist_slab=array("q", bytes(8 * len(dist))))),
            (TypeError, dict(closest=array("d", bytes(8 * n)))),
            (TypeError, dict(closest=closest.tolist())),
            (TypeError, dict(changes=RowChanges(
                ids(0), ids(1), array("d", [0.0]), ids(0), ids()))),
            (ValueError, dict(changes=RowChanges(
                ids(0, 1), ids(1), ids(0), ids(0, 0), ids()))),
        ]
        # Ids inside well-typed change lists are the C prologue's to check
        # (the twin's indexing cannot leave its buffers): a node, a parent
        # change, a row index and an end out of range.
        bad_ids = [
            RowChanges(ids(0), ids(1), ids(n), ids(0), ids()),
            RowChanges(ids(0), ids(0), ids(), ids(1), ids(-1)),
            RowChanges(ids(3), ids(1), ids(0), ids(0), ids()),
            RowChanges(ids(0), ids(2), ids(0), ids(0), ids()),
        ]
        for tier in _TIERS:
            with _tier(tier):
                for error, overrides in bad_buffers:
                    with pytest.raises(error):
                        call(**overrides)
        if _ckernels.load_kernels() is not None:
            for malformed in bad_ids:
                with pytest.raises(ValueError):
                    call(changes=malformed)
        assert (closest.tobytes(), closest_dist.tobytes()) == before
        call()  # and the well-formed call goes through

    def test_vicinity_candidates_rejects_bad_buffers(self):
        n = 6
        row, radius = array("d", [1.0] * n), array("d", [2.0] * n)
        bad = [
            (ValueError, [row[:-1]], radius, None),
            (ValueError, [row], radius[:-1], None),
            (ValueError, [row + row], radius, None),
            (ValueError, [row, row], radius, None),  # two rows need tight=
            (ValueError, [row], radius, 1.0),  # an edge event needs two
            (TypeError, [array("q", [1] * n)], radius, None),
            (TypeError, [row.tolist()], radius, None),
            (TypeError, [row, array("f", [1.0] * n)], radius, 1.0),
        ]
        for tier in _TIERS:
            with _tier(tier):
                for error, rows, reach, tight in bad:
                    with pytest.raises(error):
                        vicinity_candidates(rows, reach, tight=tight)

    def test_commit_vicinities_rejects_bad_buffers_and_ids(self):
        topology = gnm_random_graph(12, seed=1, average_degree=3.0)
        slabs, lengths, radius = _stored_vicinities(topology, 4)
        candidates = array("q", [1, 5])
        fresh = topology.csr().k_nearest_batch_flat(4, candidates)
        offsets, members, dists, parents = fresh
        before = [slab.tobytes() for slab in (*slabs, lengths, radius)]

        def call(
            candidates=candidates, fresh=fresh, slabs=slabs,
            lengths=lengths, radius=radius,
        ):
            return commit_vicinities(candidates, fresh, slabs, lengths, radius)

        out_of_range = members[:]
        out_of_range[1] = 12
        bad = [
            (ValueError, dict(candidates=array("q", [1, 12]))),
            (ValueError, dict(candidates=array("q", [-1, 5]))),
            (ValueError, dict(candidates=array("q", [1]))),  # offsets too long
            (ValueError, dict(fresh=(offsets[:-1], members, dists, parents))),
            (ValueError, dict(fresh=(offsets, members[:-1], dists, parents))),
            (ValueError, dict(fresh=(offsets, members, dists, parents[:-1]))),
            (ValueError, dict(fresh=(
                array("q", [0, 9, len(members)]), members, dists, parents))),
            (ValueError, dict(fresh=(
                array("q", [0, len(members) + 1, len(members)]),
                members, dists, parents))),
            (ValueError, dict(slabs=(slabs[0][:-1], slabs[1], slabs[2]))),
            (ValueError, dict(slabs=(slabs[0], slabs[1][:-4], slabs[2]))),
            (ValueError, dict(radius=radius[:-1])),
            (TypeError, dict(fresh=(offsets, dists, dists, parents))),
            (TypeError, dict(slabs=(slabs[1], slabs[1], slabs[2]))),
            (TypeError, dict(lengths=array("d", bytes(8 * 12)))),
            (TypeError, dict(radius=radius.tolist())),
        ]
        for tier in _TIERS:
            with _tier(tier):
                for error, overrides in bad:
                    with pytest.raises(error):
                        call(**overrides)
        # A fresh member out of range is the C prologue's to catch (the
        # twin would only write the id into the members slab).
        if _ckernels.load_kernels() is not None:
            with pytest.raises(ValueError):
                call(fresh=(offsets, out_of_range, dists, parents))
        assert [slab.tobytes() for slab in (*slabs, lengths, radius)] == before
