"""An event pays for its affected region: subtree walks and flat vicinity rows.

Pins the two halves of the churn engine's per-event cost model:

* **adjacency-walk subtree discovery** (:mod:`repro.graphs.incremental`)
  against a children-list oracle kept here, plus a deterministic bound on
  how many parent entries a leaf-arc repair may read;
* **flat vicinity rows** (:class:`~repro.dynamics.engine.ChurnEngine`):
  per-event bills and state equal to the full diff of two from-scratch
  convergences over node streams with a landmark leave and a partition,
  from both constructors, and ``engine.tables`` slab-equal to a fresh build
  (a row the event shortened is read afresh, not from its cached index).

Also the stream generator's one-pass bridge / articulation filter against
the per-candidate connectivity search it replaced (kept here as the
oracle), the frozen stream digests of both generators, and the
non-finite-weight no-op.
"""

from __future__ import annotations

import hashlib
import math
import random
from operator import ne

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.fresh_build import (
    addresses,
    assert_tables_match_fresh_build,
    engine_from_routing,
    fresh_tables,
)
from repro.core.nddisco import NDDiscoRouting
from repro.core.sloppy_groups import SloppyGrouping
from repro.dynamics import (
    EVENT_KINDS,
    ChurnEngine,
    DynEvent,
    MaintenanceCost,
    generate_churn_workload,
    generate_event_stream,
)
from repro.dynamics.maintenance import _mean_group_size
from repro.dynamics.stream import _cut_points
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.incremental import (
    _collect_subtree,
    repair_after_detach,
    repair_after_increase,
)
from repro.graphs.topology import Topology, TopologyBuilder
from repro.naming.names import name_for_node

_SETTINGS = settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- (a) subtree discovery ----------------------------------------------------


def _subtree_oracle(parent, top: int) -> set[int]:
    """``top``'s subtree from an n-long children index (the retired path)."""
    children: list[list[int]] = [[] for _ in parent]
    for node, pred in enumerate(parent):
        if pred >= 0:
            children[pred].append(node)
    out, stack = set(), [top]
    while stack:
        node = stack.pop()
        out.add(node)
        stack.extend(children[node])
    return out


def _sparse_graph(seed: int, num_nodes: int = 30) -> Topology:
    """A random graph, usually disconnected (unreachable row entries)."""
    rng = random.Random(seed)
    topology = TopologyBuilder(num_nodes)
    for _ in range(rng.randrange(num_nodes // 2, 2 * num_nodes)):
        u, v = rng.sample(range(num_nodes), 2)
        topology.add_edge(u, v, rng.choice((1.0, 1.0, 0.5, 2.25)))
    return topology.freeze()


class TestSubtreeWalk:
    @given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
    @_SETTINGS
    def test_walk_matches_children_index(self, seed, pick):
        topology = _sparse_graph(seed)
        n = topology.num_nodes
        root, top = pick % n, (pick // n) % n
        _, parent = topology.csr().spt_rows(root, fill=math.inf)
        walked = _collect_subtree(topology.adjacency, parent, top)
        assert len(walked) == len(set(walked))
        assert set(walked) == _subtree_oracle(parent, top)

    @given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
    @_SETTINGS
    def test_detached_node_walks_its_captured_arcs(self, seed, pick):
        # The detached node's arcs are gone from the adjacency when the
        # repair runs; ``pick`` also lands on the row's root and on
        # unreachable nodes.
        topology = _sparse_graph(seed)
        n = topology.num_nodes
        root, node = pick % n, (pick // n) % n if pick % 3 else pick % n
        dist, parent = topology.csr().spt_rows(root, fill=math.inf)
        expected = _subtree_oracle(parent, node)
        arcs = list(topology.adjacency[node])
        topology = _detached(topology, node)
        walked = _collect_subtree(topology.adjacency, parent, node, arcs)
        assert set(walked) == expected
        repair_after_detach(topology, dist, parent, root, node, arcs)
        assert (dist, parent) == topology.csr().spt_rows(root, fill=math.inf)


def _detached(topology: Topology, node: int) -> Topology:
    """``topology`` with every edge of ``node`` removed."""
    builder = TopologyBuilder.from_topology(topology)
    for neighbor, _ in topology.adjacency[node]:
        builder.remove_edge(node, neighbor)
    return builder.freeze()


class _CountingRow(list):
    """A parent row that counts the entries read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestRepairReadsItsRegionOnly:
    """Complexity pin: a leaf-arc event must not scan the row."""

    N = 4096

    def _leaf_arc(self):
        topology = gnm_random_graph(self.N, seed=11, average_degree=8.0)
        dist, parent = topology.csr().spt_rows(0, fill=math.inf)
        has_child = set(parent)
        leaf = next(
            node
            for node in range(self.N - 1, 0, -1)
            if node not in has_child and parent[node] >= 0
        )
        return topology, dist, _CountingRow(parent), leaf

    def test_leaf_arc_removal(self):
        topology, dist, parent, leaf = self._leaf_arc()
        above = list.__getitem__(parent, leaf)
        builder = TopologyBuilder.from_topology(topology)
        builder.remove_edge(above, leaf)
        topology = builder.freeze()
        _, parent_changed = repair_after_increase(
            topology, dist, parent, 0, above, leaf
        )
        assert parent_changed == [leaf]
        assert parent.reads < self.N // 8
        assert (dist, list(parent)) == topology.csr().spt_rows(0, fill=math.inf)

    def test_leaf_node_detach(self):
        topology, dist, parent, leaf = self._leaf_arc()
        arcs = list(topology.adjacency[leaf])
        topology = _detached(topology, leaf)
        repair_after_detach(topology, dist, parent, 0, leaf, arcs)
        assert parent.reads < self.N // 8
        assert (dist, list(parent)) == topology.csr().spt_rows(0, fill=math.inf)


# -- (b) flat vicinity rows ---------------------------------------------------


def _tailed_graph(seed: int) -> tuple[Topology, int]:
    """A 40-node G(n,m) core plus the tail 0 - 40 - 41 - 42 - 43.

    Node 40 is a cut node: its leave partitions the tail off the core.
    """
    core = gnm_random_graph(40, seed=seed, average_degree=5.0)
    topology = TopologyBuilder(44)
    for u, v, weight in core.edges():
        topology.add_edge(u, v, weight)
    for u, v in ((0, 40), (40, 41), (41, 42), (42, 43)):
        topology.add_edge(u, v, 1.0)
    return topology.freeze(), 40


def _replay_bill(before: ChurnEngine, after: ChurnEngine) -> MaintenanceCost:
    """The full before/after diff of two from-scratch convergences."""
    n = after.tables.num_nodes
    assert before.tables.landmarks == after.tables.landmarks
    landmark_entries = sum(
        old != new
        for old, new in zip(before.tables.spt_dist, after.tables.spt_dist)
    )
    vicinity_entries = 0
    for node in range(n):
        old = dict(zip(*before.tables.vicinity.row(node)[:2]))
        new = dict(zip(*after.tables.vicinity.row(node)[:2]))
        vicinity_entries += sum(
            old.get(member) != new.get(member)
            for member in set(old) | set(new)
            if member != node
        )
    old_addresses, new_addresses = (
        addresses(tables.landmarks, tables.spt_parent, tables.closest)
        for tables in (before.tables, after.tables)
    )
    changed = sum(map(ne, old_addresses, new_addresses))
    group_size = _mean_group_size(
        SloppyGrouping([name_for_node(node) for node in range(n)])
    )
    return MaintenanceCost(
        addresses_changed=changed,
        landmark_set_changed=False,
        resolution_updates=changed,
        dissemination_messages=int(round(changed * group_size)),
        vicinity_entries_changed=vicinity_entries,
        landmark_entries_changed=landmark_entries,
    )


def _node_stream(topology: Topology, landmark: int, cut: int, seed: int):
    """A landmark leave, a partition, then a seeded node-event stream."""
    return [
        DynEvent(0, "node-leave", landmark),
        DynEvent(1, "node-leave", cut),
        *generate_event_stream(
            topology,
            num_events=10,
            seed=seed,
            kinds=("node-leave", "node-join"),
            preserve_connectivity=False,
        ),
        DynEvent(20, "node-join", cut),
        DynEvent(21, "node-join", landmark),
    ]


class TestFlatVicinityRows:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("adopt", [False, True], ids=["direct", "adopted"])
    def test_node_streams_match_full_reconvergence(self, seed, adopt):
        topology, cut = _tailed_graph(seed)
        routing = NDDiscoRouting(topology, seed=seed)
        landmarks = sorted(routing.landmarks)
        if adopt:
            engine = engine_from_routing(routing)
        else:
            engine = ChurnEngine(topology, landmarks=landmarks)
        before = ChurnEngine(topology, landmarks=landmarks)
        assert engine.state_signature() == before.state_signature()
        applied = 0
        for event in _node_stream(topology, landmarks[0], cut, seed):
            report = engine.apply(event)
            after = ChurnEngine(engine.topology, landmarks=landmarks)
            assert engine.state_signature() == after.state_signature(), event
            assert report.cost == _replay_bill(before, after), event
            applied += report.applied
            before = after
        assert applied >= 8

    def test_component_limited_vicinity_keeps_infinite_radius(self):
        topology, cut = _tailed_graph(0)
        engine = ChurnEngine(topology, vicinity_k=6)
        assert all(radius < math.inf for radius in engine._radius)
        engine.apply(DynEvent(0, "node-leave", cut))
        # The tail 41-42-43 is cut off: three members each, fewer than k.
        for node in (41, 42, 43):
            assert len(engine.tables.vicinity.row(node)[0]) == 3
            assert engine._radius[node] == math.inf
        assert engine._radius[cut] == math.inf  # departed, alone
        assert engine._radius[0] < math.inf
        # An infinite radius makes the tail a candidate of the rejoin.
        report = engine.apply(DynEvent(1, "node-join", cut))
        assert report.vicinities_recomputed >= 4
        pristine = ChurnEngine(topology, vicinity_k=6)
        assert engine.state_signature() == pristine.state_signature()
        assert list(engine._radius) == list(pristine._radius)

    def test_rows_serve_the_vicinity_read_api(self):
        """The engine's strided rows read like the scheme's packed ones."""
        topology, _ = _tailed_graph(1)
        routing = NDDiscoRouting(topology, seed=1)
        engine = engine_from_routing(routing)
        mine, theirs = engine.tables.vicinity, routing.tables.vicinity
        assert mine.lengths is not None and theirs.lengths is None
        for node in range(topology.num_nodes):
            row = [view.tolist() for view in mine.row(node)]
            assert row == [view.tolist() for view in theirs.row(node)]
            far = row[0][-1]
            assert mine.path_from_owner(node, far) == theirs.path_from_owner(
                node, far
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_live_tables_match_fresh_build_after_stream(self, seed):
        topology = gnm_random_graph(48, seed=seed, average_degree=5.0)
        engine = engine_from_routing(NDDiscoRouting(topology, seed=seed))
        events = generate_event_stream(topology, num_events=16, seed=seed)
        assert {"node-leave", "edge-down"} <= {event.kind for event in events}
        engine.run(events)
        assert_tables_match_fresh_build(engine)
        for node in sorted(engine.dead_nodes):
            engine.apply(DynEvent(99, "node-join", node))
        assert engine.topology.is_connected()
        assert engine.topology.content_key() != topology.content_key()
        assert_tables_match_fresh_build(engine)

    def test_a_shortened_row_is_read_afresh(self):
        """Paths read through ``engine.tables.vicinity`` build a member ->
        position index per row and keep it; the event that cuts the tail
        off rewrites those rows shorter, in place."""
        topology, cut = _tailed_graph(0)
        engine = ChurnEngine(topology, vicinity_k=6)
        vicinity = engine.tables.vicinity
        tail = (41, 42, 43)
        for node in tail:  # fill the index cache from the long rows
            members, _, _ = vicinity.row(node)
            assert len(members) == 6 and cut in members
            assert vicinity.path_from_owner(node, cut)[-1] == cut
        engine.apply(DynEvent(0, "node-leave", cut))
        assert engine.tables.vicinity is vicinity
        fresh = fresh_tables(engine).vicinity
        for node in tail:
            row = [view.tolist() for view in vicinity.row(node)]
            assert cut not in row[0] and len(row[0]) == 3
            assert row == [view.tolist() for view in fresh.row(node)]
            for member in row[0]:
                assert vicinity.path_from_owner(
                    node, member
                ) == fresh.path_from_owner(node, member)
            with pytest.raises(KeyError):
                vicinity.path_from_owner(node, cut)
        engine.apply(DynEvent(1, "node-join", cut))
        assert [len(vicinity.row(node)[0]) for node in range(44)] == [6] * 44
        assert_tables_match_fresh_build(engine)


# -- non-finite weights -------------------------------------------------------


class TestNonFiniteWeights:
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_engine_treats_them_as_no_ops(self, weight):
        topology = gnm_random_graph(32, seed=2, average_degree=5.0)
        u, v, old = next(iter(sorted(topology.edges())))
        absent = next(w for w in range(1, 32) if not topology.has_edge(0, w))
        engine = ChurnEngine(topology, seed=0)
        before = engine.state_signature()
        for event in (
            DynEvent(0, "edge-reweight", u, v, weight),
            DynEvent(0, "edge-up", 0, absent, weight),
        ):
            report = engine.apply(event)
            assert not report.applied
            assert report.cost.total_incremental_entries == 0
        assert engine.topology.edge_weight(u, v) == old
        assert not engine.topology.has_edge(0, absent)
        assert engine.state_signature() == before

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 0.0])
    def test_topology_rejects_them(self, weight):
        topology = TopologyBuilder(3)
        topology.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            topology.add_edge(1, 2, weight)
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            topology.set_edge_weight(0, 1, weight)
        assert topology.freeze().num_edges == 1
        assert topology.edge_weight(0, 1) == 1.0


# -- stream generation --------------------------------------------------------


def _live_connected(topology, dead, *, skip_node=None, skip_edge=None) -> bool:
    """The retired per-candidate filter: one search per candidate."""
    excluded = set(dead)
    if skip_node is not None:
        excluded.add(skip_node)
    live = [node for node in range(topology.num_nodes) if node not in excluded]
    if len(live) <= 1:
        return True
    banned = tuple(sorted(skip_edge)) if skip_edge is not None else None
    seen = {live[0]}
    frontier = [live[0]]
    while frontier:
        node = frontier.pop()
        for neighbor, _ in topology.adjacency[node]:
            if neighbor in excluded or neighbor in seen:
                continue
            if tuple(sorted((node, neighbor))) == banned:
                continue
            seen.add(neighbor)
            frontier.append(neighbor)
    return len(seen) == len(live)


def _live_state(seed: int) -> tuple[Topology, set[int]]:
    """A random tree plus a few chords, with up to three departed nodes.

    Trees make most edges bridges and most inner nodes articulation points;
    the chords open cycles, so both answers occur for both questions.
    """
    rng = random.Random(seed)
    n = rng.randrange(3, 40)
    topology = TopologyBuilder(n)
    for node in range(1, n):
        topology.add_edge(node, rng.randrange(node), 1.0)
    for _ in range(rng.randrange(n)):
        u, v = rng.sample(range(n), 2)
        topology.add_edge(u, v, 1.0)
    dead: set[int] = set()
    for _ in range(rng.randrange(4)):
        removable = [
            node
            for node in range(n)
            if node not in dead
            and n - len(dead) > 2
            and _live_connected(topology, dead, skip_node=node)
        ]
        if not removable:
            break
        node = rng.choice(removable)
        for neighbor, _ in list(topology.adjacency[node]):
            topology.remove_edge(node, neighbor)
        dead.add(node)
    return topology, dead


#: sha256(repr(stream))[:16] of ``generate_event_stream(topology,
#: num_events=40, seed=seed)`` recorded with the per-candidate filter.
_STREAM_DIGESTS = {
    "gnm-0": "b2fd58b68008f8f6",
    "gnm-1": "b6296bae2f978ef7",
    "gnm-2": "83407163eccbd1f2",
    "gnm-3": "85f477a3da03d76c",
    "geo-0": "1a71099bfd7b69f2",
    "geo-1": "84b9971937687f52",
    "geo-2": "9d6b5c78dff2949f",
    "geo-3": "2be556ffbd4ccd0e",
    "router-0": "01d0075cde92d061",
    "router-1": "d92241452149436f",
    "router-2": "7758a63f0a381102",
    "router-3": "1554afb6f70bf67a",
}

#: sha256(repr(stream))[:16] of the streams the bench and ``repro churn``
#: draw, recorded before the generators kept their candidate edges sorted:
#: ``generate_event_stream(gnm_random_graph(1024, seed=t, average_degree=8),
#: preserve_connectivity=False)`` for ``"<kinds>-<t>"`` with
#: ``events_per_tick=t`` (120 events, 60 for node kinds), and
#: ``generate_churn_workload`` on a bridge-rich G(256, 344), where about
#: half the draws are bridges and turned down.
_PARTITION_STREAM_DIGESTS = {
    "edge-1": "7a5914a1f7b7c136",
    "edge-3": "9f767318e18ef605",
    "node-1": "b7df1635c444bd1e",
    "node-3": "e7f1c6d49e35471a",
    "all-1": "932dd8e1a13dff0a",
    "all-3": "f58ed8190a32e3be",
}
_WORKLOAD_DIGESTS = {True: "ca52a31faaf70392", False: "4d65ee3c94e06e3e"}
_PARTITION_KINDS = {
    "edge": (EVENT_KINDS[:3], 120),
    "node": (EVENT_KINDS[3:], 60),
    "all": (EVENT_KINDS, 120),
}

_STREAM_FAMILIES = {
    "gnm": lambda seed: gnm_random_graph(96, seed=seed, average_degree=4.0),
    "geo": lambda seed: geometric_random_graph(
        80, seed=seed, average_degree=5.0
    ),
    "router": lambda seed: internet_router_level(96, seed=seed),
}


class TestConnectivityPreservingStreams:
    @given(seed=st.integers(0, 10**6))
    @_SETTINGS
    def test_one_pass_filter_matches_per_candidate_search(self, seed):
        topology, dead = _live_state(seed)
        live = [v for v in range(topology.num_nodes) if v not in dead]
        bridges, cuts = _cut_points(topology, live[0])
        assert bridges == {
            (u, v)
            for u, v, _ in topology.edges()
            if not _live_connected(topology, dead, skip_edge=(u, v))
        }
        assert cuts == {
            node
            for node in live
            if not _live_connected(topology, dead, skip_node=node)
        }

    @pytest.mark.parametrize("name", sorted(_STREAM_DIGESTS))
    def test_streams_are_unchanged(self, name):
        family, seed = name.split("-")
        events = generate_event_stream(
            _STREAM_FAMILIES[family](int(seed)), num_events=40, seed=int(seed)
        )
        assert {event.kind for event in events} == set(EVENT_KINDS)
        digest = hashlib.sha256(repr(events).encode()).hexdigest()[:16]
        assert digest == _STREAM_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(_PARTITION_STREAM_DIGESTS))
    def test_partitioning_streams_are_unchanged(self, name):
        kind_set, per_tick = name.split("-")
        kinds, count = _PARTITION_KINDS[kind_set]
        events = generate_event_stream(
            gnm_random_graph(1024, seed=int(per_tick), average_degree=8.0),
            num_events=count,
            seed=int(per_tick),
            kinds=kinds,
            events_per_tick=int(per_tick),
            preserve_connectivity=False,
        )
        digest = hashlib.sha256(repr(events).encode()).hexdigest()[:16]
        assert digest == _PARTITION_STREAM_DIGESTS[name]

    @pytest.mark.parametrize("recover", [True, False])
    def test_link_flap_workloads_are_unchanged(self, recover):
        topology = gnm_random_graph(256, seed=2, average_degree=2.5)
        events = generate_churn_workload(
            topology, num_events=40, seed=2, recover=recover
        )
        digest = hashlib.sha256(repr(events).encode()).hexdigest()[:16]
        assert digest == _WORKLOAD_DIGESTS[recover]

    def test_every_prefix_keeps_the_live_nodes_connected(self):
        topology = internet_router_level(96, seed=5)
        engine = ChurnEngine(topology, seed=5)
        for event in generate_event_stream(topology, num_events=40, seed=5):
            assert engine.apply(event).applied
            assert _live_connected(engine.topology, engine.dead_nodes)
