"""Differential tests for the event-driven churn engine.

The engine's contract is *bit-identity*: after any event stream, its
incrementally maintained state (landmark SPT distances and parents,
closest-landmark folds, vicinities, addresses) must equal what full
reconvergence on the mutated topology produces.  These tests pin that
contract three ways:

* property-based seeded event streams (edge up/down/reweight, node
  leave/join, including landmark failure) across the gnm / geometric /
  router-level topology families, checked after *every* event against a
  from-scratch engine on the same topology;
* full :class:`NDDiscoRouting` state parity and per-event bill parity
  against the replay oracle (``tests/oracles/replay.py``) on
  connectivity-preserving streams;
* ``engine.tables`` slab-equal to a fresh
  :func:`build_substrate_tables` after every event, with no sync step.

Plus the maintenance edge cases (events at dead nodes, duplicate events
in one tick, partitions isolating every landmark, healing after a full
partition) and the order a stream applies in: tick order, stream order
within a tick.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.fresh_build import (
    assert_tables_match_fresh_build,
    engine_from_routing,
)
from oracles.replay import replay_bills
from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.dynamics import (
    ChurnEngine,
    DynEvent,
    apply_edge_event,
    generate_churn_workload,
    generate_event_stream,
)
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.incremental import (
    repair_after_decrease,
    repair_after_increase,
)
from repro.graphs.topology import Topology, TopologyBuilder

_SETTINGS = settings(
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _make_topology(family: str, seed: int) -> Topology:
    if family == "gnm":
        return gnm_random_graph(40, seed=seed, average_degree=5.0)
    if family == "geometric":
        return geometric_random_graph(40, seed=seed, average_degree=5.0)
    return internet_router_level(48, seed=seed)


def _edited(topology: Topology, edit) -> Topology:
    """``topology`` after ``edit`` ran on a builder holding it."""
    builder = TopologyBuilder.from_topology(topology)
    edit(builder)
    return builder.freeze()


def _oracle(engine: ChurnEngine) -> ChurnEngine:
    """Full reconvergence on the engine's current (mutated) topology."""
    oracle = ChurnEngine(
        engine.topology, seed=0, landmarks=engine.tables.landmarks
    )
    oracle._dead = set(engine.dead_nodes)
    return oracle


class TestEventOrder:
    """A stream applies in tick order, and in stream order within a tick."""

    def test_run_sorts_by_tick_keeping_stream_order_within_a_tick(self):
        node = 5
        topology = gnm_random_graph(40, seed=3, average_degree=5.0)
        (u, v, weight), (a, b, _) = [
            edge for edge in sorted(topology.edges()) if node not in edge[:2]
        ][:2]
        # Far-apart ticks, out of order.  At tick 100 the node leaves and
        # then rejoins: only the stream order says which comes first.
        leave = DynEvent(100, "node-leave", node)
        join = DynEvent(100, "node-join", node)
        down = DynEvent(1, "edge-down", u, v, weight)
        up = DynEvent(300, "edge-up", u, v, weight)
        reweight = DynEvent(0, "edge-reweight", a, b, 2.0)
        engine = ChurnEngine(topology, seed=0)
        assert engine.run([]) == []
        reports = engine.run([up, leave, down, join, reweight])
        order = [reweight, down, leave, join, up]
        assert [report.event for report in reports] == order
        assert all(report.applied for report in reports)
        assert node not in engine.dead_nodes
        by_hand = ChurnEngine(
            gnm_random_graph(40, seed=3, average_degree=5.0), seed=0
        )
        for event in order:
            by_hand.apply(event)
        assert engine.state_signature() == by_hand.state_signature()
        assert engine.state_signature() == _oracle(engine).state_signature()

    @pytest.mark.parametrize("tick", [-1, 1.0, 2.5, "3", True, None])
    def test_rejects_a_tick_that_is_not_an_int_at_least_zero(self, tick):
        with pytest.raises(ValueError, match="tick"):
            DynEvent(tick, "edge-down", 0, 1)


class TestIncrementalSPTRepair:
    """The repair primitives against a from-scratch canonical Dijkstra."""

    @given(
        family=st.sampled_from(["gnm", "geometric"]),
        seed=st.integers(0, 30),
        pick=st.integers(0, 10**6),
    )
    @_SETTINGS
    def test_edge_removal_repair_matches_recompute(self, family, seed, pick):
        topology = _make_topology(family, seed)
        edges = list(topology.edges())
        u, v, _ = edges[pick % len(edges)]
        root = pick % topology.num_nodes
        dist, parent = topology.csr().spt_rows(root, fill=math.inf)
        topology = _edited(topology, lambda builder: builder.remove_edge(u, v))
        repair_after_increase(topology, dist, parent, root, u, v)
        fresh_dist, fresh_parent = topology.csr().spt_rows(root, fill=math.inf)
        assert dist == fresh_dist
        assert parent == fresh_parent

    @given(
        family=st.sampled_from(["gnm", "geometric"]),
        seed=st.integers(0, 30),
        pick=st.integers(0, 10**6),
    )
    @_SETTINGS
    def test_edge_insert_repair_matches_recompute(self, family, seed, pick):
        topology = _make_topology(family, seed)
        n = topology.num_nodes
        u, v = pick % n, (pick // n) % n
        if u == v or topology.has_edge(u, v):
            return
        root = pick % n
        dist, parent = topology.csr().spt_rows(root, fill=math.inf)
        weight = 1.0 + (pick % 3) * 0.25
        topology = _edited(topology, lambda b: b.add_edge(u, v, weight))
        repair_after_decrease(topology, dist, parent, root, [(u, v)])
        fresh_dist, fresh_parent = topology.csr().spt_rows(root, fill=math.inf)
        assert dist == fresh_dist
        assert parent == fresh_parent


class TestEngineDifferential:
    """Incremental maintenance is bit-identical to full reconvergence."""

    @given(
        family=st.sampled_from(["gnm", "geometric", "router"]),
        stream_seed=st.integers(0, 40),
    )
    @_SETTINGS
    def test_mixed_streams_match_full_reconvergence(self, family, stream_seed):
        topology = _make_topology(family, stream_seed)
        events = generate_event_stream(
            topology, num_events=10, seed=stream_seed
        )
        engine = ChurnEngine(topology, seed=0)
        for event in events:
            engine.apply(event)
            assert (
                engine.state_signature() == _oracle(engine).state_signature()
            ), event

    def test_landmark_failure_and_rejoin(self):
        topology = gnm_random_graph(48, seed=6, average_degree=6.0)
        engine = ChurnEngine(topology, seed=1)
        landmark = min(engine.tables.landmarks)
        engine.apply(DynEvent(0, "node-leave", landmark))
        assert landmark in engine.dead_nodes
        # The dead landmark's row folds to unreachable for everyone else,
        # and every survivor refolds onto a live landmark.
        tables = engine.tables
        index = tables.landmarks.index(landmark)
        n = tables.num_nodes
        dist_row = tables.spt_dist[index * n : (index + 1) * n]
        assert dist_row[landmark] == 0.0
        assert all(
            d == math.inf
            for node, d in enumerate(dist_row)
            if node != landmark
        )
        closest = tables.closest
        assert all(
            closest[node] != landmark
            for node in range(n)
            if node != landmark
        )
        assert engine.state_signature() == _oracle(engine).state_signature()
        engine.apply(DynEvent(1, "node-join", landmark))
        assert engine.state_signature() == _oracle(engine).state_signature()
        # Fully healed: identical to a converged engine on the original
        # topology (node-join restores the exact captured edges).
        pristine = ChurnEngine(
            topology, seed=1, landmarks=engine.tables.landmarks
        )
        assert engine.state_signature() == pristine.state_signature()

    def test_matches_nddisco_state_after_connected_stream(self):
        topology = gnm_random_graph(48, seed=3, average_degree=6.0)
        landmarks = select_landmarks(48, seed=3)
        events = generate_churn_workload(topology, num_events=8, seed=11)
        engine = ChurnEngine(topology, seed=3, landmarks=landmarks)
        engine.run(events)
        current = TopologyBuilder.from_topology(topology)
        for event in events:
            apply_edge_event(current, event)
        routing = NDDiscoRouting(current.freeze(), seed=3, landmarks=landmarks)
        assert (
            engine.state_signature()
            == engine_from_routing(routing).state_signature()
        )

    @pytest.mark.parametrize(
        "nodes, degree, seed, num_events, workload_seed",
        [
            (48, 6.0, 4, 8, 21),
            # ``repro churn gnm N --events E --seed 1`` (workload seed =
            # seed + 17): the two pairs CI used to ``cmp`` across --mode.
            # 256 nodes give more landmark rows and vicinity candidates per
            # event than 64.
            (64, 8.0, 1, 6, 18),
            (256, 8.0, 1, 24, 18),
        ],
        ids=["gnm48", "cli-gnm64-6", "cli-gnm256-24"],
    )
    def test_per_event_bills_match_replay_oracle(
        self, nodes, degree, seed, num_events, workload_seed
    ):
        topology = gnm_random_graph(nodes, seed=seed, average_degree=degree)
        landmarks = select_landmarks(nodes, seed=seed)
        events = generate_churn_workload(
            topology, num_events=num_events, seed=workload_seed
        )
        engine = ChurnEngine(topology, seed=seed, landmarks=landmarks)
        reports = engine.run(events)
        assert all(report.applied for report in reports)
        assert [report.cost for report in reports] == replay_bills(
            topology, events, seed=seed, landmarks=landmarks
        )

    def test_from_routing_equals_direct_convergence(self):
        topology = geometric_random_graph(40, seed=7, average_degree=5.0)
        routing = NDDiscoRouting(topology, seed=7)
        adopted = engine_from_routing(routing)
        direct = ChurnEngine(
            topology, seed=7, landmarks=sorted(routing.landmarks)
        )
        assert adopted.state_signature() == direct.state_signature()

    def test_from_routing_keeps_the_adopted_vicinity_size(self):
        # Regression: from_routing used to assume vicinity_scale=1.0, so an
        # engine adopting half-size vicinities saw every row as under-filled
        # and regrew all of them to the default k on the first event.
        topology = gnm_random_graph(200, seed=3, average_degree=6.0)
        routing = NDDiscoRouting(topology, seed=3, vicinity_scale=0.5)
        adopted = engine_from_routing(routing)
        assert adopted.vicinity_k == len(routing.tables.vicinity.row(0)[0]) == 17
        direct = ChurnEngine(
            topology,
            seed=3,
            landmarks=sorted(routing.landmarks),
            vicinity_k=17,
        )
        u, v, weight = next(iter(topology.edges()))
        event = DynEvent(0, "edge-down", u, v, weight)
        adopted.apply(event)
        direct.apply(event)
        assert adopted.state_signature() == direct.state_signature()


def _two_cliques(bridge_weight: float = 1.0) -> Topology:
    """Two 4-cliques joined by the single bridge edge (3, 4)."""
    topology = TopologyBuilder(8)
    for base in (0, 4):
        for i in range(base, base + 4):
            for j in range(i + 1, base + 4):
                topology.add_edge(i, j, 1.0)
    topology.add_edge(3, 4, bridge_weight)
    return topology.freeze()


class TestMaintenanceEdgeCases:
    def test_event_at_dead_node_is_noop(self):
        topology = gnm_random_graph(32, seed=2, average_degree=5.0)
        engine = ChurnEngine(topology, seed=0)
        engine.apply(DynEvent(0, "node-leave", 5))
        before = engine.state_signature()
        for event in (
            DynEvent(1, "edge-down", 5, 6),
            DynEvent(1, "edge-up", 5, 7, 1.0),
            DynEvent(1, "edge-reweight", 5, 6, 2.0),
            DynEvent(1, "node-leave", 5),
        ):
            report = engine.apply(event)
            assert not report.applied
            assert report.cost.total_incremental_entries == 0
        assert engine.state_signature() == before

    @pytest.mark.parametrize(
        "kind, u, v, weight",
        [
            pytest.param("edge-up", 4, 4, 1.0, id="self-loop"),
            pytest.param("edge-up", 0, 32, 1.0, id="endpoint-out-of-range"),
            pytest.param("edge-up", 0, "absent", 0.0, id="zero-weight"),
            pytest.param("edge-reweight", "u", "v", -1.0, id="negative-weight"),
            pytest.param("edge-up", "u", "v", "w", id="recover-a-present-edge"),
            pytest.param("edge-down", "absent", 0, 0.0, id="fail-an-absent-edge"),
            pytest.param(
                "edge-reweight", 0, "absent", 2.0, id="reweight-an-absent-edge"
            ),
            pytest.param(
                "edge-reweight", "v", "u", "w",
                id="reweight-to-the-current-weight",
            ),
            pytest.param("node-join", 3, -1, 0.0, id="join-a-live-node"),
            pytest.param("node-leave", 32, -1, 0.0, id="leave-out-of-range"),
            pytest.param("node-leave", -1, -1, 0.0, id="leave-a-negative-id"),
        ],
    )
    def test_infeasible_event_is_a_no_op(self, kind, u, v, weight):
        # Each guard on ``ChurnEngine.apply``'s edge, leave and join paths:
        # the event is reported unapplied, bills nothing, changes nothing.
        # "u", "v", "w" are the first edge, "absent" a non-neighbour of 0.
        topology = gnm_random_graph(32, seed=2, average_degree=5.0)
        edge_u, edge_v, edge_w = next(iter(sorted(topology.edges())))
        absent = next(w for w in range(1, 32) if not topology.has_edge(0, w))
        named = {"u": edge_u, "v": edge_v, "w": edge_w, "absent": absent}
        event = DynEvent(
            1, kind, named.get(u, u), named.get(v, v), named.get(weight, weight)
        )
        engine = ChurnEngine(topology, seed=0)
        before = engine.state_signature()
        report = engine.apply(event)
        assert not report.applied
        assert report.cost.total_incremental_entries == 0
        assert engine.dead_nodes == set()
        assert engine.topology.content_key() == topology.content_key()
        assert engine.state_signature() == before

    def test_duplicate_events_in_one_tick(self):
        topology = gnm_random_graph(32, seed=2, average_degree=5.0)
        u, v, _ = next(iter(sorted(topology.edges())))
        engine = ChurnEngine(topology, seed=0)
        first, second = engine.run(
            [
                DynEvent(0, "edge-down", u, v),
                DynEvent(0, "edge-down", u, v),
            ]
        )
        assert first.applied and not second.applied
        assert engine.state_signature() == _oracle(engine).state_signature()

    def test_partition_isolating_every_landmark(self):
        topology = _two_cliques()
        engine = ChurnEngine(topology, seed=0, landmarks=[0, 1])
        engine.apply(DynEvent(0, "edge-down", 3, 4))
        # Every node in the far clique has no reachable landmark: no
        # closest fold, no address -- and the engine still matches full
        # reconvergence on the partitioned topology.
        closest, closest_dist = engine.tables.closest, engine.tables.closest_dist
        for node in range(4, 8):
            assert closest[node] == -1
            assert closest_dist[node] == math.inf
        for node in range(4):
            assert closest[node] in (0, 1)
        assert engine.state_signature() == _oracle(engine).state_signature()

    def test_heal_after_full_partition(self):
        topology = _two_cliques()
        engine = ChurnEngine(topology, seed=0, landmarks=[0, 1])
        engine.apply(DynEvent(0, "edge-down", 3, 4))
        engine.apply(DynEvent(1, "edge-up", 3, 4, 1.0))
        pristine = ChurnEngine(topology, seed=0, landmarks=[0, 1])
        assert engine.state_signature() == pristine.state_signature()
        # And addresses exist again for the formerly isolated side.
        assert all(landmark >= 0 for landmark in engine.tables.closest)


class TestLiveTables:
    def test_tables_match_scratch_rebuild_after_every_event(self):
        """No sync step: the engine repairs the tables it hands out."""
        topology = gnm_random_graph(48, seed=5, average_degree=6.0)
        landmarks = select_landmarks(48, seed=5)
        engine = ChurnEngine(topology, seed=5, landmarks=landmarks)
        tables = engine.tables
        assert_tables_match_fresh_build(engine)
        for event in generate_churn_workload(topology, num_events=6, seed=13):
            engine.apply(event)
            assert engine.tables is tables
            assert_tables_match_fresh_build(engine)

    def test_adopted_tables_are_a_private_copy(self):
        topology = geometric_random_graph(40, seed=7, average_degree=5.0)
        routing = NDDiscoRouting(topology, seed=7)
        before = [bytes(slab) for _, _, slab in routing.tables.slab_items()]
        engine = engine_from_routing(routing)
        assert_tables_match_fresh_build(engine)
        engine.run(generate_event_stream(topology, num_events=8, seed=7))
        assert_tables_match_fresh_build(engine)
        assert before == [
            bytes(slab) for _, _, slab in routing.tables.slab_items()
        ]

    @pytest.mark.parametrize("landmarks", [[], [99], [-1]])
    def test_rejects_empty_and_out_of_range_landmarks(self, landmarks):
        """The builder's own checks: an empty set used to converge silently
        to a state whose every address is ``None``."""
        topology = gnm_random_graph(32, seed=2, average_degree=5.0)
        with pytest.raises(ValueError):
            ChurnEngine(topology, landmarks=landmarks)
