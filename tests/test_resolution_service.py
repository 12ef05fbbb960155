"""Property-based differential suite for the sharded resolution service.

The serving layer (:mod:`repro.resolution`) re-implements the converged
§4.3/§4.4 structures with serving-grade data structures (bisect rings,
prefix-range contact lookup, arc-scoped rebalance).  Every one of those
re-implementations is pinned here against brute-force recomputation or
the converged-state oracles:

* :class:`VNodeRing` vs :func:`naive_successors` (here) and the mutable
  ``ConsistentHashRing`` it replaced (``tests/oracles/hash_ring.py``)
  across randomized memberships, virtual-node counts, and churn sequences
  -- including a forced token-collision run that exercises the nudge
  fallback;
* :class:`ShardedResolutionService` at r=1 vs the record-by-record
  resolution database with a soft-state clock
  (``tests/oracles/resolution_db.py``: home shards, load distribution,
  lookups, expiry), which the converged
  :class:`LandmarkResolutionDatabase`'s counts are held to;
* arc-filtered rebalance vs full placement recomputation under random
  join/leave sequences;
* the service's ring-order record index vs ``sorted(records)`` and the
  brute-force interval scan it replaced (kept here as the oracle), after
  every operation of random insert / populate / expire / join / leave
  sequences, plus its pinned cost (hash reads per rebalance);
* :class:`SloppyGrouping` one-bit-disagreement core-group invariant under
  factor-of-two estimate skew, and :class:`GroupContactIndex` vs the
  oracle's full-scan contact selection;
* soft-state 2t+1 expiry over a refresh stream applied in sorted tick
  order (no record served past its window; refreshes never reshuffle
  placement), and shard events applied by ``run_traffic`` in tick order,
  stream order within a tick;
* the traffic engine's determinism and tick-segment merge equality, seven
  ``run_traffic`` bills frozen before the index existed, and the
  resolution scenarios' serial-vs-workers byte identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.naming.consistent_hash as consistent_hash_module
from oracles.hash_ring import ConsistentHashRing, in_clockwise_interval
from oracles.resolution_db import SoftStateDatabase
from oracles.sloppy_groups import best_group_contact
from repro.addressing.address import Address
from repro.addressing.explicit_route import ExplicitRoute
from repro.core.nddisco import NDDiscoRouting
from repro.core.sloppy_groups import SloppyGrouping
from repro.dynamics.stream import DynEvent
from repro.experiments.config import ExperimentScale
from repro.graphs.generators import gnm_random_graph
from repro.cli import main as cli_main
from repro.naming import HASH_SPACE, FlatName, name_for_node
from repro.naming.consistent_hash import ring_point
from repro.naming.hashspace import common_prefix_length
from repro.resolution import (
    GroupContactIndex,
    ShardedResolutionService,
    TrafficReport,
    VNodeRing,
    generate_lookup_workload,
    run_traffic,
)
from repro.resolution.service import RebalanceReport
from repro.scenarios.engine import run_scenarios

_SETTINGS = settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_servers = st.lists(
    st.integers(min_value=0, max_value=10**6),
    min_size=1,
    max_size=20,
    unique=True,
)
_vnodes = st.integers(min_value=1, max_value=6)
_keys = st.integers(min_value=0, max_value=HASH_SPACE - 1)


def _address(node: int) -> Address:
    """A minimal valid address (the node is its own landmark)."""
    return Address(
        node=node,
        landmark=node,
        route=ExplicitRoute(path=(node,), labels=(), bits=0),
    )


def _names(count: int):
    return [name_for_node(node) for node in range(count)]


class TestVNodeRingOracle:
    @_SETTINGS
    @given(servers=_servers, vnodes=_vnodes, key=_keys)
    def test_successor_matches_oracle_ring_and_naive_scan(
        self, servers, vnodes, key
    ):
        ring = VNodeRing(servers, virtual_nodes=vnodes)
        oracle = ConsistentHashRing(sorted(servers), virtual_nodes=vnodes)
        assert ring.successor(key) == oracle.owner(key)
        assert ring.successor(key) == naive_successors(
            servers, key, 1, virtual_nodes=vnodes
        )[0]

    @_SETTINGS
    @given(
        servers=_servers,
        vnodes=_vnodes,
        key=_keys,
        count=st.integers(min_value=1, max_value=6),
    )
    def test_replica_sets_match_naive_scan(self, servers, vnodes, key, count):
        ring = VNodeRing(servers, virtual_nodes=vnodes)
        assert ring.successors(key, count) == naive_successors(
            servers, key, count, virtual_nodes=vnodes
        )

    @_SETTINGS
    @given(
        initial=_servers,
        vnodes=_vnodes,
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
            max_size=12,
        ),
    )
    def test_incremental_churn_matches_from_scratch(self, initial, vnodes, ops):
        ring = VNodeRing(initial, virtual_nodes=vnodes)
        members = set(initial)
        for add, server in ops:
            if add:
                ring = ring.with_server(server)
                members.add(server)
            elif server in members and len(members) > 1:
                ring = ring.without_server(server)
                members.discard(server)
            scratch = VNodeRing(sorted(members), virtual_nodes=vnodes)
            assert ring.servers == scratch.servers
            assert ring.tokens == scratch.tokens
            for token in scratch.tokens:
                assert ring.successor(token) == scratch.successor(token)
                assert ring.successor(token + 1) == scratch.successor(token + 1)

    def test_forced_collision_nudge_matches_oracle(self, monkeypatch):
        # A degenerate point function that collides constantly forces the
        # deterministic nudge on both sides; the incremental paths must
        # detect it and fall back to from-scratch rebuilds.
        def colliding_point(server, replica):
            return (1000 * ((server % 4) + 1)) % HASH_SPACE

        monkeypatch.setattr(consistent_hash_module, "ring_point", colliding_point)
        members = [3, 7, 11, 19, 23]
        ring = VNodeRing(members, virtual_nodes=3)
        probes = list(range(0, 6000, 37)) + [HASH_SPACE - 1]
        for churned in (5, 7, 42, 11):
            if churned in ring:
                ring = ring.without_server(churned)
                members.remove(churned)
            else:
                ring = ring.with_server(churned)
                members.append(churned)
            oracle = ConsistentHashRing(sorted(members), virtual_nodes=3)
            for key in probes:
                assert ring.successor(key) == oracle.owner(key)


class TestServiceVsOracleDatabase:
    @_SETTINGS
    @given(
        landmarks=_servers,
        vnodes=st.integers(min_value=1, max_value=4),
        num_names=st.integers(min_value=1, max_value=48),
    )
    def test_single_home_placement_matches_oracle(
        self, landmarks, vnodes, num_names
    ):
        service = ShardedResolutionService(
            landmarks, virtual_nodes=vnodes, replicas=1
        )
        oracle = SoftStateDatabase(landmarks, virtual_nodes=vnodes)
        names = _names(num_names)
        addresses = [_address(node) for node in range(num_names)]
        service.populate(names, addresses)
        oracle.populate(names, addresses)
        for name in names:
            assert service.home_shard(name) == oracle.home_landmark(name)
            assert service.placement_of(name) == (oracle.home_landmark(name),)
            assert service.lookup_record(name) == oracle.lookup_record(name)
        assert service.load_distribution() == oracle.load_distribution()

    @_SETTINGS
    @given(
        landmarks=_servers,
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=32,
        ),
        now=st.floats(min_value=0.0, max_value=150.0),
    )
    def test_expiry_matches_oracle(self, landmarks, times, now):
        service = ShardedResolutionService(landmarks, refresh_interval=10.0)
        oracle = SoftStateDatabase(landmarks, refresh_interval=10.0)
        names = _names(len(times))
        for node, inserted_at in enumerate(times):
            service.populate([names[node]], [_address(node)], now=inserted_at)
            oracle.insert(names[node], _address(node), now=inserted_at)
        assert service.expire_older_than(now) == oracle.expire_older_than(now)
        for name in names:
            assert service.lookup_record(name) == oracle.lookup_record(name)
        assert service.load_distribution() == oracle.load_distribution()


class TestRebalanceDifferential:
    @_SETTINGS
    @given(
        initial=st.lists(
            st.integers(min_value=0, max_value=60),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        replicas=st.integers(min_value=1, max_value=3),
        vnodes=st.integers(min_value=1, max_value=4),
        num_names=st.integers(min_value=1, max_value=40),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=60)),
            max_size=10,
        ),
    )
    def test_arc_scoped_rebalance_equals_bruteforce(
        self, initial, replicas, vnodes, num_names, ops
    ):
        service = ShardedResolutionService(
            initial, virtual_nodes=vnodes, replicas=replicas
        )
        names = _names(num_names)
        service.populate(names, [_address(node) for node in range(num_names)])
        members = set(initial)
        for add, shard in ops:
            if add and shard not in members:
                service.add_shard(shard)
                members.add(shard)
            elif not add and shard in members and len(members) > 1:
                # Graceful drain keeps every record, so placements stay
                # comparable against the brute-force oracle.
                service.remove_shard(shard, lost=False)
                members.discard(shard)
            counts = {shard: 0 for shard in members}
            for name in names:
                expected = naive_successors(
                    sorted(members),
                    name.hash_value,
                    replicas,
                    virtual_nodes=vnodes,
                )
                assert service.placement_of(name) == expected
                assert service.compute_placement(name) == expected
                for holder in expected:
                    counts[holder] += 1
            assert service.load_distribution() == counts

    def test_lost_shard_drops_sole_copies_until_refresh(self):
        landmarks = list(range(8))
        names = _names(64)
        addresses = [_address(node) for node in range(64)]
        service = ShardedResolutionService(landmarks, replicas=1)
        service.populate(names, addresses)
        victim = service.home_shard(names[0])
        homed = [name for name in names if service.home_shard(name) == victim]
        report = service.remove_shard(victim, lost=True)
        assert report.kind == "leave"
        assert report.lost_records == len(homed)
        for name in names:
            if name in homed:
                assert service.lookup_record(name) is None
            else:
                assert service.lookup_record(name) is not None
        # The owner's next soft-state refresh restores the record.
        service.populate(names[:1], addresses[:1], now=1.0)
        assert service.lookup_record(names[0]) is not None

    def test_replicated_records_survive_shard_loss(self):
        landmarks = list(range(8))
        names = _names(64)
        service = ShardedResolutionService(landmarks, replicas=2)
        service.populate(names, [_address(node) for node in range(64)])
        victim = landmarks[3]
        affected = [
            name for name in names if victim in service.placement_of(name)
        ]
        report = service.remove_shard(victim, lost=True)
        assert report.lost_records == 0
        # Every affected record re-replicates exactly its lost copy.
        assert report.moved_copies == len(affected)
        for name in names:
            assert service.lookup_record(name) is not None
            assert victim not in service.placement_of(name)

    def test_join_scan_is_arc_scoped(self):
        service = ShardedResolutionService(range(16), replicas=1)
        names = _names(256)
        service.populate(names, [_address(node) for node in range(256)])
        report = service.add_shard(99)
        assert not report.whole_ring
        assert report.scanned < len(names)
        assert report.moved_copies == service.entries_at(99)


def _forged(label: str, hash_value: int) -> FlatName:
    """A name moved to ``hash_value`` (the slot is plain state)."""
    name = FlatName(label)
    name._hash_value = hash_value
    return name


def naive_successors(
    servers,
    key: int,
    count: int,
    *,
    virtual_nodes: int = 1,
) -> tuple[int, ...]:
    """Brute-force successor computation: the full-scan placement oracle.

    Recomputes every ring point with :func:`ring_point`, sorts all of them
    by clockwise distance from ``key``, and collects the first ``count``
    distinct owners.  Quadratic and allocation-happy by design -- this is
    the reference the service's bisect ring is differentially pinned
    against.  Ignores the (astronomically unlikely) token-collision nudge,
    which the differential suite separately forces and checks.
    """
    assert count > 0
    points: list[tuple[int, int]] = []
    for server in sorted(set(servers)):
        for replica in range(virtual_nodes):
            points.append((ring_point(server, replica), server))
    if not points:
        raise LookupError("no servers")
    key %= HASH_SPACE
    points.sort(key=lambda pair: ((pair[0] - key) % HASH_SPACE, pair[0]))
    result: list[int] = []
    for _, server in points:
        if server not in result:
            result.append(server)
            if len(result) == count:
                break
    return tuple(result)


def _scan_oracle(service, arcs):
    """The scan the index replaced: every stored name, sorted, arc-tested."""
    return [
        name
        for name in sorted(service._records)
        if arcs is None
        or any(
            in_clockwise_interval(name.hash_value, start, end, inclusive_end=True)
            for start, end in arcs
        )
    ]


def _brute_placement(service, members, name):
    """``name``'s replica set over ``members``, by the full-scan oracle."""
    return naive_successors(
        sorted(members),
        name.hash_value,
        service.replicas,
        virtual_nodes=service.ring.virtual_nodes,
    )


def _check_service(service, members):
    """Index = sorted records; stored = computed = brute-force placement."""
    assert [name for _, name in service._index] == sorted(service._records)
    assert all(key == name.hash_value for key, name in service._index)
    assert service._placements.keys() == service._records.keys()
    counts = dict.fromkeys(members, 0)
    for name in service._records:
        expected = _brute_placement(service, members, name)
        assert service.placement_of(name) == expected
        assert service.compute_placement(name) == expected
        for holder in expected:
            counts[holder] += 1
    assert service.load_distribution() == counts


def _rebalance(service, members, shard, *, join, lost=True):
    """One join/leave, checked against brute force; returns the names visited.

    The names the rebalance reads must equal, in order, what the old
    full-table scan kept, and the report must equal the one recomputing
    every visited placement on the rings before and after predicts.
    """
    before = set(members)
    after = before | {shard} if join else before - {shard}
    holding = VNodeRing(
        sorted(after if join else before),
        virtual_nodes=service.ring.virtual_nodes,
    )
    arcs = holding.affected_arcs(shard, service.replicas)
    expected = _scan_oracle(service, arcs)
    moved = dropped = 0
    for name in expected:
        old = set(_brute_placement(service, before, name)) - {shard}
        if not join and lost and not old:
            dropped += 1
        else:
            moved += len(set(_brute_placement(service, after, name)) - old)
    visits = []
    scan = service._affected_names
    service._affected_names = lambda arcs: visits.append(scan(arcs)) or visits[-1]
    try:
        if join:
            report = service.add_shard(shard)
        else:
            report = service.remove_shard(shard, lost=lost)
    finally:
        del service._affected_names
    assert visits == [expected]
    assert report == RebalanceReport(
        shard=shard,
        kind="join" if join else "leave",
        scanned=len(expected),
        moved_copies=moved,
        lost_records=dropped,
        arcs=0 if arcs is None else len(arcs),
        whole_ring=arcs is None,
    )
    return expected


_shard_ids = st.integers(min_value=0, max_value=24)
_name_ids = st.integers(min_value=0, max_value=47)
_index_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _name_ids),
        st.tuples(st.just("populate"), st.lists(_name_ids, max_size=12)),
        st.tuples(st.just("expire"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.sampled_from(["join", "crash", "drain"]), _shard_ids),
    ),
    max_size=14,
)


class TestRingOrderIndex:
    """The service's sorted record index against the scan it replaced."""

    @settings(_SETTINGS, max_examples=60)
    @given(
        initial=st.lists(_shard_ids, min_size=1, max_size=8, unique=True),
        replicas=st.integers(min_value=1, max_value=3),
        vnodes=st.integers(min_value=1, max_value=4),
        ops=_index_ops,
    )
    def test_index_tracks_every_operation(self, initial, replicas, vnodes, ops):
        service = ShardedResolutionService(
            initial, virtual_nodes=vnodes, replicas=replicas, refresh_interval=2.0
        )
        members = set(initial)
        names = _names(48)
        stored: dict[FlatName, float] = {}  # the model: name -> inserted_at
        now = 0.0
        for kind, arg in ops:
            now += 1.0
            if kind == "insert":
                # One name: the bisect insert into the index.
                service.populate([names[arg]], [_address(arg)], now=now)
                assert service.placement_of(names[arg]) == (
                    service.compute_placement(names[arg])
                )
                stored[names[arg]] = now
            elif kind == "populate":
                # New, live and repeated names in one call.
                service.populate(
                    [names[i] for i in arg], [_address(i) for i in arg], now=now
                )
                stored.update((names[i], now) for i in arg)
            elif kind == "expire":
                now += arg
                stale = [
                    name
                    for name, inserted in stored.items()
                    if inserted < now - service.timeout
                ]
                assert service.expire_older_than(now) == len(stale)
                for name in stale:
                    del stored[name]
            elif kind == "join":
                if arg not in members:
                    _rebalance(service, members, arg, join=True)
                    members.add(arg)
            elif arg in members and len(members) > 1:
                if kind == "crash":
                    for name in list(stored):
                        if service.placement_of(name) == (arg,):
                            del stored[name]
                _rebalance(
                    service, members, arg, join=False, lost=kind == "crash"
                )
                members.discard(arg)
            _check_service(service, members)
            assert {
                name: record.inserted_at
                for name, record in service._records.items()
            } == stored

    def test_arc_wrapping_zero_holds_both_ends_of_the_hash_space(self):
        shards = set(range(8))
        service = ShardedResolutionService(shards, virtual_nodes=4, replicas=1)
        first, last = _forged("first", 0), _forged("last", HASH_SPACE - 1)
        names = _names(512) + [last, first]
        service.populate(names, [_address(0)] * len(names))
        victim = service.ring.successor(0)
        arcs = service.ring.affected_arcs(victim, 1)
        assert len(arcs) == 4
        assert arcs[0][0] > arcs[0][1]  # the first token's arc wraps
        visited = _rebalance(service, shards, victim, join=False)
        # Ascending ring order although the wrapping arc comes first: hash
        # 0 leads, the other arcs' names follow, 2^64 - 1 closes.
        assert visited[0] is first and visited[-1] is last
        for start, end in arcs:
            assert any(
                in_clockwise_interval(name.hash_value, start, end)
                for name in visited[1:-1]
            )
        assert service.lookup_record(first) is None and service.lookup_record(last) is None
        _check_service(service, shards - {victim})
        service.populate([last, first], [_address(0)] * 2, now=1.0)
        visited = _rebalance(service, shards - {victim}, victim, join=True)
        assert visited[0] is first and visited[-1] is last
        _check_service(service, shards)

    def test_arc_excludes_its_start_and_includes_its_end(self):
        shards = set(range(8))
        service = ShardedResolutionService(shards, virtual_nodes=2, replicas=2)
        victim = 3
        start, end = max(
            service.ring.affected_arcs(victim, 2), key=lambda arc: arc[1] - arc[0]
        )
        assert end - start > 2
        # Two names share the start's hash and two the end's, stored in
        # reverse raw order: equal hashes fall to FlatName's own order (by
        # raw), and an arc's ends take or leave both names.
        at_start = [_forged("start-b", start), _forged("start-a", start)]
        after_start = _forged("after-start", start + 1)
        at_end = [_forged("end-b", end), _forged("end-a", end)]
        after_end = _forged("after-end", end + 1)
        middle = (start + end) // 2
        names = _names(32) + at_start + [after_start] + at_end + [after_end]
        names.append(_forged("middle", middle))
        service.populate(names, [_address(0)] * len(names))
        inside = service._affected_names([(start, end)])
        assert inside == _scan_oracle(service, [(start, end)])
        assert inside[0] is after_start
        assert inside[-2:] == [at_end[1], at_end[0]]
        assert not {*at_start, after_end} & set(inside)
        # Arcs that overlap, nest or touch yield each name once, in order.
        for arcs in (
            [(middle - 1, end + 1), (start, middle)],
            [(start, end), (middle - 1, middle)],
            [(start, end), (middle - 1, middle), (middle, end + 1)],
            [(middle, end), (start, middle), (HASH_SPACE - 1, start)],
        ):
            assert service._affected_names(arcs) == _scan_oracle(service, arcs)
        _rebalance(service, shards, victim, join=False)
        _check_service(service, shards - {victim})

    def test_whole_ring_when_membership_is_within_the_replicas(self):
        service = ShardedResolutionService([4, 9], replicas=2, virtual_nodes=3)
        names = _names(40)
        service.populate(names, [_address(0)] * 40)
        for shard, join, members in ((9, False, {4, 9}), (9, True, {4})):
            visited = _rebalance(service, members, shard, join=join)
            assert visited == sorted(names)
        _check_service(service, {4, 9})

    def test_sole_copy_loss_then_the_owners_reinsert(self):
        shards = set(range(8))
        service = ShardedResolutionService(shards, virtual_nodes=4, replicas=1)
        names = _names(96)
        service.populate(names, [_address(0)] * 96)
        victim = service.home_shard(names[0])
        lost = [name for name in names if service.home_shard(name) == victim]
        visited = _rebalance(service, shards, victim, join=False)
        assert visited == sorted(lost)
        assert len(service) == 96 - len(lost)
        _check_service(service, shards - {victim})
        service.populate(names[:1], [_address(0)], now=1.0)
        assert service.placement_of(names[0]) == _brute_placement(
            service, shards - {victim}, names[0]
        )
        _check_service(service, shards - {victim})
        service.populate(names, [_address(0)] * 96, now=2.0)
        assert len(service) == 96
        _check_service(service, shards - {victim})

    def test_join_after_every_record_expired(self):
        service = ShardedResolutionService(
            range(6), replicas=2, virtual_nodes=2, refresh_interval=2.0
        )
        names = _names(40)
        service.populate(names, [_address(0)] * 40)
        assert service.expire_older_than(100.0) == 40
        assert service._index == [] and len(service) == 0
        report = service.add_shard(17)
        assert (report.scanned, report.moved_copies) == (0, 0)
        assert set(service.load_distribution().values()) == {0}
        service.populate(names, [_address(0)] * 40, now=100.0)
        _check_service(service, set(range(6)) | {17})

    def test_populate_indexes_what_it_stored_before_an_error(self):
        service = ShardedResolutionService(range(4))
        names = _names(5)
        with pytest.raises(AttributeError):
            service.populate(names + ["not-a-name"], [_address(0)] * 6)
        assert len(service) == 5
        _check_service(service, set(range(4)))

    def test_rebalance_reads_the_moved_arcs_not_the_table(self, monkeypatch):
        """Structural cost: hash reads per rebalance, not wall clock."""
        service = ShardedResolutionService(
            range(32), replicas=2, virtual_nodes=8
        )
        names = _names(4096)
        service.populate(names, [_address(0)] * 4096)
        reads = []
        read_hash = FlatName.hash_value.fget
        monkeypatch.setattr(
            FlatName,
            "hash_value",
            property(lambda name: reads.append(name) or read_hash(name)),
        )
        left = service.remove_shard(5, lost=True)
        joined = service.add_shard(5)
        scanned = left.scanned + joined.scanned
        # The scan this replaced read every stored hash on each rebalance
        # (>= 8192 here); the index reads one per record in the arcs.
        assert 0 < scanned < 4096 // 4
        assert scanned <= len(reads) <= 2 * scanned

    def test_refresh_of_live_names_leaves_the_index_alone(self):
        class Spy(list):
            calls: list[str] = []

            def insert(self, *args):
                self.calls.append("insert")
                super().insert(*args)

            def extend(self, *args):
                self.calls.append("extend")
                super().extend(*args)

            def sort(self, *args, **kwargs):
                self.calls.append("sort")
                super().sort(*args, **kwargs)

        service = ShardedResolutionService(range(8), replicas=2, virtual_nodes=4)
        names = _names(256)
        service.populate(names[:200], [_address(0)] * 200)
        spy = service._index = Spy(service._index)
        service.populate(names[:200], [_address(0)] * 200, now=1.0)
        service.populate([names[7]], [_address(7)], now=2.0)
        assert Spy.calls == [] and service._index is spy
        # One new name is one bisect insert; several are one sort.
        service.populate(names[:201], [_address(0)] * 201, now=3.0)
        assert Spy.calls == ["insert"]
        service.populate(names, [_address(0)] * 256, now=4.0)
        assert Spy.calls == ["insert", "extend", "sort"]
        _check_service(service, set(range(8)))


class TestSloppyGroupingSkew:
    @_SETTINGS
    @given(
        num_nodes=st.integers(min_value=16, max_value=96),
        factors=st.lists(
            st.floats(min_value=0.5, max_value=2.0),
            min_size=96,
            max_size=96,
        ),
    )
    def test_core_groups_survive_factor_two_estimate_skew(
        self, num_nodes, factors
    ):
        estimates = {
            node: num_nodes * factors[node] for node in range(num_nodes)
        }
        grouping = SloppyGrouping(_names(num_nodes), estimates)
        bits = [grouping.prefix_bits_of(node) for node in range(num_nodes)]
        # Factor-of-two skew moves log2(sqrt(n)) by at most 1/2 either way,
        # so any two nodes' prefix lengths disagree by at most one bit.
        assert max(bits) - min(bits) <= 1
        k_max = max(bits)
        for u in range(num_nodes):
            for v in range(u + 1, num_nodes):
                if (
                    common_prefix_length(
                        grouping.hash_of(u), grouping.hash_of(v)
                    )
                    >= k_max
                ):
                    assert grouping.stores_address_of(u, v)
                    assert grouping.stores_address_of(v, u)

    @_SETTINGS
    @given(
        num_nodes=st.integers(min_value=8, max_value=64),
        estimate=st.floats(min_value=4.0, max_value=2.0**24),
        data=st.data(),
    )
    def test_contact_index_matches_full_scan_oracle(
        self, num_nodes, estimate, data
    ):
        grouping = SloppyGrouping(_names(num_nodes), estimate)
        index = GroupContactIndex(grouping)
        source = data.draw(st.integers(min_value=0, max_value=num_nodes - 1))
        members = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_nodes - 1),
                min_size=1,
                max_size=num_nodes,
                unique=True,
            )
        )
        distances = {
            node: data.draw(
                st.floats(min_value=0.0, max_value=50.0), label=f"d{node}"
            )
            for node in members
        }
        row = (list(distances), list(distances.values()))
        for target in range(num_nodes):
            expected = best_group_contact(grouping, target, distances)
            assert index.best_contact(source, target, row) == (
                distances[expected], expected
            )
            # Cached-table path must answer identically.
            assert index.best_contact(source, target, row) == (
                distances[expected], expected
            )


class TestSoftState:
    def test_expiry_over_a_sorted_refresh_stream(self):
        """Refreshes applied in tick order: 2t+1 served-staleness cap."""
        refresh_interval = 4.0
        num_nodes = 24
        names = _names(num_nodes)
        service = ShardedResolutionService(
            range(6), replicas=2, refresh_interval=refresh_interval
        )
        timeout = service.timeout
        horizon = 64
        # Node v refreshes every (3 + v % 9) ticks -- some inside, some
        # far outside the 2t+1 = 9 tick window.  Generated node by node,
        # applied tick by tick.
        refreshes = [
            DynEvent(tick, "node-join", node)
            for node in range(num_nodes)
            for tick in range(0, horizon, 3 + node % 9)
        ]
        pending = iter(sorted(refreshes, key=lambda event: event.tick))
        last_insert = {}
        event = next(pending, None)
        for tick in range(horizon):
            while event is not None and event.tick == tick:
                node = event.u
                before = (
                    service.placement_of(names[node])
                    if names[node] in last_insert
                    else None
                )
                service.populate([names[node]], [_address(node)], now=float(tick))
                if before is not None:
                    # Membership never changed, so a refresh never
                    # reshuffles placement.
                    assert service.placement_of(names[node]) == before
                last_insert[names[node]] = float(tick)
                event = next(pending, None)
            dropped = service.expire_older_than(float(tick))
            expected_dropped = [
                name
                for name, inserted in last_insert.items()
                if inserted < tick - timeout
            ]
            assert dropped == len(expected_dropped)
            for name in expected_dropped:
                del last_insert[name]
            for node in range(num_nodes):
                record = service.lookup_record(names[node], now=float(tick))
                if record is not None:
                    assert tick - record.inserted_at <= timeout
                    assert record.inserted_at == last_insert[names[node]]
        assert event is None

    def test_stale_record_not_served_before_sweep(self):
        service = ShardedResolutionService(range(4), refresh_interval=2.0)
        name = name_for_node(0)
        service.populate([name], [_address(0)], now=0.0)
        assert service.lookup_record(name, now=service.timeout) is not None
        # Past 2t+1 the record is dead even though no sweep dropped it yet.
        assert service.lookup_record(name, now=service.timeout + 1.5) is None
        assert len(service) == 1


@pytest.fixture(scope="module")
def small_routing():
    topology = gnm_random_graph(64, seed=5, average_degree=6.0)
    return NDDiscoRouting(topology, seed=5)


class TestTrafficEngine:
    def test_workload_is_deterministic_and_well_formed(self):
        workload = generate_lookup_workload(
            50,
            num_lookups=600,
            duration_ticks=40,
            seed=9,
            flash=(10, 18, 3.0),
        )
        again = generate_lookup_workload(
            50,
            num_lookups=600,
            duration_ticks=40,
            seed=9,
            flash=(10, 18, 3.0),
        )
        assert workload == again
        assert workload.num_lookups == 600
        assert list(workload.ticks) == sorted(workload.ticks)
        assert all(0 <= t < 40 for t in workload.ticks)
        assert all(
            requester != target
            for requester, target in zip(workload.requesters, workload.targets)
        )
        per_tick = [0] * 40
        for tick in workload.ticks:
            per_tick[tick] += 1
        flash_mean = sum(per_tick[10:18]) / 8
        calm_mean = sum(per_tick[:10] + per_tick[18:]) / 32
        assert flash_mean > 2 * calm_mean
        other_seed = generate_lookup_workload(
            50, num_lookups=600, duration_ticks=40, seed=10
        )
        assert other_seed != workload

    def test_zipf_popularity_is_skewed(self):
        workload = generate_lookup_workload(
            64, num_lookups=4000, duration_ticks=8, seed=2, zipf_exponent=1.0
        )
        counts: dict[int, int] = {}
        for target in workload.targets:
            counts[target] = counts.get(target, 0) + 1
        top = max(counts.values())
        assert top > 3 * (4000 / 64)

    def test_run_is_deterministic(self, small_routing):
        workload = generate_lookup_workload(
            64, num_lookups=800, duration_ticks=32, seed=4
        )
        kwargs = dict(replicas=2, virtual_nodes=4, refresh_interval=8)
        assert run_traffic(small_routing, workload, **kwargs) == run_traffic(
            small_routing, workload, **kwargs
        )

    def test_segment_merge_matches_serial(self, small_routing):
        workload = generate_lookup_workload(
            64, num_lookups=800, duration_ticks=32, seed=4, flash=(8, 12, 3.0)
        )
        landmarks = sorted(small_routing.landmarks)
        events = [
            DynEvent(6, "node-leave", landmarks[0]),
            DynEvent(20, "node-join", landmarks[0]),
        ]
        kwargs = dict(
            replicas=2,
            virtual_nodes=4,
            refresh_interval=8,
            shard_events=events,
        )
        serial = run_traffic(small_routing, workload, **kwargs)
        segments = [
            run_traffic(small_routing, workload, bill_ticks=bounds, **kwargs)
            for bounds in [(0, 7), (7, 19), (19, 32)]
        ]
        merged = TrafficReport.merge(segments)
        # Everything except the cache stats is independent of how the
        # timeline is split; the per-segment caches start cold, so their
        # counters sum rather than reproduce the single warm cache.
        assert merged.lookups == serial.lookups
        assert merged.group_hits == serial.group_hits
        assert merged.ring_hits == serial.ring_hits
        assert merged.misses == serial.misses
        assert merged.latencies == serial.latencies
        assert merged.staleness == serial.staleness
        assert merged.hops == serial.hops
        assert merged.shard_loads == serial.shard_loads
        assert merged.expired_records == serial.expired_records
        assert merged.rebalances == serial.rebalances
        assert merged.bill_ticks == serial.bill_ticks

    def test_shard_events_apply_in_tick_then_stream_order(self, small_routing):
        workload = generate_lookup_workload(
            64, num_lookups=400, duration_ticks=32, seed=4
        )
        first, second = sorted(small_routing.landmarks)[:2]
        # Out of order, with two same-tick pairs.  At tick 9 the second
        # shard crashes and then rejoins; the other way round the join
        # would be a no-op and the shard would stay down.
        events = [
            DynEvent(20, "node-join", first),
            DynEvent(9, "node-leave", second),
            DynEvent(6, "node-leave", first),
            DynEvent(9, "node-join", second),
            DynEvent(20, "node-leave", second),
        ]
        kwargs = dict(replicas=2, virtual_nodes=4, refresh_interval=8)
        report = run_traffic(
            small_routing, workload, shard_events=events, **kwargs
        )
        assert [(r.shard, r.kind) for r in report.rebalances] == [
            (first, "leave"),
            (second, "leave"),
            (second, "join"),
            (first, "join"),
            (second, "leave"),
        ]
        in_order = [events[2], events[1], events[3], events[0], events[4]]
        assert report == run_traffic(
            small_routing, workload, shard_events=in_order, **kwargs
        )

    def test_served_staleness_capped_by_timeout(self, small_routing):
        workload = generate_lookup_workload(
            64, num_lookups=800, duration_ticks=48, seed=6
        )
        landmarks = sorted(small_routing.landmarks)
        events = [
            DynEvent(5, "node-leave", landmarks[1]),
            DynEvent(25, "node-join", landmarks[1]),
        ]
        report = run_traffic(
            small_routing,
            workload,
            replicas=1,
            refresh_interval=8,
            shard_events=events,
        )
        timeout = 2 * 8 + 1
        assert report.lookups == 800
        assert all(age <= timeout for age in report.staleness)
        assert all(math.isfinite(latency) for latency in report.latencies)


# sha256 of repr(TrafficReport) for _frozen_run(key), committed as literals:
# a digest that moves means a bill changed, not just its cost.  Frozen at
# f08d73b, `cache_stats` left out: computed on that commit, where hops were
# still path lengths read through the router cache, over the eleven fields
# the report has kept, which is its repr since.
_FROZEN_BILLS = {
    (1, 1, False): "979932d3d111f58ab548cc02cb435b4b79ef5cbec223c6ff2ccbb6b7a9bfd5d4",
    (1, 8, False): "c8b83406f7670510bd94a99eee494855b58941bae029a17d8fb53f410ec53a71",
    (2, 1, False): "a3e8fd007a52c45d87ab8a64e5438143abe289e5132979d232bc14289ed77632",
    (2, 8, False): "afef18abd4c3daa074fe119156c6c24e5d28a33e8796e820eb9af71bb632e654",
    (3, 1, False): "ebf56e8ee3e611223abc87978288c2bfa4188074aea27fc94aece73c4b713cb4",
    (3, 8, False): "f9d3a4238adf1aa17c2bb6f39cae58d50c253c08b7d019412b770c1955b7bc48",
    (2, 8, True): "890d990236322e26b53adf39ee4a06732fbabc99b46919328c116b8c9c0397d9",
}


def _frozen_run(routing, key, bill_ticks=None):
    """One traffic run of the frozen set: crashes, rejoins, a flash window."""
    replicas, vnodes, with_contacts = key
    workload = generate_lookup_workload(
        64, num_lookups=1500, duration_ticks=48, seed=11, flash=(20, 26, 3.0)
    )
    shards = sorted(routing.landmarks)
    events = [
        DynEvent(5, "node-leave", shards[0]),
        DynEvent(9, "node-leave", shards[7]),
        DynEvent(14, "node-join", shards[0]),
        DynEvent(30, "node-leave", shards[12]),
        DynEvent(33, "node-join", shards[7]),
        DynEvent(41, "node-join", shards[12]),
    ]
    contacts = None
    if with_contacts:
        contacts = GroupContactIndex(SloppyGrouping(routing.names, 2.0**14))
    return run_traffic(
        routing,
        workload,
        replicas=replicas,
        virtual_nodes=vnodes,
        refresh_interval=8,
        shard_events=events,
        contacts=contacts,
        bill_ticks=bill_ticks,
    )


def _digest(report) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()


class TestFrozenBills:
    @pytest.mark.parametrize("key", sorted(_FROZEN_BILLS))
    def test_bill_is_the_parents_and_the_merge_of_its_segments(
        self, small_routing, key
    ):
        serial = _frozen_run(small_routing, key)
        assert _digest(serial) == _FROZEN_BILLS[key]
        # The set exercises what it claims to: every path bills something,
        # and only single-copy placement loses records to a crash.
        assert serial.ring_hits and len(serial.rebalances) == 6
        lost = sum(report.lost_records for report in serial.rebalances)
        assert (lost > 0 and serial.misses > 0) == (key[0] == 1)
        assert bool(serial.group_hits) == key[2]
        merged = TrafficReport.merge(
            [
                _frozen_run(small_routing, key, bill_ticks=bounds)
                for bounds in [(0, 9), (9, 31), (31, 48)]
            ]
        )
        assert merged == serial
        assert len(dataclasses.fields(TrafficReport)) == 11

    def test_workload_naming_a_node_outside_the_substrate(self, small_routing):
        workload = generate_lookup_workload(
            64, num_lookups=50, duration_ticks=8, seed=1
        )
        for field, bad in (("requesters", 64), ("targets", -1)):
            ids = getattr(workload, field)[:]
            ids[10] = bad
            with pytest.raises(ValueError, match="outside 0..63"):
                run_traffic(
                    small_routing, dataclasses.replace(workload, **{field: ids})
                )


class TestResolveCli:
    def test_summary_explains_the_rebalances_and_the_payload_is_v2(
        self, tmp_path, capsys
    ):
        out = tmp_path / "resolve.json"
        argv = "resolve gnm 128 --lookups 600 --duration 32 --churn-shards 3"
        assert cli_main([*argv.split(), "--replicas", "1", "--json", str(out)]) == 0
        summary = re.search(
            r"(\d+) rebalances \(scanned (\d+) of 128 records stored, "
            r"moved (\d+) copies, lost (\d+) records\)",
            capsys.readouterr().out,
        )
        assert "cache" not in summary.string
        rebalances, scanned, moved, lost = map(int, summary.groups())
        # Single-copy placement: a crash loses what it scans, a rejoin
        # moves what it scans.
        assert rebalances == 6 and scanned == moved + lost and lost > 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-resolve-report/v2"
        assert payload["rebalances"] == 6
        assert sorted(payload) == [
            "expired_records", "family", "group_hits", "hops", "latency",
            "lookups", "misses", "nodes", "rebalances", "refresh_interval",
            "replicas", "ring_hits", "schema", "seed", "shard_loads", "shards",
            "staleness", "virtual_nodes",
        ]

    def test_cache_budget_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cli_main(["resolve", "gnm", "128", "--cache-budget", "4096"])
        assert raised.value.code == 2
        assert "--cache-budget" in capsys.readouterr().err


class TestResolutionScenarios:
    def test_scenarios_byte_identical_under_workers(self, tmp_path):
        scale = ExperimentScale(
            comparison_nodes=64,
            large_nodes=64,
            as_level_nodes=64,
            router_level_nodes=72,
            pair_sample=40,
            messaging_sweep=(20, 24),
            scaling_sweep=(40, 48),
            seed=17,
            label="tiny-resolution",
        )
        subset = [
            "resolution-latency",
            "resolution-staleness",
            "resolution-balance",
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_scenarios(
            subset, scale=scale, workers=1, json_dir=serial_dir, cache=None
        )
        parallel = run_scenarios(
            subset,
            scale=scale,
            workers=2,
            json_dir=parallel_dir,
            cache=tmp_path / "cache",
        )
        for scenario_id in subset:
            assert parallel[scenario_id].report == serial[scenario_id].report
            assert (parallel_dir / f"{scenario_id}.json").read_bytes() == (
                serial_dir / f"{scenario_id}.json"
            ).read_bytes()
        latency = json.loads((serial_dir / "resolution-latency.json").read_text())
        assert "hop_cdf" in latency["result"]
        assert "cache_stats" not in latency["result"]
        assert "cache" not in latency["report"]
