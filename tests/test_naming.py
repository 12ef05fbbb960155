"""Tests for repro.naming (names, hash space, consistent hashing)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.naming.consistent_hash import VNodeRing
from repro.naming.hashspace import (
    HASH_BITS,
    HASH_SPACE,
    circular_distance,
    clockwise_distance,
    common_prefix_length,
    hash_prefix,
)
from oracles.hash_ring import in_clockwise_interval
from repro.naming.names import FlatName, name_for_node

positions = st.integers(min_value=0, max_value=HASH_SPACE - 1)


class TestHashSpace:
    def test_clockwise_distance_basic(self):
        assert clockwise_distance(10, 15) == 5
        assert clockwise_distance(15, 10) == HASH_SPACE - 5
        assert clockwise_distance(7, 7) == 0

    def test_circular_distance_symmetric(self):
        assert circular_distance(10, 15) == 5
        assert circular_distance(15, 10) == 5

    def test_circular_distance_wraps(self):
        assert circular_distance(0, HASH_SPACE - 1) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            clockwise_distance(-1, 0)
        with pytest.raises(ValueError):
            clockwise_distance(0, HASH_SPACE)

    def test_in_clockwise_interval(self):
        assert in_clockwise_interval(5, 1, 10)
        assert not in_clockwise_interval(1, 1, 10)  # start excluded
        assert in_clockwise_interval(10, 1, 10)  # end included by default
        assert not in_clockwise_interval(10, 1, 10, inclusive_end=False)

    def test_in_clockwise_interval_wraps(self):
        assert in_clockwise_interval(2, HASH_SPACE - 5, 10)
        assert not in_clockwise_interval(HASH_SPACE - 10, HASH_SPACE - 5, 10)

    def test_empty_interval(self):
        assert in_clockwise_interval(7, 7, 7)
        assert not in_clockwise_interval(8, 7, 7)

    def test_common_prefix_length(self):
        assert common_prefix_length(0, 0) == HASH_BITS
        assert common_prefix_length(0, 1 << (HASH_BITS - 1)) == 0
        assert common_prefix_length(0b1100 << 60, 0b1101 << 60) == 3

    def test_common_prefix_length_limited_bits(self):
        assert common_prefix_length(0, 1, bits=8) == 8

    def test_common_prefix_invalid_bits(self):
        with pytest.raises(ValueError):
            common_prefix_length(0, 0, bits=0)

    def test_hash_prefix(self):
        value = 0b1011 << (HASH_BITS - 4)
        assert hash_prefix(value, 4) == 0b1011
        assert hash_prefix(value, 0) == 0
        assert hash_prefix(value, 2) == 0b10

    def test_hash_prefix_invalid(self):
        with pytest.raises(ValueError):
            hash_prefix(0, HASH_BITS + 1)

    @given(positions, positions)
    def test_circular_distance_bounds(self, a, b):
        dist = circular_distance(a, b)
        assert 0 <= dist <= HASH_SPACE // 2
        assert dist == circular_distance(b, a)

    @given(positions, positions)
    def test_clockwise_distances_sum_to_ring(self, a, b):
        if a == b:
            return
        assert clockwise_distance(a, b) + clockwise_distance(b, a) == HASH_SPACE

    @given(positions, positions)
    def test_prefix_relation_to_common_prefix(self, a, b):
        shared = common_prefix_length(a, b)
        if shared > 0:
            assert hash_prefix(a, shared) == hash_prefix(b, shared)
        if shared < HASH_BITS:
            assert hash_prefix(a, shared + 1) != hash_prefix(b, shared + 1)


class TestFlatName:
    def test_from_string(self):
        name = FlatName("host-17")
        assert name.label == "host-17"
        assert name.raw == b"host-17"
        assert 0 <= name.hash_value < HASH_SPACE

    def test_from_bytes(self):
        name = FlatName(b"\x01\x02")
        assert name.label == "0102"

    def test_equality_and_hash(self):
        assert FlatName("a") == FlatName("a")
        assert FlatName("a") != FlatName("b")
        assert hash(FlatName("a")) == hash(FlatName("a"))
        assert len({FlatName("a"), FlatName("a"), FlatName("b")}) == 2

    def test_ordering_by_hash_value(self):
        a, b = FlatName("a"), FlatName("b")
        assert (a < b) == (a.hash_value < b.hash_value)

    def test_deterministic_hash(self):
        assert FlatName("alpha").hash_value == FlatName("alpha").hash_value

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FlatName("")
        with pytest.raises(ValueError):
            FlatName(b"")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            FlatName(123)  # type: ignore[arg-type]

    def test_repr_and_str(self):
        name = FlatName("web-server")
        assert "web-server" in repr(name)
        assert str(name) == "web-server"

    def test_name_for_node(self):
        assert name_for_node(5).label == "node-5"
        assert name_for_node(5, prefix="as").label == "as-5"
        with pytest.raises(ValueError):
            name_for_node(-1)

    @given(st.text(min_size=1, max_size=40))
    def test_hash_uniform_range(self, label):
        assert 0 <= FlatName(label).hash_value < HASH_SPACE


def _loads(ring: VNodeRing, keys) -> dict:
    """How many of ``keys`` each server owns (servers may map to 0)."""
    counts = dict.fromkeys(ring.servers, 0)
    for key in keys:
        counts[ring.successor(key)] += 1
    return counts


class TestVNodeRing:
    def test_requires_servers_for_lookup(self):
        ring = VNodeRing()
        with pytest.raises(LookupError):
            ring.successor(5)
        with pytest.raises(LookupError):
            ring.successors(5, 2)

    def test_single_server_owns_everything(self):
        ring = VNodeRing(["only"])
        assert ring.successor(0) == "only"
        assert ring.successor(HASH_SPACE - 1) == "only"

    def test_add_remove(self):
        ring = VNodeRing([1, 2, 3])
        assert len(ring) == 3
        smaller = ring.without_server(2)
        assert len(smaller) == 2
        assert 2 not in smaller
        assert 2 in ring and len(ring) == 3  # immutable: a new ring
        with pytest.raises(KeyError):
            smaller.without_server(2)

    def test_add_duplicate_noop(self):
        ring = VNodeRing([1])
        assert ring.with_server(1) is ring
        assert len(ring) == 1

    def test_owner_deterministic(self):
        ring_a = VNodeRing(range(10))
        ring_b = VNodeRing(reversed(range(10)))
        for key in range(0, HASH_SPACE, HASH_SPACE // 17):
            assert ring_a.successor(key) == ring_b.successor(key)

    def test_monotone_consistency_on_removal(self):
        """Removing a server only moves keys that it owned (consistency)."""
        ring = VNodeRing(range(8), virtual_nodes=4)
        keys = [FlatName(f"k{i}").hash_value for i in range(200)]
        before = {key: ring.successor(key) for key in keys}
        ring = ring.without_server(3)
        after = {key: ring.successor(key) for key in keys}
        for key in keys:
            if before[key] != 3:
                assert after[key] == before[key]
            else:
                assert after[key] != 3

    def test_virtual_nodes_balance_load(self):
        keys = [FlatName(f"key-{i}").hash_value for i in range(3000)]
        flat = VNodeRing(range(10), virtual_nodes=1)
        smooth = VNodeRing(range(10), virtual_nodes=50)

        def imbalance(ring):
            loads = _loads(ring, keys)
            mean = sum(loads.values()) / len(loads)
            return max(loads.values()) / mean

        assert imbalance(smooth) <= imbalance(flat)

    def test_owners_replication(self):
        ring = VNodeRing(range(5))
        owners = ring.successors(12345, 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert owners[0] == ring.successor(12345)

    def test_owners_capped_at_server_count(self):
        ring = VNodeRing([1, 2])
        assert len(ring.successors(7, 10)) == 2

    def test_owners_invalid_count(self):
        ring = VNodeRing([1])
        with pytest.raises(ValueError):
            ring.successors(0, 0)

    def test_every_server_owns_its_own_tokens(self):
        ring = VNodeRing(range(4), virtual_nodes=3)
        for server in range(4):
            for token in ring.tokens_of(server):
                assert ring.successor(token) == server
        loads = _loads(ring, [1, 2, 3])
        assert set(loads) == set(range(4))
        assert sum(loads.values()) == 3

    def test_invalid_virtual_nodes(self):
        with pytest.raises(ValueError):
            VNodeRing([1], virtual_nodes=0)
