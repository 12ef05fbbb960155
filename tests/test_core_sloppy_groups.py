"""Tests for repro.core.sloppy_groups."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles.sloppy_groups import (
    best_group_contact,
    core_group_of,
    group_of,
    stored_addresses,
)
from repro.core.sloppy_groups import SloppyGrouping, group_prefix_bits
from repro.naming.hashspace import HASH_BITS, common_prefix_length
from repro.naming.names import name_for_node


def make_grouping(n: int, estimated_n=None) -> SloppyGrouping:
    return SloppyGrouping([name_for_node(v) for v in range(n)], estimated_n)


class TestGroupPrefixBits:
    def test_formula(self):
        n = 4096
        expected = int(math.floor(math.log2(math.sqrt(n) / math.log(n))))
        assert group_prefix_bits(n) == expected

    def test_small_n_is_zero(self):
        assert group_prefix_bits(2) == 0
        assert group_prefix_bits(10) == 0

    def test_monotone_nondecreasing(self):
        values = [group_prefix_bits(n) for n in (16, 256, 4096, 65536, 10**6)]
        assert values == sorted(values)

    def test_changes_only_with_constant_factor(self):
        """Consistency: k is stable under small changes in the estimate."""
        assert group_prefix_bits(10_000) == group_prefix_bits(10_500)

    def test_invalid(self):
        with pytest.raises(ValueError):
            group_prefix_bits(0)

    def test_capped_at_hash_bits(self):
        assert group_prefix_bits(10.0**30) <= HASH_BITS


class TestSloppyGroupingBasics:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SloppyGrouping([])

    def test_default_estimate_is_true_n(self):
        grouping = make_grouping(5000)
        assert grouping.prefix_bits_of(3) == group_prefix_bits(5000)

    def test_scalar_estimate(self):
        grouping = make_grouping(50, estimated_n=200)
        assert grouping.prefix_bits_of(0) == group_prefix_bits(200)

    def test_per_node_estimates(self):
        grouping = make_grouping(
            10, estimated_n={0: 1000.0, 1: 1_000_000.0}
        )
        assert grouping.prefix_bits_of(0) == group_prefix_bits(1000)
        assert grouping.prefix_bits_of(1) == group_prefix_bits(1_000_000)
        # Missing nodes default to the true n.
        assert grouping.prefix_bits_of(5) == group_prefix_bits(10)

    def test_invalid_estimate(self):
        with pytest.raises(ValueError):
            make_grouping(10, estimated_n=0)

    def test_hash_accessor(self):
        grouping = make_grouping(5)
        assert grouping.hash_of(2) == name_for_node(2).hash_value


class TestGroupMembership:
    def test_owner_in_own_group(self):
        grouping = make_grouping(300)
        for node in (0, 13, 299):
            assert node in group_of(grouping, node)

    def test_group_definition_matches_prefix(self):
        grouping = make_grouping(300)
        node = 7
        k = grouping.prefix_bits_of(node)
        group = group_of(grouping, node)
        for member in group:
            assert common_prefix_length(
                grouping.hash_of(node), grouping.hash_of(member)
            ) >= k

    def test_symmetric_when_estimates_equal(self):
        grouping = make_grouping(400)
        for a, b in ((3, 200), (10, 11), (0, 399)):
            assert grouping.believes_same_group(a, b) == grouping.believes_same_group(
                b, a
            )
            assert grouping.stores_address_of(a, b) == grouping.stores_address_of(b, a)

    def test_stores_own_address(self):
        grouping = make_grouping(100)
        assert grouping.stores_address_of(42, 42)

    def test_stored_addresses_match_pairwise_checks(self):
        grouping = make_grouping(150)
        holder = 5
        stored = stored_addresses(grouping, holder)
        for owner in range(150):
            assert (owner in stored) == grouping.stores_address_of(holder, owner)

    def test_group_sizes_partition_nodes(self):
        grouping = make_grouping(500)
        sizes = grouping.group_sizes()
        assert sum(sizes.values()) == 500
        k = grouping.prefix_bits_of(0)
        assert len(sizes) <= 2**k

    def test_group_sizes_expected_order(self):
        n = 800
        grouping = make_grouping(n)
        sizes = grouping.group_sizes()
        expected = math.sqrt(n) * math.log(n)
        for size in sizes.values():
            assert size >= 0.2 * expected
            assert size <= 4.0 * expected

    def test_core_group_subset_of_group(self):
        grouping = make_grouping(300)
        node = 9
        assert core_group_of(grouping, node) <= group_of(grouping, node)

    def test_single_group_for_tiny_network(self):
        grouping = make_grouping(8)
        assert group_of(grouping, 0) == set(range(8))
        assert stored_addresses(grouping, 3) == set(range(8))


class TestDisagreeingEstimates:
    def test_factor_two_estimates_differ_by_at_most_one_bit(self):
        """'Nodes will differ by at most one bit in the number of bits k' (§4.4)."""
        for n in (256, 1024, 4096, 16384):
            low = group_prefix_bits(n / 2)
            high = group_prefix_bits(2 * n)
            assert high - low <= 2  # one bit on each side of the true value

    def test_stores_requires_both_prefixes(self):
        n = 2048
        estimates = {0: float(n), 1: float(4 * n)}
        grouping = make_grouping(n, estimated_n=estimates)
        k0 = grouping.prefix_bits_of(0)
        k1 = grouping.prefix_bits_of(1)
        assert k1 > k0
        needed = max(k0, k1)
        expected = (
            common_prefix_length(grouping.hash_of(0), grouping.hash_of(1)) >= needed
        )
        assert grouping.stores_address_of(0, 1) == expected

    def test_believes_uses_own_prefix_length_only(self):
        """believes_same_group(a, b) is evaluated with a's own k, so nodes with
        different estimates can disagree about shared membership."""
        grouping = make_grouping(256, estimated_n={0: 65536.0})
        k_narrow = grouping.prefix_bits_of(0)
        k_wide = grouping.prefix_bits_of(1)
        assert k_narrow > k_wide
        shared = common_prefix_length(grouping.hash_of(0), grouping.hash_of(1))
        assert grouping.believes_same_group(0, 1) == (shared >= k_narrow)
        assert grouping.believes_same_group(1, 0) == (shared >= k_wide)


class TestBestGroupContact:
    def test_empty_candidates(self):
        grouping = make_grouping(50)
        assert best_group_contact(grouping, 3, {}) is None

    def test_prefers_longest_prefix_match(self):
        grouping = make_grouping(600)
        target = 17
        candidates = {v: 1.0 for v in range(100, 140)}
        best = best_group_contact(grouping, target, candidates)
        best_match = common_prefix_length(
            grouping.hash_of(best), grouping.hash_of(target)
        )
        for candidate in candidates:
            match = common_prefix_length(
                grouping.hash_of(candidate), grouping.hash_of(target)
            )
            assert match <= best_match

    def test_distance_breaks_ties(self):
        grouping = make_grouping(10)  # k = 0 -> all prefix matches equal length?
        # With k=0 every candidate has some prefix match; craft equal matches by
        # choosing candidates with identical match lengths to the target.
        target = 0
        matches = {
            v: common_prefix_length(grouping.hash_of(v), grouping.hash_of(target))
            for v in range(1, 10)
        }
        best_length = max(matches.values())
        tied = [v for v, m in matches.items() if m == best_length]
        if len(tied) >= 2:
            candidates = {tied[0]: 5.0, tied[1]: 1.0}
            assert best_group_contact(grouping, target, candidates) == tied[1]

    @settings(deadline=None, max_examples=20)
    @given(
        n=st.integers(min_value=20, max_value=300),
        target=st.integers(min_value=0, max_value=19),
    )
    def test_contact_is_always_a_candidate(self, n, target):
        grouping = make_grouping(n)
        candidates = {v: float(v) for v in range(min(15, n))}
        contact = best_group_contact(grouping, target, candidates)
        assert contact in candidates
