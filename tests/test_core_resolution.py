"""Tests for repro.core.resolution (the landmark name-resolution database).

The converged database counts records and route bits per landmark;
``oracles.resolution_db`` keeps the records themselves, with the
soft-state clock the sharded service is held to.  Storage and soft state
are the oracle's; the state accounting is the production database's, held
to the oracle's records.
"""

from __future__ import annotations

import pytest

from oracles.labels import explicit_route
from oracles.reference_paths import shortest_path
from oracles.resolution_db import SoftStateDatabase
from oracles.state_accounting import mapping_entry_bytes
from repro.addressing.address import Address
from repro.core.resolution import LandmarkResolutionDatabase
from repro.naming.names import name_for_node


def _address_from_0(topology, node: int) -> Address:
    """``node``'s address with landmark 0, down a shortest path from it."""
    route = explicit_route(topology, shortest_path(topology, 0, node))
    return Address(node=node, landmark=0, route=route)


@pytest.fixture()
def database_and_addresses(small_gnm):
    """A resolution database over landmarks {0, 1, 2} plus all node addresses."""
    landmarks = [0, 1, 2]
    database = SoftStateDatabase(landmarks)
    names = [name_for_node(v) for v in range(small_gnm.num_nodes)]
    addresses = [_address_from_0(small_gnm, v) for v in range(small_gnm.num_nodes)]
    return database, names, addresses


def _counting(landmarks, names, addresses, **kwargs):
    """The production database over the same (name, address) pairs."""
    bits = [address.route.bits for address in addresses]
    return LandmarkResolutionDatabase(landmarks, names, bits, **kwargs)


class TestConstruction:
    def test_requires_landmarks(self):
        with pytest.raises(ValueError):
            LandmarkResolutionDatabase([], [], [])

    def test_invalid_refresh_interval(self):
        with pytest.raises(ValueError):
            SoftStateDatabase([1], refresh_interval=0)

    def test_timeout_formula(self):
        database = SoftStateDatabase([1], refresh_interval=10.0)
        assert database.timeout == 21.0

    def test_landmarks_sorted(self):
        database = SoftStateDatabase([5, 1, 3])
        assert database.landmarks == [1, 3, 5]


class TestStorage:
    def test_insert_and_lookup(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        home = database.insert(names[10], addresses[10])
        assert home in database.landmarks
        assert database.lookup(names[10]) == addresses[10]

    def test_lookup_missing_returns_none(self, database_and_addresses):
        database, names, _ = database_and_addresses
        assert database.lookup(names[10]) is None

    def test_home_landmark_consistent(self, database_and_addresses):
        database, names, _ = database_and_addresses
        assert database.home_landmark(names[4]) == database.home_landmark(names[4])

    def test_insert_refreshes_existing(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        database.insert(names[10], addresses[10], now=0.0)
        database.insert(names[10], addresses[11 - 1], now=5.0)
        record = database.lookup_record(names[10])
        assert record is not None
        assert record.inserted_at == 5.0

    def test_populate_covers_all(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        database.populate(names, addresses)
        for name, address in zip(names, addresses):
            assert database.lookup(name) == address

    def test_every_record_on_exactly_one_landmark(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        database.populate(names, addresses)
        total = sum(database.entries_at(lm) for lm in database.landmarks)
        assert total == len(names)


class TestSoftState:
    def test_expiry(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        database.insert(names[1], addresses[1], now=0.0)
        database.insert(names[2], addresses[2], now=100.0)
        dropped = database.expire_older_than(now=100.0)
        assert dropped == 1
        assert database.lookup(names[1]) is None
        assert database.lookup(names[2]) is not None

    def test_no_expiry_within_timeout(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        database.insert(names[1], addresses[1], now=0.0)
        assert database.expire_older_than(now=database.timeout - 0.1) == 0


class TestStateAccounting:
    def test_entries_at_non_landmark_is_zero(self, database_and_addresses):
        _, names, addresses = database_and_addresses
        database = _counting([0, 1, 2], names, addresses)
        assert database.entries_at(50) == 0
        assert database.route_bytes_at(50) == 0.0

    @pytest.mark.parametrize("name_bytes", [4, 16])
    def test_route_bytes_price_the_stored_mappings(
        self, database_and_addresses, name_bytes
    ):
        _, names, addresses = database_and_addresses
        database = _counting([0, 1, 2], names, addresses)
        assert any(database.route_bytes_at(lm) > 0 for lm in (0, 1, 2))
        for landmark in (0, 1, 2):
            stored = sum(
                mapping_entry_bytes(address, name_bytes)
                for name, address in zip(names, addresses)
                if database.home_landmark(name) == landmark
            )
            assert (
                2 * name_bytes * database.entries_at(landmark)
                + database.route_bytes_at(landmark)
            ) == stored
        assert database.route_bytes_at(50) == 0.0

    def test_load_distribution_sums_to_total(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        database.populate(names, addresses)
        loads = database.load_distribution()
        assert sum(loads.values()) == len(names)
        assert set(loads) == set(database.landmarks)
        counting = _counting(database.landmarks, names, addresses)
        assert loads == {lm: counting.entries_at(lm) for lm in loads}

    def test_a_name_given_twice_is_one_record(self, database_and_addresses):
        database, names, addresses = database_and_addresses
        twice = names[:5] + names[:1]
        database.populate(twice, addresses[:6])
        counting = _counting(database.landmarks, twice, addresses[:6])
        for landmark in database.landmarks:
            assert counting.entries_at(landmark) == database.entries_at(landmark)
            assert counting.route_bytes_at(landmark) == database.route_bytes_at(
                landmark
            )
        assert sum(map(counting.entries_at, database.landmarks)) == 5

    def test_multiple_hash_functions_smooth_load(self, small_gnm):
        names = [name_for_node(v) for v in range(small_gnm.num_nodes)]
        addresses = [_address_from_0(small_gnm, v) for v in range(small_gnm.num_nodes)]
        landmarks = list(range(8))

        def imbalance(virtual_nodes: int) -> float:
            database = _counting(
                landmarks, names, addresses, virtual_nodes=virtual_nodes
            )
            loads = [database.entries_at(landmark) for landmark in landmarks]
            mean = sum(loads) / len(loads)
            return max(loads) / mean

        assert imbalance(32) <= imbalance(1) + 1e-9
