"""Tests for repro.core.resolution (the landmark name-resolution database).

The converged database is driven through ``oracles.resolution_db``'s
subclass, which adds the soft-state clock the sharded service is held to;
the storage and state accounting it inherits are the production code's.
"""

from __future__ import annotations

import pytest

from oracles.reference_paths import shortest_path
from oracles.resolution_db import SoftStateDatabase
from repro.addressing.address import Address
from repro.addressing.explicit_route import ExplicitRoute
from repro.addressing.labels import LabelCodec
from repro.core.resolution import LandmarkResolutionDatabase
from repro.naming.names import name_for_node


@pytest.fixture()
def database_and_addresses(small_gnm):
    """A resolution database over landmarks {0, 1, 2} plus all node addresses."""
    codec = LabelCodec(small_gnm)
    landmarks = [0, 1, 2]
    database = SoftStateDatabase(landmarks)
    names = [name_for_node(v) for v in range(small_gnm.num_nodes)]
    addresses = []
    for node in range(small_gnm.num_nodes):
        path = shortest_path(small_gnm, 0, node)
        addresses.append(
            Address(node=node, landmark=0, route=ExplicitRoute.from_path(codec, path))
        )
    return database, names, addresses


class TestConstruction:
    def test_requires_landmarks(self):
        with pytest.raises(ValueError):
            LandmarkResolutionDatabase([])

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
        database, names, addresses = database_and_addresses
        database.populate(names, addresses)
        assert database.entries_at(50) == 0

    @pytest.mark.parametrize("name_bytes", [4, 16])
    def test_route_bytes_price_the_stored_mappings(
        self, database_and_addresses, name_bytes
    ):
        database, names, addresses = database_and_addresses
        database.populate(names, addresses)
        assert any(database.route_bytes_at(lm) > 0 for lm in database.landmarks)
        for landmark in database.landmarks:
            stored = sum(
                address.mapping_entry_bytes(name_bytes)
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

    def test_multiple_hash_functions_smooth_load(self, small_gnm):
        codec = LabelCodec(small_gnm)
        names = [name_for_node(v) for v in range(small_gnm.num_nodes)]
        addresses = [
            Address(
                node=v,
                landmark=0,
                route=ExplicitRoute.from_path(codec, shortest_path(small_gnm, 0, v)),
            )
            for v in range(small_gnm.num_nodes)
        ]
        landmarks = list(range(8))

        def imbalance(virtual_nodes: int) -> float:
            database = SoftStateDatabase(landmarks, virtual_nodes=virtual_nodes)
            database.populate(names, addresses)
            loads = database.load_distribution()
            mean = sum(loads.values()) / len(loads)
            return max(loads.values()) / mean

        assert imbalance(32) <= imbalance(1) + 1e-9
