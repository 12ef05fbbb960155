"""Shared-memory publication of substrate tables.

Covers the publish/attach mechanics (:class:`SharedTables` /
:meth:`SubstrateTables.from_shared`), attach/detach lifetimes (attachers'
views survive the publisher unlinking the name; close is idempotent), the
cache-level swap-in (:attr:`ArtifactCache.shared_tables`), and the
scenario engine's parent-publish path staying byte-identical.
"""

from __future__ import annotations

import os
import pickle

import pytest

from oracles.resolution_db import slab_addresses
from repro.core.nddisco import NDDiscoRouting
from repro.core.tables import SharedTables, SubstrateTables
from repro.graphs.generators import gnm_random_graph
from repro.graphs.sampling import sample_pairs
from repro.metrics.stretch import measure_stretch
from repro.scenarios.cache import (
    ArtifactCache,
    activated,
    load_tables_artifact,
    tables_key,
)
from repro.staticsim.simulation import StaticSimulation


def _shm_available() -> bool:
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=8)
        segment.close()
        segment.unlink()
        return True
    except Exception:
        return False


pytestmark = pytest.mark.skipif(
    not _shm_available(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture(scope="module")
def scheme():
    return NDDiscoRouting(gnm_random_graph(90, seed=3, average_degree=6.0), seed=1)


class TestPublishAttach:
    def test_attached_tables_match_published(self, scheme):
        tables = scheme.tables
        with SharedTables(tables) as shared:
            attached = SubstrateTables.from_shared(shared.handle)
            assert attached.landmarks == tables.landmarks
            assert list(attached.spt_dist) == list(tables.spt_dist)
            assert list(attached.closest) == list(tables.closest)
            assert list(attached.vicinity.members) == list(
                tables.vicinity.members
            )
            assert slab_addresses(attached) == scheme.addresses
            # Zero-copy: the slabs are views over the segment, not arrays.
            assert isinstance(attached.spt_dist, memoryview)

    def test_views_survive_publisher_close(self, scheme):
        shared = SharedTables(scheme.tables)
        attached = SubstrateTables.from_shared(shared.handle)
        probe = list(scheme.tables.spt_dist[:8])
        shared.close()  # unlinks the name; mapped views stay valid
        assert list(attached.spt_dist[:8]) == probe

    def test_close_is_idempotent(self, scheme):
        shared = SharedTables(scheme.tables)
        shared.close()
        shared.close()

    def test_attach_after_unlink_fails(self, scheme):
        shared = SharedTables(scheme.tables)
        handle = shared.handle
        shared.close()
        with pytest.raises(Exception):
            SubstrateTables.from_shared(handle)

    def test_scheme_rebuilt_on_attached_tables_routes_identically(self, scheme):
        # A scheme whose substrate slabs are shared-memory views must
        # route exactly like the scheme that published them.
        topology = scheme.topology
        pairs = sample_pairs(topology, 120, seed=5)
        baseline = measure_stretch(scheme, pairs=pairs)
        with SharedTables(scheme.tables) as shared:
            attached = SubstrateTables.from_shared(shared.handle)
            twin = NDDiscoRouting.__new__(NDDiscoRouting)
            twin.__dict__.update(scheme.__dict__)
            twin._tables = attached
            assert measure_stretch(twin, pairs=pairs) == baseline


class TestCacheSwapIn:
    def _populate(self, tmp_path, topology):
        cache = ArtifactCache(tmp_path)
        with activated(cache):
            simulation = StaticSimulation(
                topology, ("disco", "nd-disco", "s4"), seed=1
            )
            return simulation.run(pair_sample=100)

    def test_tables_artifact_written_and_loadable(self, tmp_path):
        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        self._populate(tmp_path, topology)
        tables_dir = tmp_path / "tables"
        pickles = [f for f in os.listdir(tables_dir) if f.endswith(".pkl")]
        assert len(pickles) == 1
        tables = load_tables_artifact(str(tables_dir / pickles[0]))
        assert isinstance(tables, SubstrateTables)

    def test_warm_load_attaches_shared_tables(self, tmp_path):
        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        cold = self._populate(tmp_path, topology)
        tables_dir = tmp_path / "tables"
        name = [f for f in os.listdir(tables_dir) if f.endswith(".pkl")][0]
        key = name[: -len(".pkl")]
        published = SharedTables(load_tables_artifact(str(tables_dir / name)))
        try:
            cache = ArtifactCache(
                tmp_path, shared_tables={key: published.handle}
            )
            with activated(cache):
                simulation = StaticSimulation(
                    topology.copy(), ("disco", "nd-disco", "s4"), seed=1
                )
                warm = simulation.run(pair_sample=100)
            assert cache.misses == 0
            nd = simulation.scheme("nd-disco")
            assert isinstance(nd.tables.spt_dist, memoryview)
            # One shared substrate graph across the schemes, as always.
            assert simulation.scheme("s4").tables is nd.tables
            assert simulation.scheme("disco").nddisco is nd
            for name in cold.state:
                assert cold.state[name] == warm.state[name]
                assert cold.stretch[name] == warm.stretch[name]
            del simulation, nd
        finally:
            published.close()

    def test_vanished_segment_falls_back_to_disk(self, tmp_path):
        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        cold = self._populate(tmp_path, topology)
        tables_dir = tmp_path / "tables"
        name = [f for f in os.listdir(tables_dir) if f.endswith(".pkl")][0]
        key = name[: -len(".pkl")]
        published = SharedTables(load_tables_artifact(str(tables_dir / name)))
        handle = published.handle
        published.close()  # segment gone before any worker attaches
        cache = ArtifactCache(tmp_path, shared_tables={key: handle})
        with activated(cache):
            simulation = StaticSimulation(
                topology.copy(), ("disco", "nd-disco", "s4"), seed=1
            )
            warm = simulation.run(pair_sample=100)
        assert cache.misses == 0
        for scheme_name in cold.state:
            assert cold.stretch[scheme_name] == warm.stretch[scheme_name]

    def test_tables_key_is_stable_and_distinct(self):
        assert tables_key("abc") == tables_key("abc")
        assert tables_key("abc") != "abc"
        assert tables_key("abc") != tables_key("abd")


class TestEngineParentPublish:
    def test_publish_cached_tables_roundtrip(self, tmp_path):
        import json

        from repro.scenarios.engine import _publish_cached_tables

        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        cache = ArtifactCache(tmp_path)
        with activated(cache):
            StaticSimulation(topology, ("nd-disco",), seed=1)
        handles, published = _publish_cached_tables(ArtifactCache(tmp_path))
        try:
            assert len(handles) == 1 and len(published) == 1
            key, handle = next(iter(handles.items()))
            attached = SubstrateTables.from_shared(handle)
            disk = load_tables_artifact(
                str(tmp_path / "tables" / f"{key}.pkl")
            )
            assert list(attached.spt_dist) == list(disk.spt_dist)
            del attached
            # Publication counts as a use: LRU pruning must see the hit.
            meta = json.loads(
                (tmp_path / "tables" / f"{key}.meta.json").read_text()
            )
            assert meta["last_hit"] >= meta["created"]
        finally:
            for publication in published:
                publication.close()

    def test_publish_on_cold_root_is_empty(self, tmp_path):
        from repro.scenarios.engine import _publish_cached_tables

        handles, published = _publish_cached_tables(ArtifactCache(tmp_path))
        assert handles == {} and published == []
        assert (
            _publish_cached_tables(ArtifactCache(None)) == ({}, [])
        )  # memory-only cache publishes nothing

    def test_publish_respects_budget(self, tmp_path, monkeypatch):
        from repro.scenarios import engine

        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        cache = ArtifactCache(tmp_path)
        with activated(cache):
            StaticSimulation(topology, ("nd-disco",), seed=1)
        monkeypatch.setattr(engine, "_PUBLISH_MAX_BYTES", 1)
        handles, published = engine._publish_cached_tables(
            ArtifactCache(tmp_path)
        )
        assert handles == {} and published == []
