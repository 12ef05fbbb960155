"""The store keeps slabs, not objects: schemes re-attach in-process.

The artifact store persists converged *state* -- one ``tables`` slab
directory per tables key, one ``vrr`` slab directory per VRR build -- and
never a scheme object.  Every scheme is rebuilt over that state in the
process that needs it and memoized in memory.  These tests pin the
resulting invariants: a warm run holds one ``SubstrateTables`` per tables
key, shared by identity by ND-Disco, Disco and S4; results are identical
cold and warm, with no unpickling at all; a directory that fails its
checks degrades to a rebuild; and topology mutation can never smuggle
stale state through a key.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import zlib

import pytest

from repro.core.tables import SubstrateTables
from repro.graphs.generators import gnm_random_graph
from repro.graphs.sampling import sample_pairs
from repro.graphs.topology import TopologyBuilder
from repro.protocols.vrr import RingTable
from repro.scenarios.cache import ArtifactCache, activated
from repro.staticsim.simulation import StaticSimulation

PROTOCOLS = ("disco", "nd-disco", "s4", "vrr", "path-vector")


def _build_topology():
    return gnm_random_graph(72, seed=5, average_degree=6.0)


def _edited(topology):
    """``topology`` with the edge 0-71 added: a new topology."""
    builder = TopologyBuilder.from_topology(topology)
    builder.add_edge(0, 71, 2.0)
    return builder.freeze()


def _simulation(root, protocols=PROTOCOLS):
    """One run over ``root``: the simulation and the cache it used."""
    with activated(ArtifactCache(root)) as cache:
        topology = cache.topology(("gnm", 72, 5, 6.0), _build_topology)
        simulation = StaticSimulation(topology, protocols, seed=3)
    return simulation, cache


def _warm_simulation(root, protocols=PROTOCOLS):
    """Cold-populate ``root``, then rebuild everything from disk alone."""
    cold, _ = _simulation(root, protocols)
    with activated(ArtifactCache(root)) as cache:
        topology = cache.topology(
            ("gnm", 72, 5, 6.0), lambda: pytest.fail("topology must hit disk")
        )
        warm = StaticSimulation(topology, protocols, seed=3)
        assert cache.misses == 0, "warm run must be all hits"
    return cold, warm, topology


def _slab_dirs(root, kind):
    directory = os.path.join(root, kind)
    return sorted(name for name in os.listdir(directory) if name.endswith(".slabs"))


class TestOneTablesPerKey:
    def test_warm_schemes_share_one_tables_object(self, tmp_path):
        _, warm, topology = _warm_simulation(tmp_path / "cache")
        nd = warm.scheme("nd-disco")
        # The tables are the attached slab directory, and every
        # Disco-family scheme holds that very object.
        assert isinstance(nd.tables, SubstrateTables)
        assert isinstance(nd.tables.spt_dist, memoryview)
        assert warm.scheme("disco").nddisco is nd
        assert warm.scheme("disco").tables is nd.tables
        assert warm.scheme("s4").tables is nd.tables
        assert warm.scheme("s4")._names is nd.names
        assert len(nd.names) == topology.num_nodes

    def test_one_tables_artifact_per_key_on_disk_and_in_memory(self, tmp_path):
        root = tmp_path / "cache"
        cold, warm, _ = _warm_simulation(root)
        assert len(_slab_dirs(root, "tables")) == 1
        assert len(_slab_dirs(root, "vrr")) == 1
        for simulation in (cold, warm):
            nd = simulation.scheme("nd-disco")
            assert simulation.scheme("s4").tables is nd.tables
            assert simulation.scheme("disco").nddisco.tables is nd.tables

    def test_the_store_holds_only_slab_directories(self, tmp_path):
        root = tmp_path / "cache"
        _warm_simulation(root)
        assert sorted(os.listdir(root)) == ["tables", "topology", "vrr"]
        for kind in os.listdir(root):
            for name in os.listdir(root / kind):
                assert name.endswith((".slabs", ".slabs.meta.json")), name

    def test_every_warm_scheme_shares_the_workload_topology(self, tmp_path):
        _, warm, topology = _warm_simulation(tmp_path / "cache")
        for name in PROTOCOLS:
            assert warm.scheme(name).topology is topology

    def test_standalone_s4_and_nddisco_tables_get_distinct_keys(self, tmp_path):
        """Same topology and landmark seed, but S4 alone builds no
        vicinity: the two tables artifacts must not share a key."""
        root = tmp_path / "cache"
        alone, _ = _simulation(root, ("s4",))
        beside, cache = _simulation(root, ("nd-disco", "s4"))
        assert len(_slab_dirs(root, "tables")) == 2
        assert (cache.hits, cache.misses) == (1, 1)  # the topology, the tables
        assert alone.scheme("s4").tables.vicinity is None
        assert beside.scheme("s4").tables is beside.scheme("nd-disco").tables
        assert beside.scheme("s4").tables.vicinity is not None
        assert sorted(alone.scheme("s4").landmarks) == sorted(
            beside.scheme("nd-disco").landmarks
        )

    def test_memo_lookups_are_neither_hits_nor_misses(self, tmp_path):
        with activated(ArtifactCache(tmp_path / "cache")) as cache:
            topology = _build_topology()
            first = StaticSimulation(topology, ("nd-disco", "s4"), seed=3)
            counts = (cache.hits, cache.misses)
            second = StaticSimulation(topology, ("nd-disco", "s4"), seed=3)
            assert (cache.hits, cache.misses) == counts == (0, 1)
        assert second.scheme("s4") is first.scheme("s4")
        assert second.scheme("nd-disco") is first.scheme("nd-disco")


class TestWarmEqualsCold:
    def test_warm_results_identical_to_cold(self, tmp_path):
        cold, warm, _ = _warm_simulation(tmp_path / "cache")
        cold_results = cold.run(pair_sample=40, measure_congestion_flag=True)
        warm_results = warm.run(pair_sample=40, measure_congestion_flag=True)
        assert cold_results.state.keys() == warm_results.state.keys()
        for name in cold_results.state:
            assert cold_results.state[name] == warm_results.state[name]
            assert cold_results.stretch[name] == warm_results.stretch[name]
            assert cold_results.congestion[name] == warm_results.congestion[name]

    def test_warm_run_never_unpickles(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        cold, _ = _simulation(root)
        expected = cold.run(pair_sample=40, measure_congestion_flag=True)

        def refuse(*args, **kwargs):
            raise AssertionError("the warm run unpickled something")

        monkeypatch.setattr(pickle, "Unpickler", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        # A subclass of the C unpickler made before the patch would slip
        # past it; every stored pickle was zlib-framed, so refuse that too.
        monkeypatch.setattr(zlib, "decompress", refuse)
        warm, cache = _simulation(root)
        assert cache.misses == 0
        results = warm.run(pair_sample=40, measure_congestion_flag=True)
        assert results.state == expected.state
        assert results.stretch == expected.stretch
        assert results.congestion == expected.congestion

    def test_warm_disco_overlay_answers_as_cold(self, tmp_path):
        cold, warm, topology = _warm_simulation(tmp_path / "cache")
        cold_overlay = cold.scheme("disco").overlay
        warm_overlay = warm.scheme("disco").overlay
        assert warm_overlay is not cold_overlay
        for node in range(topology.num_nodes):
            for accessor in ("successor", "predecessor", "neighbors", "degree"):
                assert getattr(warm_overlay, accessor)(node) == getattr(
                    cold_overlay, accessor
                )(node)

    def test_warm_vrr_routes_and_counts_state_as_cold(self, tmp_path):
        cold, warm, topology = _warm_simulation(tmp_path / "cache", ("vrr",))
        pairs = sample_pairs(topology, 120, seed=7)

        def digest(scheme):
            routes = [scheme.route(s, t) for s, t in pairs]
            return hashlib.sha256(repr(routes).encode()).hexdigest()

        cold_vrr, warm_vrr = cold.scheme("vrr"), warm.scheme("vrr")
        assert warm_vrr is not cold_vrr
        assert digest(warm_vrr) == digest(cold_vrr)
        nodes = list(topology.nodes())
        assert warm_vrr.state_profile(nodes) == cold_vrr.state_profile(nodes)


def _overwrite_item(slab_dir, slab: str, value: int) -> None:
    """Overwrite the first 8-byte item of one slab file in place."""
    with open(os.path.join(slab_dir, f"{slab}.bin"), "r+b") as handle:
        handle.write(value.to_bytes(8, "little", signed=True))


class TestDegradation:
    def test_evicted_tables_are_rebuilt(self, tmp_path):
        import shutil

        root = tmp_path / "cache"
        cold, _ = _simulation(root, ("nd-disco", "s4"))
        for name in os.listdir(root / "tables"):
            shutil.rmtree(root / "tables" / name, ignore_errors=True)
        rebuilt, cache = _simulation(root, ("nd-disco", "s4"))
        assert (cache.hits, cache.misses) == (1, 1)  # the topology, the tables
        for node in (0, 35, 71):
            assert rebuilt.scheme("s4").state_entries(
                node
            ) == cold.scheme("s4").state_entries(node)

    @pytest.mark.parametrize(
        "slab, value", [("endpoints", 1 << 40), ("next_hops", -1), ("offsets", 5)]
    )
    def test_a_corrupt_vrr_directory_is_a_miss(self, tmp_path, slab, value):
        root = tmp_path / "cache"
        cold, _ = _simulation(root, ("vrr",))
        (name,) = _slab_dirs(root, "vrr")
        _overwrite_item(root / "vrr" / name, slab, value)
        with pytest.raises(ValueError):
            RingTable.from_slab_dir(root / "vrr" / name)
        rebuilt, cache = _simulation(root, ("vrr",))
        assert (cache.hits, cache.misses) == (1, 1)  # the topology, the table
        nodes = list(range(72))
        assert rebuilt.scheme("vrr").state_profile(nodes) == cold.scheme(
            "vrr"
        ).state_profile(nodes)
        RingTable.from_slab_dir(root / "vrr" / name).check(72)

    def test_mutated_topology_is_never_smuggled_through_a_key(self, tmp_path):
        root = tmp_path / "cache"
        with activated(ArtifactCache(root)) as cache:
            topology = cache.topology(("gnm", 72, 5, 6.0), _build_topology)
            StaticSimulation(_edited(topology), ("vrr",), seed=3)
        mutated = _edited(_build_topology())
        with activated(ArtifactCache(root)) as cache:
            warm = StaticSimulation(mutated, ("vrr",), seed=3)
            assert (cache.hits, cache.misses) == (1, 0)
        # The warm table is the mutated edge set's, not the stale
        # pre-mutation topology's.
        assert warm.scheme("vrr").topology == mutated
        fresh = StaticSimulation(mutated, ("vrr",), seed=3).scheme("vrr")
        nodes = list(mutated.nodes())
        assert warm.scheme("vrr").state_profile(nodes) == fresh.state_profile(nodes)
