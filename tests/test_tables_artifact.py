"""Substrate tables as a cache artifact: one slab directory per substrate.

Covers the on-disk form (every ``topology`` and ``tables`` artifact is a
``<key>.slabs`` directory, never a pickle), the mmap attach a warm load
takes (:meth:`SubstrateTables.from_mmap`, counts checked as on adoption),
and what the store does with a directory that fails to attach: a miss
whose rebuild replaces it, unless the attach raised something a bad
directory cannot cause.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib

import pytest

from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.core.shortcutting import ShortcutMode
from repro.core.tables import SubstrateTables
from repro.experiments.config import ExperimentScale
from repro.graphs.generators import gnm_random_graph
from repro.graphs.sampling import sample_pairs
from repro.graphs.topology import Topology
from repro.metrics.stretch import measure_stretch
from repro.naming.names import name_for_node
from repro.scenarios.cache import ArtifactCache, activated, cache_key
from repro.scenarios.engine import run_scenarios
from repro.staticsim.simulation import StaticSimulation, substrate_tables

_PROTOCOLS = ("disco", "nd-disco", "s4")


@pytest.fixture(scope="module")
def scheme():
    return NDDiscoRouting(gnm_random_graph(90, seed=3, average_degree=6.0), seed=1)


def _populate(root, topology, protocols=_PROTOCOLS):
    cache = ArtifactCache(root)
    with activated(cache):
        simulation = StaticSimulation(topology, protocols, seed=1)
        return cache, simulation, simulation.run(pair_sample=100)


def _tables_dir(root) -> str:
    (slab_dir,) = (root / "tables").glob("*.slabs")
    return str(slab_dir)


def _edit_manifest(slab_dir: str, edit) -> None:
    """Apply ``edit`` to the parsed ``manifest.json`` and write it back."""
    manifest_path = os.path.join(slab_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _drop_last_landmark(slab_dir: str) -> None:
    """Cut ``landmark_ids`` by one entry, file and manifest alike, so the
    directory is self-consistent slab by slab but not as tables."""

    def edit(manifest):
        for slot in manifest["slots"]:
            if slot[0] == "landmark_ids":
                slot[2] -= 1
                os.truncate(os.path.join(slab_dir, "landmark_ids.bin"), 8 * slot[2])

    _edit_manifest(slab_dir, edit)


def _scratch_entries(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


class TestSlabAttach:
    def test_scheme_rebuilt_on_attached_tables_routes_identically(
        self, scheme, tmp_path
    ):
        # A scheme whose substrate slabs are mmap views must route exactly
        # like the scheme that wrote them.
        topology = scheme.topology
        pairs = sample_pairs(topology, 120, seed=5)
        baseline = measure_stretch(scheme, pairs=pairs)
        attached = SubstrateTables.from_mmap(
            scheme.tables.save_slabs(tmp_path / "slabs")
        )
        twin = NDDiscoRouting.from_tables(topology, attached, scheme.names)
        assert isinstance(twin.tables.spt_dist, memoryview)
        assert measure_stretch(twin, pairs=pairs) == baseline

    def test_counts_that_disagree_raise_at_attach(self, scheme, tmp_path):
        slab_dir = scheme.tables.save_slabs(tmp_path / "slabs")
        _drop_last_landmark(slab_dir)
        with pytest.raises(ValueError, match=r"spt_dist holds \d+ entries"):
            SubstrateTables.from_mmap(slab_dir)

    def test_a_node_count_that_disagrees_raises_at_attach(self, scheme, tmp_path):
        slab_dir = scheme.tables.save_slabs(tmp_path / "slabs")
        n = scheme.topology.num_nodes
        _edit_manifest(slab_dir, lambda manifest: manifest.update(num_nodes=n + 1))
        with pytest.raises(ValueError, match=r"spt_dist holds \d+ entries"):
            SubstrateTables.from_mmap(slab_dir)

    def test_a_vicinity_over_other_nodes_raises_at_attach(self, scheme, tmp_path):
        slab_dir = scheme.tables.save_slabs(tmp_path / "slabs")
        n = scheme.topology.num_nodes
        _edit_manifest(
            slab_dir, lambda manifest: manifest.update(vicinity_nodes=n - 1)
        )
        with pytest.raises(ValueError, match=f"no vicinity table over {n} nodes"):
            SubstrateTables.from_mmap(slab_dir)


class TestCacheArtifacts:
    def test_tables_artifact_written_and_loadable(self, tmp_path):
        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        _, simulation, _ = _populate(tmp_path, topology)
        built = simulation.scheme("nd-disco").tables
        tables = SubstrateTables.from_mmap(_tables_dir(tmp_path))
        assert list(tables.spt_dist) == list(built.spt_dist)
        assert list(tables.spt_parent) == list(built.spt_parent)

    def test_warm_load_attaches_mmapped_tables(self, tmp_path):
        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        _, _, cold = _populate(tmp_path, topology)
        cache, simulation, warm = _populate(tmp_path, topology)
        assert cache.misses == 0
        nd = simulation.scheme("nd-disco")
        assert isinstance(nd.tables.spt_dist, memoryview)
        # One shared substrate graph across the schemes, as always.
        assert simulation.scheme("s4").tables is nd.tables
        assert simulation.scheme("disco").nddisco is nd
        for name in cold.state:
            assert cold.state[name] == warm.state[name]
            assert cold.stretch[name] == warm.stretch[name]

    def test_a_cold_run_stores_topologies_and_tables_as_slab_dirs(
        self, tmp_path
    ):
        scale = ExperimentScale(
            comparison_nodes=72,
            large_nodes=72,
            as_level_nodes=72,
            router_level_nodes=80,
            pair_sample=50,
            messaging_sweep=(20, 28),
            scaling_sweep=(40, 56),
            seed=11,
            label="tiny-test",
        )
        run_scenarios(["fig02-state-cdf"], scale=scale, cache=tmp_path)
        for kind in ("topology", "tables"):
            names = os.listdir(tmp_path / kind)
            payloads = [name for name in names if name.endswith(".slabs")]
            assert payloads
            assert all((tmp_path / kind / name).is_dir() for name in payloads)
            assert sorted(names) == sorted(
                payloads + [f"{name}.meta.json" for name in payloads]
            )

    def test_a_corrupt_tables_dir_is_replaced_by_its_rebuild(self, tmp_path):
        topology = gnm_random_graph(64, seed=2, average_degree=6.0)
        _, _, cold = _populate(tmp_path, topology, ("nd-disco",))
        _drop_last_landmark(_tables_dir(tmp_path))
        rebuilt, _, _ = _populate(tmp_path, topology, ("nd-disco",))
        assert (rebuilt.hits, rebuilt.misses) == (0, 1)
        third, _, warm = _populate(tmp_path, topology, ("nd-disco",))
        assert (third.hits, third.misses) == (1, 0)
        assert warm.stretch == cold.stretch

    def test_the_stale_dir_swap_leaves_no_scratch_dirs(self, tmp_path):
        topology = gnm_random_graph(64, seed=2, average_degree=6.0)
        _populate(tmp_path, topology, ("nd-disco",))
        slab_dir = _tables_dir(tmp_path)
        _drop_last_landmark(slab_dir)
        _populate(tmp_path, topology, ("nd-disco",))
        assert _scratch_entries(tmp_path / "tables") == []
        assert _tables_dir(tmp_path) == slab_dir
        SubstrateTables.from_mmap(slab_dir).check_adoptable(64, vicinity=True)

    def test_a_leftover_topology_pickle_is_never_loaded(self, tmp_path):
        # Only ``<key>.slabs`` is read for a topology: a pickle under the
        # same key (an older layout) is a miss, and the rebuild stores a
        # slab directory beside it.
        parts = ("gnm", 48, 5, 6.0)
        built = gnm_random_graph(48, seed=5, average_degree=6.0)
        key = cache_key("topology", *parts)
        directory = tmp_path / "topology"
        directory.mkdir()
        (directory / f"{key}.pkl").write_bytes(
            b"RPZC" + zlib.compress(pickle.dumps(built, protocol=4))
        )
        cache = ArtifactCache(tmp_path)
        assert cache.topology(parts, lambda: built) is built
        assert (cache.hits, cache.misses) == (0, 1)
        assert (directory / f"{key}.slabs").is_dir()

    def test_a_store_oserror_keeps_the_build_in_memory_only(
        self, tmp_path, monkeypatch
    ):
        parts = ("gnm", 48, 5, 6.0)
        built = gnm_random_graph(48, seed=5, average_degree=6.0)

        def full_disk(self, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(Topology, "save_slabs", full_disk)
        cache = ArtifactCache(tmp_path)
        assert cache.topology(parts, lambda: built) is built
        assert cache.topology(parts, lambda: None) is built
        assert (cache.hits, cache.misses) == (1, 1)
        assert os.listdir(tmp_path / "topology") == []
        monkeypatch.undo()
        fresh = ArtifactCache(tmp_path)
        assert fresh.topology(parts, lambda: built) is built
        assert (fresh.hits, fresh.misses) == (0, 1)

    def test_a_store_error_other_than_oserror_propagates(
        self, tmp_path, monkeypatch
    ):
        def broken(self, path):
            raise RuntimeError("save bug")

        monkeypatch.setattr(Topology, "save_slabs", broken)
        with pytest.raises(RuntimeError, match="save bug"):
            ArtifactCache(tmp_path).topology(
                ("gnm", 48, 5, 6.0),
                lambda: gnm_random_graph(48, seed=5, average_degree=6.0),
            )
        assert os.listdir(tmp_path / "topology") == []

    def test_an_unexpected_attach_error_propagates(self, tmp_path, monkeypatch):
        parts = ("gnm", 48, 5, 6.0)

        def build():
            return gnm_random_graph(48, seed=5, average_degree=6.0)

        ArtifactCache(tmp_path).topology(parts, build)
        _populate(tmp_path, build(), ("nd-disco",))
        key = os.path.basename(_tables_dir(tmp_path))[: -len(".slabs")]

        def broken(cls, path):
            raise RuntimeError("attach bug")

        monkeypatch.setattr(Topology, "from_slab_dir", classmethod(broken))
        monkeypatch.setattr(SubstrateTables, "from_mmap", classmethod(broken))
        with pytest.raises(RuntimeError, match="attach bug"):
            ArtifactCache(tmp_path).topology(parts, build)
        with pytest.raises(RuntimeError, match="attach bug"):
            ArtifactCache(tmp_path)._load_slab_dir("tables", key)

    def test_tables_key_is_stable_and_distinct(self, tmp_path):
        """Tables are keyed by what shapes their slabs: an ND-Disco in
        every shortcut and resolution mode attaches one artifact; tables
        without vicinities, or over another landmark set, are others."""
        topology = gnm_random_graph(64, seed=2, average_degree=6.0)
        landmarks = select_landmarks(topology.num_nodes, seed=1)
        names = [name_for_node(v) for v in topology.nodes()]
        variants = [{"shortcut_mode": mode} for mode in ShortcutMode]
        variants.append({"resolve_first_packet": False})
        for options in variants:
            with activated(ArtifactCache(tmp_path)):
                NDDiscoRouting.from_tables(
                    topology, substrate_tables(topology, landmarks), names, **options
                )
        assert len(os.listdir(tmp_path / "tables")) == 2  # one dir + sidecar
        with activated(ArtifactCache(tmp_path)) as cache:
            StaticSimulation(topology, ("nd-disco",), seed=1)
            assert (cache.hits, cache.misses) == (1, 0)
            StaticSimulation(topology, ("s4",), seed=1)
            StaticSimulation(topology, ("nd-disco",), seed=2)
        assert (cache.hits, cache.misses) == (1, 2)
        assert len(os.listdir(tmp_path / "tables")) == 6


#: The id slabs of a tables directory, each with the lowest id it may hold.
_ID_SLABS = ("spt_parent", "closest", "vicinity.members", "vicinity.parents")


class TestIdRanges:
    """A tables directory whose ids leave ``[-1, n)`` / ``[0, n)`` fails
    the attach, and the store rebuilds it instead of routing over it."""

    @pytest.mark.parametrize("slab", _ID_SLABS)
    def test_an_out_of_range_id_fails_the_attach(self, scheme, tmp_path, slab):
        slab_dir = scheme.tables.save_slabs(tmp_path / "slabs")
        _overwrite_first_item(slab_dir, slab, 1 << 40)
        with pytest.raises(ValueError, match=f"{slab} holds an id outside"):
            SubstrateTables.from_mmap(slab_dir)

    @pytest.mark.parametrize("slab", ["spt_parent", "closest", "vicinity.parents"])
    def test_an_id_below_minus_one_fails_the_attach(self, scheme, tmp_path, slab):
        slab_dir = scheme.tables.save_slabs(tmp_path / "slabs")
        _overwrite_first_item(slab_dir, slab, -2)
        with pytest.raises(ValueError, match=f"{slab} holds an id outside"):
            SubstrateTables.from_mmap(slab_dir)

    @pytest.mark.parametrize("slab", ["vicinity.offsets"])
    def test_offsets_out_of_order_fail_the_attach(self, scheme, tmp_path, slab):
        slab_dir = scheme.tables.save_slabs(tmp_path / "slabs")
        _overwrite_first_item(slab_dir, slab, 3)
        with pytest.raises(ValueError, match=f"{slab} must rise from 0"):
            SubstrateTables.from_mmap(slab_dir)

    @pytest.mark.parametrize("slab", _ID_SLABS)
    def test_a_warm_run_over_a_corrupt_id_rebuilds(self, tmp_path, slab):
        topology = gnm_random_graph(90, seed=3, average_degree=6.0)
        _, _, cold = _populate(tmp_path, topology)
        _overwrite_first_item(_tables_dir(tmp_path), slab, 1 << 40)
        cache, _, warm = _populate(tmp_path, topology)
        assert (cache.hits, cache.misses) == (0, 1)
        for name in cold.state:
            assert warm.state[name] == cold.state[name]
            assert warm.stretch[name] == cold.stretch[name]
        SubstrateTables.from_mmap(_tables_dir(tmp_path))


def _overwrite_first_item(slab_dir, slab: str, value: int) -> None:
    """Overwrite the first 8-byte item of one slab file in place."""
    with open(os.path.join(slab_dir, f"{slab}.bin"), "r+b") as handle:
        handle.write(value.to_bytes(8, "little", signed=True))
