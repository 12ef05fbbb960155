"""Substrate persistence v2: shells rewire onto one shared object graph.

The v2 artifact store persists the converged ND-Disco substrate once and
stores every other scheme as a lightweight shell whose pickle references
the substrate's components by ``(kind, key, path)``.  These tests pin the
resulting invariants: a fully warm run holds exactly one substrate object
graph in memory (cold-run parity), results are identical either way,
eviction of a referenced artifact degrades to a rebuild, and topology
mutation can never smuggle a stale object through a persistent reference.
"""

from __future__ import annotations

import pytest

from repro.graphs.generators import gnm_random_graph
from repro.graphs.topology import TopologyBuilder
from repro.scenarios.cache import (
    ArtifactCache,
    SUBSTRATE_SCHEMES,
    activated,
    scheme_key,
)
from repro.staticsim.simulation import StaticSimulation

PROTOCOLS = ("disco", "nd-disco", "s4", "vrr")


def _build_topology():
    return gnm_random_graph(72, seed=5, average_degree=6.0)


def _edited(topology):
    """``topology`` with the edge 0-71 added: a new, unregistered object."""
    builder = TopologyBuilder.from_topology(topology)
    builder.add_edge(0, 71, 2.0)
    return builder.freeze()


def _warm_simulation(root, protocols=PROTOCOLS):
    """Cold-populate ``root``, then rebuild everything from disk alone."""
    with activated(ArtifactCache(root)) as cache:
        topology = cache.topology(("gnm", 72, 5, 6.0), _build_topology)
        cold = StaticSimulation(topology, protocols, seed=3)
    with activated(ArtifactCache(root)) as cache:
        topology = cache.topology(
            ("gnm", 72, 5, 6.0), lambda: pytest.fail("topology must hit disk")
        )
        warm = StaticSimulation(topology, protocols, seed=3)
        assert cache.misses == 0, "warm run must be all hits"
    return cold, warm, topology


class TestWarmRewire:
    def test_warm_schemes_share_one_substrate_object_graph(self, tmp_path):
        _, warm, topology = _warm_simulation(tmp_path / "cache")
        nd = warm.scheme("nd-disco")
        s4 = warm.scheme("s4")
        disco = warm.scheme("disco")
        # Disco embeds the very substrate object.
        assert disco.nddisco is nd
        # S4 reattaches to the substrate's slabs (the addresses) and its
        # names list, not copies.
        assert s4.tables is nd.tables
        assert s4._names is nd.names
        assert len(s4._names) == topology.num_nodes

    def test_exactly_one_substrate_graph_in_memory(self, tmp_path):
        """The acceptance invariant: warm holds ONE substrate, like cold."""
        cold, warm, _ = _warm_simulation(tmp_path / "cache")
        for simulation in (cold, warm):
            nd = simulation.scheme("nd-disco")
            assert simulation.scheme("s4").tables is nd.tables
            assert simulation.scheme("disco").nddisco.tables is nd.tables

    def test_every_warm_scheme_shares_the_workload_topology(self, tmp_path):
        _, warm, topology = _warm_simulation(tmp_path / "cache")
        for name in PROTOCOLS:
            assert warm.scheme(name).topology is topology

    def test_warm_results_identical_to_cold(self, tmp_path):
        cold, warm, _ = _warm_simulation(tmp_path / "cache")
        cold_results = cold.run(pair_sample=40, measure_congestion_flag=True)
        warm_results = warm.run(pair_sample=40, measure_congestion_flag=True)
        assert cold_results.state.keys() == warm_results.state.keys()
        for name in cold_results.state:
            assert (
                cold_results.state[name].entry_summary
                == warm_results.state[name].entry_summary
            )
            assert (
                cold_results.stretch[name].first_summary
                == warm_results.stretch[name].first_summary
            )
            assert (
                cold_results.congestion[name].summary
                == warm_results.congestion[name].summary
            )

    def test_warm_disco_overlay_answers_as_cold(self, tmp_path):
        """The overlay's ring is flat arrays; a loaded shell must carry
        them all (the layout the artifact schema revision names)."""
        cold, warm, topology = _warm_simulation(tmp_path / "cache")
        cold_overlay = cold.scheme("disco").overlay
        warm_overlay = warm.scheme("disco").overlay
        assert warm_overlay is not cold_overlay
        for node in range(topology.num_nodes):
            for accessor in ("successor", "predecessor", "neighbors", "degree"):
                assert getattr(warm_overlay, accessor)(node) == getattr(
                    cold_overlay, accessor
                )(node)

    def test_shells_are_lightweight_on_disk(self, tmp_path):
        import os
        import pickle

        root = tmp_path / "cache"
        cold, _, _ = _warm_simulation(root, protocols=("nd-disco", "s4"))
        plain = len(pickle.dumps(cold.scheme("s4"), protocol=4))
        (shell,) = [
            os.path.getsize(os.path.join(root, "scheme", name))
            for name in os.listdir(root / "scheme")
            if name.endswith(".pkl")
        ]
        # The shell drops the embedded substrate copy (SPT rows, addresses,
        # names, topology), so it must be clearly smaller than the full
        # pickle -- the exact ratio varies with n.
        assert shell < plain * 0.8


class TestRegistry:
    """A substrate registers four objects for shells to cut at: itself,
    its topology, its names list and its tables -- at every n."""

    @pytest.mark.parametrize("n", [48, 384])
    def test_a_substrate_registers_four_ids(self, tmp_path, n):
        parts = ("gnm", n, 5, 6.0)

        def build():
            return gnm_random_graph(n, seed=5, average_degree=6.0)

        for _ in ("cold", "warm"):
            with activated(ArtifactCache(tmp_path / "cache")) as cache:
                topology = cache.topology(parts, build)
                simulation = StaticSimulation(topology, ("nd-disco", "s4"), seed=3)
                nd = simulation.scheme("nd-disco")
                assert set(cache._shared) == {
                    id(nd), id(nd.topology), id(nd.names), id(nd.tables)
                }
                assert [ref.path for ref in cache._shared.values()] == [
                    (), (), ("names",), ()
                ]
                assert simulation.scheme("s4")._names is nd.names
        assert cache.misses == 0


class TestDegradation:
    def test_evicted_substrate_demotes_shells_to_misses(self, tmp_path):
        import glob
        import os

        root = tmp_path / "cache"
        cold, _, _ = _warm_simulation(root, protocols=("nd-disco", "s4"))
        for path in glob.glob(str(root / "substrate" / "*")):
            os.unlink(path)
        with activated(ArtifactCache(root)) as cache:
            rebuilt = StaticSimulation(
                _build_topology(), ("nd-disco", "s4"), seed=3
            )
            assert cache.misses >= 1  # the substrate (and its dependents)
        for node in (0, 35, 71):
            assert rebuilt.scheme("s4").state_entries(
                node
            ) == cold.scheme("s4").state_entries(node)

    def test_mutated_topology_is_never_smuggled_through_a_reference(
        self, tmp_path
    ):
        root = tmp_path / "cache"
        with activated(ArtifactCache(root)) as cache:
            topology = cache.topology(("gnm", 72, 5, 6.0), _build_topology)
            StaticSimulation(_edited(topology), ("vrr",), seed=3)
        mutated = _edited(_build_topology())
        with activated(ArtifactCache(root)) as cache:
            warm = StaticSimulation(mutated, ("vrr",), seed=3)
            assert cache.hits >= 1
        # The warm shell must carry the mutated edge set, not the stale
        # pre-mutation topology artifact.
        assert warm.scheme("vrr").topology == mutated

    def test_substrate_keys_use_their_own_namespace(self):
        topology = _build_topology()
        assert "nd-disco" in SUBSTRATE_SCHEMES
        substrate = scheme_key(topology, "nd-disco", seed=3)
        scheme = scheme_key(topology, "s4", seed=3)
        assert substrate != scheme
