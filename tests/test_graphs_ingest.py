"""Tests for the streaming ingestion pipeline and the CSRTopology fast path.

The dict-backed :class:`~repro.graphs.topology.Topology` stays the
differential oracle: every test here pins the streaming/CSR path to be
byte-identical to it -- adjacency, content keys, CSR slabs, shortest-path
results, substrate tables, and scenario JSON alike.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.graphs._ckernels import load_kernels
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_router_level,
)
from repro.graphs.ingest import (
    ROCKETFUEL_EXTERNAL_DELAY,
    ROCKETFUEL_INTERNAL_DELAY,
    available_formats,
    file_digest,
    ingest_file,
    ingest_topology,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.topology import CSRTopology, Topology

HAVE_C = load_kernels() is not None

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_EDGES = os.path.join(DATA, "fixture.edges")
FIXTURE_ROCKETFUEL = os.path.join(DATA, "fixture-isp.cch")
FIXTURE_CAIDA = os.path.join(DATA, "fixture-as.links")


def assert_same_topology(actual: Topology, oracle: Topology) -> None:
    """Byte-level equivalence: structure, weights, content key, CSR slabs."""
    assert actual.num_nodes == oracle.num_nodes
    assert actual.num_edges == oracle.num_edges
    assert actual.adjacency == oracle.adjacency
    assert sorted(actual.edges()) == sorted(oracle.edges())
    assert actual.content_key() == oracle.content_key()
    a_csr, o_csr = actual.csr(), oracle.csr()
    assert a_csr.offsets.tobytes() == o_csr.offsets.tobytes()
    assert a_csr.neighbors.tobytes() == o_csr.neighbors.tobytes()
    assert a_csr.weights.tobytes() == o_csr.weights.tobytes()


def _generators():
    return [
        ("gnm", lambda: gnm_random_graph(120, seed=4, average_degree=5.0)),
        (
            "geometric",
            lambda: geometric_random_graph(100, seed=3, average_degree=6.0),
        ),
        ("router-level", lambda: internet_router_level(96, seed=5)),
    ]


class TestStreamingDifferential:
    @pytest.mark.parametrize(
        "label,build", _generators(), ids=[k for k, _ in _generators()]
    )
    def test_csr_backend_matches_dict_backend(self, tmp_path, label, build):
        topology = build()
        path = tmp_path / f"{label}.edges"
        write_edge_list(topology, path)
        dict_topology = ingest_file(path, backend="dict")
        csr_topology = ingest_file(path, backend="csr")
        assert type(dict_topology) is Topology
        assert isinstance(csr_topology, CSRTopology)
        assert_same_topology(csr_topology, dict_topology)
        assert_same_topology(csr_topology, topology)

    def test_read_edge_list_routes_through_streaming_parser(self, tmp_path):
        topology = gnm_random_graph(60, seed=7, average_degree=5.0)
        path = tmp_path / "g.edges"
        write_edge_list(topology, path)
        loaded = read_edge_list(path)
        assert type(loaded) is Topology
        assert loaded == topology
        assert loaded.name == topology.name

    def test_shortest_paths_bit_identical(self, tmp_path):
        topology = geometric_random_graph(90, seed=9, average_degree=6.0)
        path = tmp_path / "geo.edges"
        write_edge_list(topology, path)
        dict_csr = ingest_file(path, backend="dict").csr()
        slab_csr = ingest_file(path, backend="csr").csr()
        for source in (0, 17, 55):
            d_dist, d_pred = dict_csr.dijkstra(source)
            s_dist, s_pred = slab_csr.dijkstra(source)
            assert list(d_dist) == list(s_dist)
            assert list(d_pred) == list(s_pred)

    def test_substrate_tables_byte_identical(self, tmp_path):
        from repro.addressing.labels import LabelCodec
        from repro.core.landmarks import select_landmarks
        from repro.core.substrate_build import build_substrate_tables

        topology = gnm_random_graph(80, seed=6, average_degree=6.0)
        path = tmp_path / "g.edges"
        write_edge_list(topology, path)
        dict_topology = ingest_file(path, backend="dict")
        csr_topology = ingest_file(path, backend="csr")
        landmarks = select_landmarks(topology.num_nodes, seed=1)
        d_tables = build_substrate_tables(
            dict_topology, landmarks, codec=LabelCodec(dict_topology)
        )
        c_tables = build_substrate_tables(
            csr_topology, landmarks, codec=LabelCodec(csr_topology)
        )
        d_slabs = {name: slab for name, _, slab in d_tables.slab_items()}
        c_slabs = {name: slab for name, _, slab in c_tables.slab_items()}
        assert d_slabs.keys() == c_slabs.keys()
        for name in d_slabs:
            assert bytes(d_slabs[name]) == bytes(c_slabs[name]), name

    def test_scenario_json_byte_identical(self, tmp_path, monkeypatch):
        """The fig02 'real' panel is byte-identical dict vs CSR backend."""
        import dataclasses

        from repro.experiments import fig02_state_cdf
        from repro.experiments.config import ExperimentScale
        from repro.scenarios.results import to_jsonable

        topology = gnm_random_graph(64, seed=8, average_degree=5.0)
        path = tmp_path / "real.edges"
        write_edge_list(topology, path)
        scale = dataclasses.replace(
            ExperimentScale(
                large_nodes=48,
                as_level_nodes=48,
                router_level_nodes=64,
                pair_sample=50,
                label="ingest-test",
            ),
            topology_file=str(path),
        )
        csr_result = fig02_state_cdf.run(scale)
        assert csr_result.real is not None
        monkeypatch.setitem(
            fig02_state_cdf._PANELS,
            "real",
            lambda s: ingest_file(
                s.topology_file, backend="dict", largest_component=True
            ),
        )
        dict_result = fig02_state_cdf.run(scale)
        assert json.dumps(
            to_jsonable(csr_result), sort_keys=True
        ) == json.dumps(to_jsonable(dict_result), sort_keys=True)


class TestEdgeListErrorSemantics:
    """The streaming parser keeps ``read_edge_list``'s exact error surface."""

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_malformed_line(self, tmp_path, backend):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValueError, match="expected"):
            ingest_file(path, backend=backend)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_non_numeric(self, tmp_path, backend):
        path = tmp_path / "bad.edges"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="non-numeric"):
            ingest_file(path, backend=backend)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_negative_id(self, tmp_path, backend):
        path = tmp_path / "bad.edges"
        path.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            ingest_file(path, backend=backend)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_out_of_range_vs_header(self, tmp_path, backend):
        path = tmp_path / "bad.edges"
        path.write_text("# nodes 2\n0 5\n")
        with pytest.raises(ValueError, match="declares"):
            ingest_file(path, backend=backend)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_self_loop(self, tmp_path, backend):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n3 3\n")
        with pytest.raises(ValueError, match=r"self-loops .* \(node 3\)"):
            ingest_file(path, backend=backend)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_non_positive_weight(self, tmp_path, backend):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 0.0\n")
        with pytest.raises(ValueError, match="must be > 0"):
            ingest_file(path, backend=backend)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize(
        "weight", ["inf", "-inf", "nan", "1e999", "0", "-1"]
    )
    def test_weight_must_be_positive_and_finite(
        self, tmp_path, backend, weight
    ):
        # ``weight <= 0`` is false for inf and NaN: the csr backend used to
        # load them into a topology whose searches return inf / nan.
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n1 2 {weight}\n2 3\n")
        with pytest.raises(
            ValueError, match="edge weight must be > 0 and finite, got"
        ):
            ingest_file(path, backend=backend)

    def test_line_errors_precede_deferred_self_loop(self, tmp_path):
        # Legacy read_edge_list parsed every line before adding edges, so a
        # malformed later line outranked an earlier self-loop; preserved.
        path = tmp_path / "bad.edges"
        path.write_text("2 2\n0 1 2 3\n")
        with pytest.raises(ValueError, match="expected"):
            ingest_file(path)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_duplicate_edges_keep_first_weight(self, tmp_path, backend):
        path = tmp_path / "dup.edges"
        path.write_text("0 1 2.0\n1 0 7.0\n1 2\n")
        topology = ingest_file(path, backend=backend)
        assert topology.num_edges == 2
        assert topology.edge_weight(0, 1) == 2.0

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_header_nodes_vs_inferred(self, tmp_path, backend):
        declared = tmp_path / "declared.edges"
        declared.write_text("# nodes 9\n0 1\n")
        assert ingest_file(declared, backend=backend).num_nodes == 9
        inferred = tmp_path / "inferred.edges"
        inferred.write_text("0 1\n1 5\n")
        assert ingest_file(inferred, backend=backend).num_nodes == 6

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_crlf_blank_lines_and_comments(self, tmp_path, backend):
        path = tmp_path / "crlf.edges"
        path.write_bytes(b"# name crlf\r\n\r\n0 1\r\n# c\r\n1 2 4.0\r\n\r\n")
        topology = ingest_file(path, backend=backend)
        assert topology.name == "crlf"
        assert topology.num_edges == 2
        assert topology.edge_weight(1, 2) == 4.0

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_name_header_and_override(self, tmp_path, backend):
        path = tmp_path / "named.edges"
        path.write_text("# name declared\n0 1\n")
        assert ingest_file(path, backend=backend).name == "declared"
        assert (
            ingest_file(path, backend=backend, name="custom").name == "custom"
        )

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_empty_file(self, tmp_path, backend):
        path = tmp_path / "empty.edges"
        path.write_text("# nodes 4\n")
        topology = ingest_file(path, backend=backend)
        assert topology.num_nodes == 4
        assert topology.num_edges == 0


class TestFormats:
    def test_registered_formats(self):
        formats = available_formats()
        for name in ("edge-list", "rocketfuel", "caida-aslinks"):
            assert name in formats

    def test_unknown_format_raises(self, tmp_path):
        path = tmp_path / "x.edges"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="unknown topology format"):
            ingest_file(path, fmt="no-such-format")

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_caida_fixture(self, backend):
        topology = ingest_file(
            FIXTURE_CAIDA, fmt="caida-aslinks", backend=backend
        )
        # 200-node AS map plus a detached doubleton; duplicate D/I rows
        # (including reversed ones) collapse, self-loop rows are skipped.
        assert topology.num_nodes == 202
        assert topology.weight_profile().unit
        largest = ingest_file(
            FIXTURE_CAIDA,
            fmt="caida-aslinks",
            backend=backend,
            largest_component=True,
        )
        assert largest.num_nodes == 200

    def test_caida_backends_identical(self):
        dict_topology = ingest_file(
            FIXTURE_CAIDA, fmt="caida-aslinks", backend="dict"
        )
        csr_topology = ingest_file(
            FIXTURE_CAIDA, fmt="caida-aslinks", backend="csr"
        )
        assert_same_topology(csr_topology, dict_topology)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_rocketfuel_fixture(self, backend):
        topology = ingest_file(
            FIXTURE_ROCKETFUEL, fmt="rocketfuel", backend=backend
        )
        assert topology.num_nodes == 48
        weights = {w for _, _, w in topology.edges()}
        assert weights <= {
            ROCKETFUEL_INTERNAL_DELAY,
            ROCKETFUEL_EXTERNAL_DELAY,
        }
        assert ROCKETFUEL_INTERNAL_DELAY in weights

    def test_rocketfuel_backends_identical(self):
        dict_topology = ingest_file(
            FIXTURE_ROCKETFUEL, fmt="rocketfuel", backend="dict"
        )
        csr_topology = ingest_file(
            FIXTURE_ROCKETFUEL, fmt="rocketfuel", backend="csr"
        )
        assert_same_topology(csr_topology, dict_topology)

    def test_rocketfuel_delay_params(self):
        default = ingest_file(FIXTURE_ROCKETFUEL, fmt="rocketfuel")
        unit = ingest_file(
            FIXTURE_ROCKETFUEL,
            fmt="rocketfuel",
            internal_delay=1.0,
            external_delay=1.0,
        )
        assert default.content_key() != unit.content_key()
        assert unit.weight_profile().unit

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_edge_list_fixture(self, backend):
        topology = ingest_file(FIXTURE_EDGES, backend=backend)
        assert topology.name == "fixture-gnm"
        assert topology.num_nodes == 160


class TestCSRTopology:
    @pytest.fixture(scope="class")
    def csr_topology(self) -> CSRTopology:
        topology = gnm_random_graph(70, seed=11, average_degree=5.0)
        return CSRTopology.from_edge_arrays(
            topology.num_nodes,
            *_edge_arrays(topology),
            name=topology.name,
        )

    def test_immutable(self, csr_topology):
        with pytest.raises(TypeError, match="immutable"):
            csr_topology.add_edge(0, 1)
        with pytest.raises(TypeError, match="immutable"):
            csr_topology.remove_edge(0, 1)
        with pytest.raises(TypeError, match="immutable"):
            csr_topology.set_edge_weight(0, 1, 2.0)

    def test_matches_dict_topology(self, csr_topology):
        oracle = csr_topology.to_dict_topology()
        assert type(oracle) is Topology
        assert_same_topology(csr_topology, oracle)
        assert csr_topology.degree_sequence() == oracle.degree_sequence()
        assert csr_topology.max_degree() == oracle.max_degree()
        assert csr_topology.total_weight() == oracle.total_weight()

    def test_pickle_round_trip(self, csr_topology):
        clone = pickle.loads(pickle.dumps(csr_topology))
        assert isinstance(clone, CSRTopology)
        assert clone.content_key() == csr_topology.content_key()
        assert clone.adjacency == csr_topology.adjacency

    def test_slab_dir_round_trip(self, csr_topology, tmp_path):
        slab_dir = tmp_path / "topo.slabs"
        csr_topology.save_slabs(slab_dir)
        loaded = CSRTopology.from_slab_dir(slab_dir)
        assert loaded.content_key() == csr_topology.content_key()
        a = loaded.csr().dijkstra(0)
        b = csr_topology.csr().dijkstra(0)
        assert list(a[0]) == list(b[0]) and list(a[1]) == list(b[1])

    def test_copy_shares_slabs(self, csr_topology):
        clone = csr_topology.copy()
        assert isinstance(clone, CSRTopology)
        assert clone is not csr_topology
        assert clone._offsets is csr_topology._offsets
        assert clone == csr_topology

    def test_largest_component_matches_dict_path(self, tmp_path):
        path = tmp_path / "disconnected.edges"
        path.write_text("# nodes 8\n0 1\n1 2\n2 0\n4 5\n6 7\n")
        dict_lcc, dict_map = ingest_file(
            path, backend="dict"
        ).largest_component_subgraph()
        csr_lcc, csr_map = ingest_file(
            path, backend="csr"
        ).largest_component_subgraph()
        assert csr_map == dict_map
        assert csr_lcc.num_nodes == dict_lcc.num_nodes == 3
        assert_same_topology(csr_lcc, dict_lcc)

    def test_unit_graph_selects_bfs_kernel(self, csr_topology):
        csr = csr_topology.csr()
        if HAVE_C:
            assert csr.kernel == "bfs"
            assert csr.tier == "c"
        else:
            assert csr.tier == "python"

    @pytest.mark.parametrize(
        "edges_u, edges_v, edges_w",
        [
            ([0, 1], [1, 3], [1.0, 1.0]),  # id out of range
            ([-1, 1], [1, 2], [1.0, 1.0]),
            ([0, 2], [1, 1], [1.0, 1.0]),  # u > v
            ([0, 1], [1, 1], [1.0, 1.0]),  # self-loop
            ([0, 1], [1, 2], [1.0, float("nan")]),
            ([0, 1], [1, 2], [float("-inf"), 1.0]),
            ([0, 1], [1, 2], [1.0, 0.0]),
            ([0, 1], [1, 2], [1.0]),  # lengths differ
            ([0, 1, 0], [1, 2, 1], [1.0, 1.0, 2.0]),  # repeated pair
        ],
    )
    def test_from_edge_arrays_rejects_malformed_arrays(
        self, edges_u, edges_v, edges_w
    ):
        from array import array

        with pytest.raises(ValueError):
            CSRTopology.from_edge_arrays(
                3, array("q", edges_u), array("q", edges_v), array("d", edges_w)
            )

    def test_weighted_graph_keeps_weighted_kernel(self):
        topology = geometric_random_graph(60, seed=13, average_degree=6.0)
        csr = CSRTopology.from_edge_arrays(
            topology.num_nodes, *_edge_arrays(topology)
        ).csr()
        assert csr.kernel != "bfs"


def _edge_arrays(topology: Topology):
    from array import array

    eu, ev, ew = array("q"), array("q"), array("d")
    for u, v, w in topology.edges():
        eu.append(u)
        ev.append(v)
        ew.append(w)
    return eu, ev, ew


class TestBFSKernel:
    """The C BFS kernel is bit-identical to the Python BFS fallback."""

    @pytest.fixture(scope="class")
    def unit_graph(self) -> Topology:
        return gnm_random_graph(128, seed=17, average_degree=6.0)

    def test_bfs_forced_on_weighted_graph_rejected(self):
        topology = geometric_random_graph(40, seed=2, average_degree=6.0)
        with pytest.raises(ValueError, match="bfs"):
            CSRGraph.from_topology(topology, kernel="bfs")

    def test_c_bfs_matches_python_bfs(self, unit_graph):
        if not HAVE_C:
            pytest.skip("C kernels unavailable")
        c_csr = CSRGraph.from_topology(unit_graph, kernel="bfs", use_c=True)
        py_csr = CSRGraph.from_topology(unit_graph, kernel="bfs", use_c=False)
        assert (c_csr.tier, py_csr.tier) == ("c", "python")
        k = 12
        for source in (0, 31, 127):
            c_dist, c_pred = c_csr.dijkstra(source)
            p_dist, p_pred = py_csr.dijkstra(source)
            assert list(c_dist) == list(p_dist)
            assert list(c_pred) == list(p_pred)
            assert c_csr.dijkstra_k_nearest(source, k) == (
                py_csr.dijkstra_k_nearest(source, k)
            )
            assert c_csr.dijkstra_radius(source, 3.0) == (
                py_csr.dijkstra_radius(source, 3.0)
            )

    def test_bfs_matches_bucket_kernel(self, unit_graph):
        bfs_csr = CSRGraph.from_topology(unit_graph, kernel="bfs")
        bucket_csr = CSRGraph.from_topology(unit_graph, kernel="bucket")
        for source in (0, 64):
            b_dist, b_pred = bfs_csr.dijkstra(source)
            q_dist, q_pred = bucket_csr.dijkstra(source)
            assert list(b_dist) == list(q_dist)
            assert list(b_pred) == list(q_pred)


class TestIngestArtifactCache:
    def _cache(self, tmp_path):
        from repro.scenarios.cache import ArtifactCache

        return ArtifactCache(tmp_path / "cache")

    def test_hit_on_same_inputs(self, tmp_path):
        from repro.scenarios.cache import activated

        path = tmp_path / "g.edges"
        write_edge_list(gnm_random_graph(50, seed=3, average_degree=5.0), path)
        cache = self._cache(tmp_path)
        with activated(cache):
            first = ingest_topology(path)
            second = ingest_topology(path)
        assert cache.hits == 1 and cache.misses == 1
        assert first.content_key() == second.content_key()

    def test_file_edit_invalidates(self, tmp_path):
        from repro.scenarios.cache import activated

        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        cache = self._cache(tmp_path)
        with activated(cache):
            before = ingest_topology(path)
            digest_before = file_digest(path)
            path.write_text("0 1\n1 2\n2 3\n")
            after = ingest_topology(path)
        assert cache.misses == 2
        assert digest_before != file_digest(path)
        assert before.content_key() != after.content_key()

    def test_params_and_flags_key_the_artifact(self, tmp_path):
        from repro.scenarios.cache import activated

        cache = self._cache(tmp_path)
        with activated(cache):
            ingest_topology(FIXTURE_ROCKETFUEL, fmt="rocketfuel")
            ingest_topology(
                FIXTURE_ROCKETFUEL, fmt="rocketfuel", internal_delay=1.0
            )
            ingest_topology(
                FIXTURE_ROCKETFUEL, fmt="rocketfuel", largest_component=True
            )
        assert cache.misses == 3 and cache.hits == 0

    def test_cold_disk_attach(self, tmp_path):
        from repro.scenarios.cache import ArtifactCache, activated

        path = tmp_path / "g.edges"
        write_edge_list(gnm_random_graph(50, seed=5, average_degree=5.0), path)
        root = tmp_path / "cache"
        with activated(ArtifactCache(root)):
            warm = ingest_topology(path)
        fresh = ArtifactCache(root)
        with activated(fresh):
            cold = ingest_topology(path)
        assert fresh.hits == 1 and fresh.misses == 0
        assert cold.content_key() == warm.content_key()
        assert cold.adjacency == warm.adjacency
