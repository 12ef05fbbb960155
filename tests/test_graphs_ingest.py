"""Tests for the streaming ingestion pipeline and the array-backed topology.

A :class:`~repro.graphs.topology.TopologyBuilder` replay of the parsed
lines is the differential oracle: every test here pins the streaming path
to be byte-identical to it -- all six slabs, edge order, content keys,
shortest-path results, substrate tables, and scenario JSON alike.  Slab
directories are checked on attach: a corrupted one raises instead of
reaching the kernels.
"""

from __future__ import annotations

import glob
import json
import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import reference_paths as reference
from oracles.reference_paths import assert_c_tier_picks, every_search
from repro.errors import InputError
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
    parse_caida_aslinks,
    parse_edge_list,
    parse_rocketfuel,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.topology import Topology, TopologyBuilder
from repro.utils.slab_dir import read_slab_dir

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE_EDGES = os.path.join(DATA, "fixture.edges")
FIXTURE_ROCKETFUEL = os.path.join(DATA, "fixture-isp.cch")
FIXTURE_CAIDA = os.path.join(DATA, "fixture-as.links")


def assert_same_topology(actual: Topology, oracle: Topology) -> None:
    """Byte-level equivalence: all six slabs, edge order, content key."""
    assert actual.num_nodes == oracle.num_nodes
    assert [(name, bytes(slab)) for name, _, slab in actual.slab_items()] == [
        (name, bytes(slab)) for name, _, slab in oracle.slab_items()
    ]
    assert list(actual.edges()) == list(oracle.edges())
    assert actual.adjacency == oracle.adjacency
    assert actual.content_key() == oracle.content_key()


def _settle_rows(csr, source: int) -> list[bytes]:
    """The whole search from ``source``: members in settle order, their
    distances and parents, as the k-nearest driver returns them at k = n."""
    return [bytes(slab) for slab in csr.k_nearest_batch_flat(csr.num_nodes, [source])]


def _builder_replay(path, parse, **params) -> Topology:
    """The parsed lines, repeats and all, replayed through a builder."""
    parsed = parse(path, **params)
    num_nodes = (
        parsed.declared_nodes
        if parsed.declared_nodes is not None
        else parsed.max_node + 1
    )
    builder = TopologyBuilder(num_nodes)
    for u, v, weight in zip(parsed.edges_u, parsed.edges_v, parsed.edges_w):
        builder.add_edge(u, v, weight)
    return builder.freeze()


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
    def test_ingest_matches_the_builder(self, tmp_path, label, build):
        topology = build()
        path = tmp_path / f"{label}.edges"
        write_edge_list(topology, path)
        ingested = ingest_file(path)
        assert type(ingested) is Topology
        assert_same_topology(ingested, topology)
        assert_same_topology(ingested, _builder_replay(path, parse_edge_list))

    def test_read_edge_list_routes_through_streaming_parser(self, tmp_path):
        topology = gnm_random_graph(60, seed=7, average_degree=5.0)
        path = tmp_path / "g.edges"
        write_edge_list(topology, path)
        loaded = read_edge_list(path)
        assert type(loaded) is Topology
        assert loaded.content_key() == topology.content_key()
        assert loaded.name == topology.name

    def test_shortest_paths_bit_identical(self, tmp_path):
        topology = geometric_random_graph(90, seed=9, average_degree=6.0)
        path = tmp_path / "geo.edges"
        write_edge_list(topology, path)
        built_csr = topology.csr()
        slab_csr = ingest_file(path).csr()
        for source in (0, 17, 55):
            assert _settle_rows(built_csr, source) == _settle_rows(
                slab_csr, source
            )
            assert built_csr.spt_rows(source) == slab_csr.spt_rows(source)

    def test_substrate_tables_byte_identical(self, tmp_path):
        from repro.core.landmarks import select_landmarks
        from repro.core.substrate_build import build_substrate_tables

        topology = gnm_random_graph(80, seed=6, average_degree=6.0)
        path = tmp_path / "g.edges"
        write_edge_list(topology, path)
        ingested = ingest_file(path)
        landmarks = select_landmarks(topology.num_nodes, seed=1)
        d_tables = build_substrate_tables(topology, landmarks)
        c_tables = build_substrate_tables(ingested, landmarks)
        d_slabs = {name: slab for name, _, slab in d_tables.slab_items()}
        c_slabs = {name: slab for name, _, slab in c_tables.slab_items()}
        assert d_slabs.keys() == c_slabs.keys()
        for name in d_slabs:
            assert bytes(d_slabs[name]) == bytes(c_slabs[name]), name

    def test_scenario_json_byte_identical(self, tmp_path, monkeypatch):
        """The fig02 'real' panel is byte-identical ingested vs built."""
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
        ingested_result = fig02_state_cdf.run(scale)
        assert ingested_result.real is not None
        monkeypatch.setitem(fig02_state_cdf._PANELS, "real", lambda s: topology)
        built_result = fig02_state_cdf.run(scale)
        assert json.dumps(
            to_jsonable(ingested_result), sort_keys=True
        ) == json.dumps(to_jsonable(built_result), sort_keys=True)


# Small ids, so both orientations and repeated pairs (with differing
# weights) are common; the weights repeat and include non-dyadic ones.
_EDGE_LISTS = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([1.0, 0.5, 2.25, 3.0, 0.1, 7.0]),
            ).filter(lambda edge: edge[0] != edge[1]),
            max_size=40,
        ),
    )
)


class TestBuilderReplayIsIngest:
    @given(case=_EDGE_LISTS)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_edge_lists(self, tmp_path, case):
        num_nodes, edges = case
        path = tmp_path / "random.edges"
        path.write_text(
            f"# nodes {num_nodes}\n"
            + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)
        )
        builder = TopologyBuilder(num_nodes, name="random")
        for u, v, weight in edges:
            builder.add_edge(u, v, weight)
        assert_same_topology(ingest_file(path, name="random"), builder.freeze())


class TestEdgeListErrorSemantics:
    """The streaming parser keeps ``read_edge_list``'s exact error surface."""

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        with pytest.raises(ValueError, match="expected"):
            ingest_file(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="non-numeric"):
            ingest_file(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            ingest_file(path)

    def test_out_of_range_vs_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# nodes 2\n0 5\n")
        with pytest.raises(ValueError, match="declares"):
            ingest_file(path)

    def test_self_loop(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n3 3\n")
        with pytest.raises(ValueError, match=r"self-loops .* \(node 3\)"):
            ingest_file(path)

    def test_non_positive_weight(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 0.0\n")
        with pytest.raises(ValueError, match="must be > 0"):
            ingest_file(path)

    @pytest.mark.parametrize(
        "weight", ["inf", "-inf", "nan", "1e999", "0", "-1"]
    )
    def test_weight_must_be_positive_and_finite(self, tmp_path, weight):
        # ``weight <= 0`` is false for inf and NaN: ingestion used to load
        # them into a topology whose searches return inf / nan.
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n1 2 {weight}\n2 3\n")
        with pytest.raises(
            ValueError, match="edge weight must be > 0 and finite, got"
        ):
            ingest_file(path)

    def test_line_errors_precede_deferred_self_loop(self, tmp_path):
        # Legacy read_edge_list parsed every line before adding edges, so a
        # malformed later line outranked an earlier self-loop; preserved.
        path = tmp_path / "bad.edges"
        path.write_text("2 2\n0 1 2 3\n")
        with pytest.raises(ValueError, match="expected"):
            ingest_file(path)

    def test_duplicate_edges_keep_first_weight(self, tmp_path):
        path = tmp_path / "dup.edges"
        path.write_text("0 1 2.0\n1 0 7.0\n1 2\n")
        topology = ingest_file(path)
        assert topology.num_edges == 2
        assert topology.edge_weight(0, 1) == 2.0

    def test_header_nodes_vs_inferred(self, tmp_path):
        declared = tmp_path / "declared.edges"
        declared.write_text("# nodes 9\n0 1\n")
        assert ingest_file(declared).num_nodes == 9
        inferred = tmp_path / "inferred.edges"
        inferred.write_text("0 1\n1 5\n")
        assert ingest_file(inferred).num_nodes == 6

    def test_crlf_blank_lines_and_comments(self, tmp_path):
        path = tmp_path / "crlf.edges"
        path.write_bytes(b"# name crlf\r\n\r\n0 1\r\n# c\r\n1 2 4.0\r\n\r\n")
        topology = ingest_file(path)
        assert topology.name == "crlf"
        assert topology.num_edges == 2
        assert topology.edge_weight(1, 2) == 4.0

    def test_name_header_and_override(self, tmp_path):
        path = tmp_path / "named.edges"
        path.write_text("# name declared\n0 1\n")
        assert ingest_file(path).name == "declared"
        assert ingest_file(path, name="custom").name == "custom"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nodes 4\n")
        topology = ingest_file(path)
        assert topology.num_nodes == 4
        assert topology.num_edges == 0

    @pytest.mark.parametrize("count", ["abc", "-3", "0", "2.5"])
    def test_nodes_header_takes_a_positive_integer(self, tmp_path, count):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n# nodes {count}\n")
        with pytest.raises(InputError, match=f"^{path}:2: '# nodes' takes"):
            ingest_file(path)

    @pytest.mark.parametrize("text", ["# nodes 30\n0 1\n", "0 29\n"])
    def test_more_nodes_than_memory_holds_is_refused_unallocated(
        self, tmp_path, monkeypatch, text
    ):
        """The node count -- the header, else the largest id + 1 -- times
        the bytes ingestion allocates per node is held to the machine's
        memory before anything is sized by it."""
        from repro.graphs import ingest

        def sized(*args):
            raise AssertionError("allocated before the size check")

        path = tmp_path / "big.edges"
        path.write_text(text)
        memory = 30 * ingest.INGEST_BYTES_PER_NODE
        monkeypatch.setattr(ingest, "_physical_memory", lambda: memory - 1)
        monkeypatch.setattr(ingest, "dedup_edge_arrays", sized)
        with pytest.raises(InputError, match=f"^{path}: 30 nodes need more"):
            ingest_file(path)
        monkeypatch.undo()
        monkeypatch.setattr(ingest, "_physical_memory", lambda: memory)
        assert ingest_file(path).num_nodes == 30

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("edge-list", ""),
            ("edge-list", "# name nothing\n\n"),
            ("rocketfuel", "garbage\n"),
            ("caida-aslinks", "T 1 2\nM monitors: 3\n"),
        ],
    )
    def test_a_file_that_yields_no_node_is_refused(self, tmp_path, fmt, text):
        path = tmp_path / "nothing.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=f"^{path}: no node"):
            ingest_file(path, fmt=fmt)

    def test_deferred_errors_name_the_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 2 nan\n2 2\n")
        with pytest.raises(InputError, match=f"^{path}:2: edge weight"):
            ingest_file(path)


# A small valid file per format; the fuzz below truncates it, flips bits
# in it, splices bytes that are not UTF-8 into it and may splice in, last,
# a whole edge line naming node 2^64.  Ids are single digits, so a flipped
# bit that merges two numbers still names a small node, and the huge line
# is never cut short (an id between those, or a huge "# nodes N", is a
# size question, outside this test).
_FUZZ_SEEDS = {
    "edge-list": b"# nodes 6\n# name fuzz\n0 1\n1 2 2.5\n2 3\n3 4 0.5\n5 0 7\n",
    "rocketfuel": b"# isp\n1 @a + (2) -> <2> {3} =r1 rn\n2 @b -> <1> <3>\n3 -> {1}\n",
    "caida-aslinks": b"T\t1\t2\nD\t10\t11\t1\nI\t11\t12\t2\nD\t12\t10\n",
}


_HUGE_ID_LINE = b"0 18446744073709551616\n"


@st.composite
def _mangled(draw, seed: bytes) -> bytes:
    data = bytearray(seed)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.binary(min_size=1, max_size=3)).translate(
            bytes(range(128, 256)) * 2
        )
    del data[draw(st.integers(0, len(data))) :]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data[at:at] = _HUGE_ID_LINE
    return bytes(data)


class TestParserFuzz:
    """Bytes from outside either load or raise ``InputError``, nothing
    else, in every format (``read_edge_list`` for the native one)."""

    @pytest.mark.parametrize("fmt", sorted(_FUZZ_SEEDS))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mangled_bytes_load_or_raise_input_error(self, tmp_path, fmt, data):
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data.draw(_mangled(_FUZZ_SEEDS[fmt])))
        try:
            if fmt == "edge-list":
                topology = read_edge_list(path)
            else:
                topology = ingest_file(path, fmt=fmt)
        except InputError:
            return
        assert type(topology) is Topology and topology.num_nodes >= 1


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

    def test_caida_fixture(self):
        topology = ingest_file(FIXTURE_CAIDA, fmt="caida-aslinks")
        # 200-node AS map plus a detached doubleton; duplicate D/I rows
        # (including reversed ones) collapse, self-loop rows are skipped.
        assert topology.num_nodes == 202
        assert topology.weight_profile().unit
        largest = ingest_file(
            FIXTURE_CAIDA, fmt="caida-aslinks", largest_component=True
        )
        assert largest.num_nodes == 200

    def test_caida_builder_replay_identical(self):
        assert_same_topology(
            ingest_file(FIXTURE_CAIDA, fmt="caida-aslinks"),
            _builder_replay(FIXTURE_CAIDA, parse_caida_aslinks),
        )

    def test_rocketfuel_fixture(self):
        topology = ingest_file(FIXTURE_ROCKETFUEL, fmt="rocketfuel")
        assert topology.num_nodes == 48
        weights = {w for _, _, w in topology.edges()}
        assert weights <= {
            ROCKETFUEL_INTERNAL_DELAY,
            ROCKETFUEL_EXTERNAL_DELAY,
        }
        assert ROCKETFUEL_INTERNAL_DELAY in weights

    def test_rocketfuel_builder_replay_identical(self):
        assert_same_topology(
            ingest_file(FIXTURE_ROCKETFUEL, fmt="rocketfuel"),
            _builder_replay(FIXTURE_ROCKETFUEL, parse_rocketfuel),
        )

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

    def test_edge_list_fixture(self):
        topology = ingest_file(FIXTURE_EDGES)
        assert topology.name == "fixture-gnm"
        assert topology.num_nodes == 160
        assert_same_topology(
            topology, _builder_replay(FIXTURE_EDGES, parse_edge_list)
        )


class TestArrayTopology:
    @pytest.fixture(scope="class")
    def topology(self) -> Topology:
        built = gnm_random_graph(70, seed=11, average_degree=5.0)
        return Topology.from_edge_arrays(
            built.num_nodes, *_edge_arrays(built), name=built.name
        )

    def test_matches_the_builder(self, topology):
        oracle = TopologyBuilder.from_topology(topology).freeze()
        assert_same_topology(topology, oracle)
        assert topology.degree_sequence() == oracle.degree_sequence()
        assert topology.max_degree() == oracle.max_degree()
        assert sum(w for _, _, w in topology.edges()) == sum(
            w for _, _, w in oracle.edges()
        )

    def test_slab_dir_round_trip(self, topology, tmp_path):
        slab_dir = tmp_path / "topo.slabs"
        topology.save_slabs(slab_dir)
        loaded = Topology.from_slab_dir(slab_dir)
        assert_same_topology(loaded, topology)
        assert _settle_rows(loaded.csr(), 0) == _settle_rows(topology.csr(), 0)

    def test_copy_shares_slabs(self, topology):
        clone = topology.copy()
        assert clone is not topology
        assert clone._offsets is topology._offsets
        assert clone.content_key() == topology.content_key()

    def test_largest_component_matches_the_builder(self, tmp_path):
        path = tmp_path / "disconnected.edges"
        path.write_text("# nodes 8\n0 1\n1 2\n2 0\n4 5\n6 7\n")
        lcc, mapping = ingest_file(path).largest_component_subgraph()
        assert mapping == {0: 0, 1: 1, 2: 2}
        assert lcc.num_nodes == 3
        assert_same_topology(
            lcc, Topology.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        )

    def test_unit_graph_selects_bfs_kernel(self, topology):
        assert_c_tier_picks(topology, "bfs")

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
            Topology.from_edge_arrays(
                3, array("q", edges_u), array("q", edges_v), array("d", edges_w)
            )

    def test_weighted_graph_keeps_weighted_kernel(self):
        topology = geometric_random_graph(60, seed=13, average_degree=6.0)
        csr = Topology.from_edge_arrays(
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


#: One bad item per slab, at index 3, each breaking an invariant the attach
#: check covers: an offset past the arcs, a neighbour id past n, a negative
#: arc weight, an edge whose u is not below v, a v past n, a NaN weight.
_FLIPS = {
    "offsets": ("<q", 10**9),
    "neighbors": ("<q", 10**9),
    "weights": ("<d", -1.0),
    "edges_u": ("<q", 10**9),
    "edges_v": ("<q", 10**9),
    "edges_w": ("<d", float("nan")),
}


def _flip(slab_dir, slab: str) -> None:
    code, value = _FLIPS[slab]
    with open(os.path.join(slab_dir, f"{slab}.bin"), "r+b") as handle:
        handle.seek(3 * 8)
        handle.write(struct.pack(code, value))


class TestSlabDirValidation:
    """A corrupted slab directory raises at attach and never reaches C."""

    @pytest.mark.parametrize("slab", sorted(_FLIPS))
    def test_a_flipped_item_raises_at_attach(self, tmp_path, tier, slab):
        topology = gnm_random_graph(64, seed=2, average_degree=6.0)
        slab_dir = topology.save_slabs(tmp_path / "topo.slabs")
        assert Topology.from_slab_dir(slab_dir).csr().spt_rows(0)
        _flip(slab_dir, slab)
        with pytest.raises(InputError, match="CSR invariants"):
            Topology.from_slab_dir(slab_dir)

    def test_another_schema_or_a_short_file_is_an_input_error(self, tmp_path):
        topology = gnm_random_graph(64, seed=2, average_degree=6.0)
        slab_dir = topology.save_slabs(tmp_path / "topo.slabs")
        with pytest.raises(InputError, match="not a repro-tables"):
            read_slab_dir(slab_dir, "repro-tables/v0")
        with open(os.path.join(slab_dir, "weights.bin"), "r+b") as handle:
            handle.truncate(8)
        with pytest.raises(InputError, match="manifest expects"):
            Topology.from_slab_dir(slab_dir)

    @pytest.mark.parametrize("slab", sorted(_FLIPS))
    def test_the_cache_rebuilds_a_flipped_slab_dir(self, tmp_path, tier, slab):
        from repro.scenarios.cache import ArtifactCache, activated

        path = tmp_path / "g.edges"
        write_edge_list(gnm_random_graph(64, seed=2, average_degree=6.0), path)
        root = tmp_path / "cache"
        with activated(ArtifactCache(root)):
            clean = ingest_topology(path)
        (slab_dir,) = glob.glob(str(root / "topology" / "*.slabs"))
        _flip(slab_dir, slab)
        fresh = ArtifactCache(root)
        with activated(fresh):
            rebuilt = ingest_topology(path)
        assert (fresh.hits, fresh.misses) == (0, 1)
        assert_same_topology(rebuilt, clean)
        assert rebuilt.csr().spt_rows(5) == clean.csr().spt_rows(5)
        # The rebuild replaced the flipped directory, so the next run hits.
        third = ArtifactCache(root)
        with activated(third):
            assert_same_topology(ingest_topology(path), clean)
        assert (third.hits, third.misses) == (1, 0)


class TestBFSKernel:
    """The C BFS kernel on an ingested unit-weight graph, with the other C
    kernels the profile admits and the Python tier, equals the oracle."""

    @pytest.fixture(scope="class")
    def unit_graph(self) -> Topology:
        return gnm_random_graph(128, seed=17, average_degree=6.0)

    def test_every_search_matches_the_oracle(self, unit_graph, tier):
        searches = every_search(unit_graph, tier=tier)
        assert set(searches) == (
            {"c-bfs", "c-bucket", "c-heap"} if tier == "c" else {"python"}
        )
        for csr in searches.values():
            reference.assert_matches_oracle(
                unit_graph,
                csr,
                (0, 31, 64, 127),
                ks=(12, unit_graph.num_nodes),
                radii=(3.0,),
            )


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
