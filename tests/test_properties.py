"""Cross-cutting property-based tests on the protocol invariants.

These use hypothesis to sweep topology families, sizes, and seeds, checking
the invariants the paper proves:

* Theorem 1 -- Disco later-packet stretch ≤ 3 and (with the group-contact
  mechanism available) first-packet stretch ≤ 7;
* Theorem 2 -- per-node state well below Θ(n) and concentrated;
* S4 later-packet stretch ≤ 3 (Thorup-Zwick);
* routes produced by every protocol are valid walks ending at the target;
* explicit-route label encoding round-trips on arbitrary shortest paths,
  and an address is a row of the SPT slabs, on fresh and churned state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.labels import decode_path
from repro.addressing.labels import address_bits, hop_label_bits
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.dynamics.engine import ChurnEngine
from repro.dynamics.stream import generate_event_stream
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    ring_graph,
)
from repro.graphs.topology import TopologyBuilder
from repro.graphs.sampling import sample_pairs
from repro.metrics.stretch import measure_stretch
from repro.naming.names import name_for_node
from repro.protocols.s4 import S4Routing

# Building a converged protocol is costly, so property tests use modest
# example counts and sizes; the deterministic unit tests cover the rest.
_SETTINGS = settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_topology_strategies = st.sampled_from(["gnm", "geometric", "internet"])


#: Edge weights: hop counts (BFS kernel), small integers (Dial kernel) and
#: irregular floats (heap kernel).
_WEIGHTS = {
    "unit": lambda rng: 1.0,
    "integer": lambda rng: float(rng.randint(1, 4)),
    "irregular": lambda rng: rng.uniform(0.1, 3.0),
}


def _address_topology(kind: str, weights: str, n: int, seed: int):
    """A gnm, geometric or ring graph with its edges reweighted."""
    if kind == "ring":
        shape = ring_graph(n)
    else:
        shape = _build_topology(kind, n, seed)
    rng = random.Random(seed)
    builder = TopologyBuilder(n)
    for u, v, _ in shape.edges():
        builder.add_edge(u, v, _WEIGHTS[weights](rng))
    return builder.freeze()


def _build_topology(kind: str, n: int, seed: int):
    if kind == "gnm":
        return gnm_random_graph(n, seed=seed, average_degree=6.0)
    if kind == "geometric":
        return geometric_random_graph(n, seed=seed, average_degree=7.0)
    return internet_as_level(n, seed=seed)


class TestDiscoInvariants:
    @_SETTINGS
    @given(
        kind=_topology_strategies,
        n=st.integers(min_value=48, max_value=120),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_stretch_bounds_and_delivery(self, kind, n, seed):
        topology = _build_topology(kind, n, seed)
        disco = DiscoRouting(topology, seed=seed)
        pairs = sample_pairs(topology, 40, seed=seed + 1)
        distances = topology.csr().batched_target_distances(pairs)
        for source, target in pairs:
            first = disco.first_packet_route(source, target)
            later = disco.later_packet_route(source, target)
            assert first.path[0] == source and first.path[-1] == target
            assert later.path[0] == source and later.path[-1] == target
            shortest = distances[(source, target)]
            assert later.length(topology) <= 3.0 * shortest + 1e-6
            if first.mechanism != "resolution-fallback":
                assert first.length(topology) <= 7.0 * shortest + 1e-6

    @_SETTINGS
    @given(
        n=st.integers(min_value=60, max_value=140),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_state_concentrated(self, n, seed):
        topology = gnm_random_graph(n, seed=seed, average_degree=6.0)
        disco = DiscoRouting(topology, seed=seed)
        entries = [disco.state_entries(v) for v in topology.nodes()]
        mean = sum(entries) / len(entries)
        assert max(entries) <= 2.5 * mean
        # Never worse than flat per-destination tables by more than the
        # name-independence constant (group mappings + overlay links).
        assert max(entries) <= 4 * n


class TestS4Invariants:
    @_SETTINGS
    @given(
        kind=_topology_strategies,
        n=st.integers(min_value=48, max_value=120),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_later_packet_stretch_bound(self, kind, n, seed):
        topology = _build_topology(kind, n, seed)
        s4 = S4Routing(topology, seed=seed)
        report = measure_stretch(s4, pair_sample=40, seed=seed + 2)
        assert report.later_summary.maximum <= 3.0 + 1e-9


class TestNDDiscoInvariants:
    @_SETTINGS
    @given(
        n=st.integers(min_value=48, max_value=120),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_pure_name_dependent_first_packet_bound(self, n, seed):
        topology = gnm_random_graph(n, seed=seed, average_degree=6.0)
        nddisco = NDDiscoRouting(topology, seed=seed, resolve_first_packet=False)
        report = measure_stretch(nddisco, pair_sample=40, seed=seed + 3)
        assert report.first_summary.maximum <= 5.0 + 1e-9
        assert report.later_summary.maximum <= 3.0 + 1e-9

    @_SETTINGS
    @given(
        n=st.integers(min_value=48, max_value=120),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_addresses_decode_to_their_nodes(self, n, seed):
        topology = internet_as_level(n, seed=seed)
        nddisco = NDDiscoRouting(topology, seed=seed)
        for node in range(0, n, 7):
            address = nddisco.address_of(node)
            decoded = decode_path(
                topology, address.landmark, list(address.route.labels)
            )
            assert decoded[-1] == node
            assert decoded == list(address.route.path)

    @_SETTINGS
    @given(
        kind=st.sampled_from(["gnm", "geometric", "ring"]),
        weights=st.sampled_from(sorted(_WEIGHTS)),
        n=st.integers(min_value=24, max_value=90),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_an_address_is_a_row_of_the_spt_slabs(self, kind, weights, n, seed):
        """Every node's address decodes to its closest landmark's SPT path,
        and its bits are the path's hop label bits, summed."""
        topology = _address_topology(kind, weights, n, seed)
        nddisco = NDDiscoRouting(topology, seed=seed)
        tables = nddisco.tables
        for node in range(n):
            landmark = tables.closest[node]
            path = tables.spt_path(landmark, node)
            address = nddisco.address_of(node)
            assert address.landmark == landmark
            assert decode_path(topology, landmark, address.route.labels) == path
            bits = sum(hop_label_bits(topology.degree(hop)) for hop in path[:-1])
            assert address.route.bits == nddisco.address_bits[node] == bits

    @_SETTINGS
    @given(
        kind=st.sampled_from(["gnm", "geometric"]),
        weights=st.sampled_from(sorted(_WEIGHTS)),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_churned_tables_give_a_fresh_build_s_bits(self, kind, weights, seed):
        """After a 24-event stream with no partition (edge events only keep
        the graph connected), the bits derived from the engine's live tables
        and topology are a fresh ND-Disco's on the same landmarks, and an
        ND-Disco adopting the live tables routes every ordered pair, first
        and later packets, as that fresh one does."""
        topology = _address_topology(kind, weights, 64, seed)
        engine = ChurnEngine(topology, seed=seed)
        engine.run(
            generate_event_stream(
                topology,
                num_events=24,
                seed=seed,
                kinds=("edge-down", "edge-up", "edge-reweight"),
            )
        )
        live = engine.topology
        fresh = NDDiscoRouting(live, landmarks=engine.tables.landmarks)
        assert address_bits(live, engine.tables) == fresh.address_bits
        adopted = NDDiscoRouting.from_tables(
            live, engine.tables, [name_for_node(v) for v in range(64)]
        )
        theirs, mine = fresh.router(), adopted.router()
        for source in range(64):
            for target in range(64):
                assert mine.first(source, target) == theirs.first(source, target)
                assert mine.later(source, target) == theirs.later(source, target)
