"""Cross-cutting property-based tests on the protocol invariants.

These use hypothesis to sweep topology families, sizes, and seeds, checking
the invariants the paper proves:

* Theorem 1 -- Disco later-packet stretch ≤ 3 and (with the group-contact
  mechanism available) first-packet stretch ≤ 7;
* Theorem 2 -- per-node state well below Θ(n) and concentrated;
* S4 later-packet stretch ≤ 3 (Thorup-Zwick);
* routes produced by every protocol are valid walks ending at the target;
* explicit-route label encoding round-trips on arbitrary shortest paths.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.labels import decode_path
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
)
from repro.graphs.sampling import sample_pairs
from repro.metrics.stretch import measure_stretch
from repro.protocols.s4 import S4Routing

# Building a converged protocol is costly, so property tests use modest
# example counts and sizes; the deterministic unit tests cover the rest.
_SETTINGS = settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_topology_strategies = st.sampled_from(["gnm", "geometric", "internet"])


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
