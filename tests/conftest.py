"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens to a few hundred nodes) so the whole
suite runs in well under a minute; the scale-sensitive behaviour (state
growth, stretch bounds at size) is exercised by the benchmark harness.
Session-scoped fixtures cache the expensive converged protocol builds that
many test modules share.
"""

from __future__ import annotations

import pytest

from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    ring_graph,
)
from repro.graphs.topology import Topology
from repro.protocols.s4 import S4Routing
from repro.protocols.vrr import VirtualRingRouting
from small_graphs import grid_graph, line_graph, star_graph


@pytest.fixture(scope="session")
def small_gnm() -> Topology:
    """A 64-node connected G(n,m) graph with unit weights."""
    return gnm_random_graph(64, seed=1, average_degree=6.0)


@pytest.fixture(scope="session")
def medium_gnm() -> Topology:
    """A 150-node connected G(n,m) graph with unit weights."""
    return gnm_random_graph(150, seed=2, average_degree=8.0)


@pytest.fixture(scope="session")
def small_geometric() -> Topology:
    """A 100-node geometric graph with latency weights."""
    return geometric_random_graph(100, seed=3, average_degree=8.0)


@pytest.fixture(scope="session")
def small_internet() -> Topology:
    """A 120-node Internet-like (preferential attachment) graph."""
    return internet_as_level(120, seed=4)


@pytest.fixture(scope="session")
def tiny_line() -> Topology:
    """A 6-node path graph, handy for hand-checkable routing cases."""
    return line_graph(6)


@pytest.fixture(scope="session")
def tiny_ring() -> Topology:
    """A 12-node ring."""
    return ring_graph(12)


@pytest.fixture(scope="session")
def tiny_grid() -> Topology:
    """A 4x5 grid."""
    return grid_graph(4, 5)


@pytest.fixture(scope="session")
def tiny_star() -> Topology:
    """A star with 10 leaves."""
    return star_graph(10)


@pytest.fixture()
def weighted_diamond() -> Topology:
    """A 4-node diamond with asymmetric weights: two distinct s-t paths.

        0 --1-- 1 --1-- 3
         \\--5-- 2 --1--/
    """
    return Topology.from_edges(
        4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 1.0)], name="diamond"
    )


@pytest.fixture(scope="session")
def nddisco_small(small_gnm: Topology) -> NDDiscoRouting:
    """Converged NDDisco on the 64-node graph."""
    return NDDiscoRouting(small_gnm, seed=1)


@pytest.fixture(scope="session")
def disco_small(small_gnm: Topology, nddisco_small: NDDiscoRouting) -> DiscoRouting:
    """Converged Disco on the 64-node graph (shares NDDisco's substrate)."""
    return DiscoRouting(small_gnm, seed=1, nddisco=nddisco_small)


@pytest.fixture(scope="session")
def disco_medium(medium_gnm: Topology) -> DiscoRouting:
    """Converged Disco on the 150-node graph."""
    return DiscoRouting(medium_gnm, seed=2)


@pytest.fixture(scope="session")
def s4_small(small_gnm: Topology) -> S4Routing:
    """Converged S4 on the 64-node graph."""
    return S4Routing(small_gnm, seed=1)


@pytest.fixture(scope="session")
def vrr_small(small_gnm: Topology) -> VirtualRingRouting:
    """Converged VRR on the 64-node graph."""
    return VirtualRingRouting(small_gnm, seed=1)


class _RefusingKernels:
    """``CSRGraph._clib`` double: the library, except that every batched
    entry point reports it could not allocate (status ``-1``)."""

    BATCHED = (
        "spt_rows_batch",
        "k_nearest_batch",
        "radius_batch",
        "target_distances_batch",
    )

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        if name in self.BATCHED:
            return lambda *args: -1
        return getattr(self._lib, name)


@pytest.fixture()
def refuse_batch_kernels():
    """``refuse(topology)``: a C-tier snapshot whose batch drivers must take
    their one fallback, the Python tier's per-source loop, and warn once
    that they did; the bytes are the C batch's."""

    def refuse(topology: Topology):
        from repro.graphs.csr import CSRGraph

        csr = topology.fresh_csr(use_c=True)
        csr._clib = _RefusingKernels(csr._clib)
        return csr

    return refuse
