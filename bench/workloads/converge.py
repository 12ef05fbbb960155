"""``converge``: edge-list file -> three converged schemes.

``repro substrate FILE`` plus Disco: ``ingest_file`` -> ``NDDiscoRouting``
-> S4 on the shared substrate -> ``DiscoRouting``.  Unit weights, so the
BFS kernel runs; ``graphs.csr``/``_kernels.c`` and
``core.substrate_build``/``tables`` do most of the work and
dynamics/resolution/scenarios do none.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass

from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.core.vicinity import vicinity_size
from repro.graphs.generators import gnm_random_graph
from repro.graphs.ingest import ingest_file
from repro.graphs.io import write_edge_list
from repro.graphs.sampling import sample_nodes
from repro.graphs.shortest_paths import dijkstra
from repro.protocols.registry import build_scheme

from bench.trace import TIMED
from bench.workloads.base import (
    Repeat,
    fixed_landmarks,
    make_scratch,
    median_s,
    ratio,
    remove_scratch,
    sha256_of,
)

NAME = "converge"
SIZES = {"nodes": 4096, "degree": 8, "check_nodes": 256}

# The phase timings ``NDDiscoRouting(build_stats=...)`` already returns.
_BUILD_PHASES = {
    "spt_seconds": "core.substrate_build.spt",
    "vicinity_seconds": "core.substrate_build.vicinity",
    "address_seconds": "core.substrate_build.address",
}


@dataclass
class State:
    seed: int
    nodes: int
    edges: int
    scratch: str
    path: str
    landmarks: list[int]
    check_nodes: list[int]


@dataclass
class Converged:
    topology: object
    nddisco: NDDiscoRouting
    s4: object
    disco: DiscoRouting
    stats: dict


def setup(seed: int, sizes: dict, rec) -> State:
    topology = gnm_random_graph(
        sizes["nodes"], seed=seed, average_degree=sizes["degree"]
    )
    scratch = make_scratch(NAME)
    path = os.path.join(scratch, "topology.edges")
    write_edge_list(topology, path)
    return State(
        seed=seed,
        nodes=topology.num_nodes,
        edges=topology.num_edges,
        scratch=scratch,
        path=path,
        landmarks=fixed_landmarks(topology.num_nodes, seed),
        check_nodes=sample_nodes(topology, sizes["check_nodes"], seed=seed + 3),
    )


def repeat(state: State, rec) -> Repeat:
    seed = state.seed
    stats: dict = {}
    with rec.span(TIMED) as timed:
        with rec.span("graphs.ingest"):
            topology = ingest_file(state.path)
        with rec.span("graphs.csr.snapshot"):
            topology.csr()
        with rec.span("core.nddisco"):
            nddisco = NDDiscoRouting(
                topology,
                seed=seed,
                landmarks=state.landmarks,
                build_stats=stats,
            )
            for key, layer in _BUILD_PHASES.items():
                rec.add(layer, stats[key])
        with rec.span("protocols.s4.build"):
            s4 = build_scheme(
                "s4",
                topology,
                seed=seed,
                landmarks=nddisco.landmarks,
                substrate=nddisco,
            )
        with rec.span("core.disco.build"):
            disco = DiscoRouting(topology, seed=seed, nddisco=nddisco)
    sample = state.check_nodes
    digest = sha256_of(
        *(slab for _, _, slab in nddisco.tables.slab_items()),
        sorted(nddisco.landmarks),
        [s4.state_entries(node) for node in sample],
        [disco.state_entries(node) for node in sample],
    )
    return Repeat(
        seconds=timed.seconds,
        ops=state.nodes,
        digest=digest,
        output=Converged(topology, nddisco, s4, disco, stats),
    )


def check_node(
    k: int,
    vicinity: dict,
    landmark: int,
    landmark_distance: float,
    true_distances: dict,
) -> bool:
    """One node's converged state against an independent search from it."""
    if len(vicinity) != k:
        return False
    if any(true_distances.get(m) != d for m, d in vicinity.items()):
        return False
    return true_distances.get(landmark) == landmark_distance


def check(state: State, repeat: Repeat) -> tuple[int, int]:
    converged: Converged = repeat.output
    nddisco = converged.nddisco
    k = min(vicinity_size(state.nodes), state.nodes)
    bad = 0
    for node in state.check_nodes:
        distances, _ = dijkstra(converged.topology, node)
        landmark = nddisco.address_of(node).landmark
        ok = check_node(
            k,
            dict(nddisco.vicinities[node].distances.items()),
            landmark,
            nddisco.landmark_distance(landmark, node),
            distances,
        )
        bad += not ok
    return len(state.check_nodes), bad


def probe(state: State, rec, repeat: Repeat) -> dict:
    """Direct calls into the batched kernels, on the converged topology."""
    converged: Converged = repeat.output
    csr = converged.topology.csr()
    n = state.nodes
    landmarks = array("q", sorted(converged.nddisco.landmarks))
    dist_out = array("d", bytes(8 * len(landmarks) * n))
    parent_out = array("q", bytes(8 * len(landmarks) * n))
    with rec.span("graphs.csr.spt_rows_batch") as spt:
        csr.spt_rows_batch_into(landmarks, dist_out, parent_out)
    with rec.span("graphs.csr.k_nearest_batch") as knearest:
        csr.k_nearest_batch_flat(vicinity_size(n))
    radii = array("d", converged.nddisco.closest_landmark_rows[1])
    with rec.span("graphs.csr.radius_batch") as radius:
        csr.radius_batch_flat(radii)
    arcs = len(landmarks) * 2 * state.edges
    return {
        "graphs.csr.spt_ns_per_arc": 1e9 * spt.seconds / arcs,
        "graphs.csr.knearest_us_per_source": 1e6 * knearest.seconds / n,
        "graphs.csr.radius_us_per_source": 1e6 * radius.seconds / n,
    }


def layers(state: State, rec, repeat: Repeat) -> dict:
    parse_s = median_s(rec, "graphs.ingest")
    return {
        "graphs.ingest.parse_s": parse_s,
        "graphs.ingest.edges_per_s": ratio(state.edges, parse_s),
        "graphs.csr.snapshot_s": median_s(rec, "graphs.csr.snapshot"),
        "core.substrate_build.spt_s": median_s(rec, "core.substrate_build.spt"),
        "core.substrate_build.vicinity_s": median_s(
            rec, "core.substrate_build.vicinity"
        ),
        "core.substrate_build.address_s": median_s(
            rec, "core.substrate_build.address"
        ),
        "core.substrate_build.slab_bytes_per_node": (
            repeat.output.stats["slab_bytes"] / state.nodes
        ),
        "core.nddisco.shell_s": median_s(rec, "core.nddisco", "self_s"),
        "core.disco.build_s": median_s(rec, "core.disco.build"),
        "protocols.s4.build_s": median_s(rec, "protocols.s4.build"),
    }


def cleanup(state: State) -> None:
    remove_scratch(state.scratch)

