"""``route``: measurement pairs over three converged schemes.

The body of ``StaticSimulation.run``: the shortest-distance table once,
then per scheme (Disco, ND-Disco, S4) ``measure_state``,
``measure_stretch`` and ``measure_congestion``.  Geometric topology with
irregular weights, so the 4-ary *heap* kernel runs: ``metrics.batch``,
``core.disco`` and ``protocols.s4`` do the work, and the converge layers
show only in ``setup_s`` -- on a kernel path ``converge`` never takes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.generators import geometric_random_graph
from repro.graphs.sampling import one_destination_per_node, sample_pairs
from repro.graphs.shortest_paths import all_pairs_sampled_distances
from repro.metrics.batch import make_router
from repro.metrics.congestion import measure_congestion
from repro.metrics.state import measure_state
from repro.metrics.stretch import measure_stretch
from repro.protocols.registry import build_scheme

from bench.trace import TIMED
from bench.workloads.base import Repeat, ratio, sha256_of

NAME = "route"
SIZES = {"nodes": 1024, "degree": 8, "pairs": 500, "check_pairs": 200}

#: Theorems 1-2: (first packet, later packets).  The first packet of
#: ND-Disco and S4 detours through a resolution landmark and carries no
#: bound; the name-independent guarantee of 7 is Disco's alone.
STRETCH_BOUNDS = {
    "disco": (7.0, 3.0),
    "nddisco": (None, 3.0),
    "s4": (None, 3.0),
}
_SLACK = 1e-9  # float rounding in the stretch quotient


@dataclass
class State:
    topology: object
    schemes: dict  # key in STRETCH_BOUNDS -> converged scheme
    nodes: list[int]
    pairs: list[tuple[int, int]]
    measured_pairs: list[tuple[int, int]]
    flows: list[tuple[int, int]]
    check_pairs: list[tuple[int, int]]


def setup(seed: int, sizes: dict, rec) -> State:
    topology = geometric_random_graph(
        sizes["nodes"], seed=seed, average_degree=sizes["degree"]
    )
    nddisco = NDDiscoRouting(topology, seed=seed)
    s4 = build_scheme(
        "s4", topology, seed=seed, landmarks=nddisco.landmarks, substrate=nddisco
    )
    disco = DiscoRouting(topology, seed=seed, nddisco=nddisco)
    pairs = sample_pairs(topology, sizes["pairs"], seed=seed + 1)
    return State(
        topology=topology,
        schemes={"disco": disco, "nddisco": nddisco, "s4": s4},
        nodes=list(topology.nodes()),
        pairs=pairs,
        measured_pairs=[(s, t) for s, t in pairs if s != t],
        flows=one_destination_per_node(topology, seed=seed + 2),
        check_pairs=sample_pairs(topology, sizes["check_pairs"], seed=seed + 3),
    )


def repeat(state: State, rec) -> Repeat:
    reports = {}
    with rec.span(TIMED) as timed:
        with rec.span("graphs.csr.target_distances"):
            distances = all_pairs_sampled_distances(
                state.topology, state.measured_pairs
            )
        for key, scheme in state.schemes.items():
            with rec.span("metrics.state"):
                nodes_state = measure_state(scheme, nodes=state.nodes)
            with rec.span(f"metrics.stretch.{key}"):
                stretch = measure_stretch(
                    scheme, pairs=state.pairs, distances=distances
                )
            with rec.span("metrics.congestion"):
                congestion = measure_congestion(scheme, pairs=state.flows)
            reports[key] = (nodes_state, stretch, congestion)
    digest = sha256_of(
        *(
            (
                key,
                nodes_state.entries,
                stretch.first_packet,
                stretch.later_packets,
                sorted(congestion.edge_usage.items()),
            )
            for key, (nodes_state, stretch, congestion) in reports.items()
        )
    )
    routes = len(state.schemes) * (len(state.pairs) + len(state.flows))
    return Repeat(
        seconds=timed.seconds, ops=routes, digest=digest, output=reports
    )


def bad_paths(topology, routes) -> int:
    """Routes ``(source, target, path)`` that are not walks s -> t."""
    bad = 0
    for source, target, path in routes:
        ok = (
            len(path) > 0
            and path[0] == source
            and path[-1] == target
            and all(topology.has_edge(a, b) for a, b in zip(path, path[1:]))
        )
        bad += not ok
    return bad


def bad_stretches(key: str, first, later) -> int:
    """Measured pairs of scheme ``key`` outside its stretch guarantee."""
    first_bound, later_bound = STRETCH_BOUNDS[key]
    bad = 0
    for first_stretch, later_stretch in zip(first, later):
        ok = later_stretch <= later_bound + _SLACK and (
            first_bound is None or first_stretch <= first_bound + _SLACK
        )
        bad += not ok
    return bad


def check(state: State, repeat: Repeat) -> tuple[int, int]:
    checked = bad = 0
    for key, (_, stretch, _) in repeat.output.items():
        checked += len(stretch.pairs)
        bad += bad_stretches(key, stretch.first_packet, stretch.later_packets)
    # The reports carry no paths, so path validity is checked on routes
    # drawn again from the same routers the measurements used.
    for scheme in state.schemes.values():
        router = make_router(scheme)
        routes = []
        for source, target in state.check_pairs:
            if source == target:
                continue
            first, later = router.pair(source, target)
            routes.append((source, target, first.path))
            routes.append((source, target, later.path))
        checked += len(routes)
        bad += bad_paths(state.topology, routes)
    return checked, bad


def probe(state: State, rec, repeat: Repeat) -> dict:
    return {}  # every layer this workload uses is inside the timed section


def layers(state: State, rec, repeat: Repeat) -> dict:
    measured = len(state.measured_pairs)
    distance_calls = rec.count("graphs.csr.target_distances")
    metrics = {
        "graphs.csr.target_distances_us_per_pair": 1e6
        * ratio(
            rec.total("graphs.csr.target_distances"), distance_calls * measured
        ),
        "metrics.state.nodes_per_s": ratio(
            rec.count("metrics.state") * len(state.nodes),
            rec.total("metrics.state"),
        ),
        "metrics.congestion.flows_per_s": ratio(
            rec.count("metrics.congestion") * len(state.flows),
            rec.total("metrics.congestion"),
        ),
    }
    for key in state.schemes:
        span = f"metrics.stretch.{key}"
        metrics[f"{span}_pairs_per_s"] = ratio(
            rec.count(span) * measured, rec.total(span)
        )
    return metrics


def cleanup(state: State) -> None:
    pass
