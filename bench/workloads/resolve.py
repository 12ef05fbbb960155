"""``resolve``: name lookups against the sharded resolution service.

``run_traffic`` over a Zipf + diurnal + flash-window trace with shard
crash/rejoin pairs: reads (lookups) run beside writes (soft-state
``populate`` sweeps, ring rebalances).  ``resolution.service``/``traffic``/
``cache`` do the work.  The default 1 MiB router cache thrashes at this
size -- that is what users run, and ``resolution.cache.hit_ratio`` says so.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.nddisco import NDDiscoRouting
from repro.dynamics.stream import DynEvent
from repro.graphs.generators import gnm_random_graph
from repro.resolution import (
    ShardedResolutionService,
    VNodeRing,
    generate_lookup_workload,
    run_traffic,
)

from bench.trace import TIMED
from bench.workloads.base import Repeat, fixed_landmarks, median_s, ratio, sha256_of

NAME = "resolve"
SIZES = {
    "nodes": 4096,
    "degree": 8,
    "lookups": 25_000,
    "ticks": 32,
    "ring_probes": 100_000,
}

# The service configuration of the timed section, shared with the probes.
_SERVICE = {"replicas": 2, "virtual_nodes": 8, "refresh_interval": 16}
_CRASHED_SHARDS = 3
_CACHE_BUDGET = 1 << 20


@dataclass
class State:
    routing: NDDiscoRouting
    workload: object
    shard_events: list[DynEvent]
    ring_probes: int


def setup(seed: int, sizes: dict, rec) -> State:
    topology = gnm_random_graph(
        sizes["nodes"], seed=seed, average_degree=sizes["degree"]
    )
    routing = NDDiscoRouting(
        topology, seed=seed, landmarks=fixed_landmarks(topology.num_nodes, seed)
    )
    ticks = sizes["ticks"]
    with rec.span("resolution.traffic.generate"):
        workload = generate_lookup_workload(
            topology.num_nodes,
            num_lookups=sizes["lookups"],
            duration_ticks=ticks,
            seed=seed,
            flash=(ticks // 2, ticks // 2 + max(ticks // 8, 1), 3.0),
        )
    # Crash/rejoin pairs spread over the timeline, as `repro resolve
    # --churn-shards` places them.
    victims = sorted(routing.landmarks)[:_CRASHED_SHARDS]
    period = ticks // (len(victims) + 1)
    shard_events = []
    for index, shard in enumerate(victims):
        down = period * (index + 1)
        up = min(down + _SERVICE["refresh_interval"] // 2, ticks - 1)
        shard_events.append(DynEvent(tick=down, kind="node-leave", u=shard))
        if up > down:
            shard_events.append(DynEvent(tick=up, kind="node-join", u=shard))
    return State(routing, workload, shard_events, sizes["ring_probes"])


def repeat(state: State, rec) -> Repeat:
    with rec.span(TIMED) as timed:
        with rec.span("resolution.traffic.serve"):
            report = run_traffic(
                state.routing,
                state.workload,
                shard_events=state.shard_events,
                cache_budget=_CACHE_BUDGET,
                **_SERVICE,
            )
    digest = sha256_of(
        (report.group_hits, report.ring_hits, report.misses),
        report.latencies,
        report.staleness,
        report.hops,
        sorted(report.shard_loads.items()),
        report.expired_records,
        sorted(report.cache_stats.items()),
    )
    return Repeat(
        seconds=timed.seconds,
        ops=state.workload.num_lookups,
        digest=digest,
        output=report,
    )


def conserves(issued: int, report) -> bool:
    """Every issued lookup is billed exactly once, and loads add up."""
    return (
        report.group_hits + report.ring_hits + report.misses == issued
        and report.lookups == issued
        and len(report.latencies) == issued
        and sum(report.shard_loads.values()) == report.ring_hits
    )


def check(state: State, repeat: Repeat) -> tuple[int, int]:
    issued = state.workload.num_lookups
    return issued, 0 if conserves(issued, repeat.output) else issued


def probe(state: State, rec, repeat: Repeat) -> dict:
    """Direct calls on a ring and a service built like ``run_traffic``'s."""
    routing = state.routing
    names = routing.names
    addresses = routing.addresses
    shards = sorted(routing.landmarks)
    replicas = _SERVICE["replicas"]
    ring = VNodeRing(shards, virtual_nodes=_SERVICE["virtual_nodes"])
    keys = [names[i % len(names)].hash_value for i in range(state.ring_probes)]
    with rec.span("resolution.ring.successors") as successors:
        for key in keys:
            ring.successors(key, replicas)
    service = ShardedResolutionService(
        shards,
        virtual_nodes=_SERVICE["virtual_nodes"],
        replicas=replicas,
        refresh_interval=float(_SERVICE["refresh_interval"]),
    )
    with rec.span("resolution.service.populate") as populate:
        service.populate(names, addresses, now=0.0)
    with rec.span("resolution.service.lookup_record") as lookups:
        for name in names:
            service.lookup_record(name, now=1.0)
    with rec.span("resolution.service.rebalance") as rebalance:
        service.remove_shard(shards[0], lost=True)
        service.add_shard(shards[0])
    return {
        "resolution.ring.successors_per_s": ratio(len(keys), successors.seconds),
        "resolution.service.populate_names_per_s": ratio(
            len(names), populate.seconds
        ),
        "resolution.service.lookup_records_per_s": ratio(
            len(names), lookups.seconds
        ),
        "resolution.service.rebalance_ms": 1000.0 * rebalance.seconds,
    }


def layers(state: State, rec, repeat: Repeat) -> dict:
    stats = repeat.output.cache_stats
    return {
        "resolution.traffic.generate_s": median_s(
            rec, "resolution.traffic.generate"
        ),
        "resolution.traffic.serve_s": median_s(rec, "resolution.traffic.serve"),
        "resolution.cache.hit_ratio": ratio(
            stats["hits"], stats["hits"] + stats["misses"]
        ),
        "resolution.cache.evictions": stats["evictions"],
    }


def cleanup(state: State) -> None:
    pass
