"""``repro resolve``: a lookup trace against the sharded resolution service."""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cli.cmd_generate import GENERATORS
from repro.core.nddisco import NDDiscoRouting
from repro.core.sloppy_groups import SloppyGrouping
from repro.dynamics.stream import DynEvent
from repro.resolution import (
    GroupContactIndex,
    generate_lookup_workload,
    run_traffic,
)
from repro.utils.distributions import summarize
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
    if args.churn_shards < 0:
        print("--churn-shards must be >= 0", file=sys.stderr)
        return 2

    started = time.perf_counter()
    topology = GENERATORS[args.family](args.nodes, seed=args.seed)
    routing = NDDiscoRouting(topology, seed=args.seed)
    built = time.perf_counter() - started
    num_shards = len(routing.landmarks)
    print(
        f"{topology.name}: {topology.num_nodes} nodes, "
        f"{topology.num_edges} edges, {num_shards} shards "
        f"({args.replicas} replicas x {args.virtual_nodes} vnodes), "
        f"substrate {built:.2f}s"
    )

    flash = None
    if args.flash is not None:
        flash = (int(args.flash[0]), int(args.flash[1]), args.flash[2])
    workload = generate_lookup_workload(
        topology.num_nodes,
        num_lookups=args.lookups,
        duration_ticks=args.duration,
        seed=args.seed,
        zipf_exponent=args.zipf,
        diurnal_amplitude=args.diurnal,
        flash=flash,
    )

    events: list[DynEvent] = []
    if args.churn_shards:
        victims = sorted(routing.landmarks)[: args.churn_shards]
        if args.churn_shards > len(victims):
            print(
                f"--churn-shards {args.churn_shards} exceeds the "
                f"{len(victims)} shards available",
                file=sys.stderr,
            )
            return 2
        period = args.duration // (len(victims) + 1)
        if period < 1:
            print("timeline too short for --churn-shards", file=sys.stderr)
            return 2
        for index, shard in enumerate(victims):
            down = period * (index + 1)
            up = min(down + max(args.refresh_interval // 2, 1), args.duration - 1)
            events.append(DynEvent(tick=down, kind="node-leave", u=shard))
            if up > down:
                events.append(DynEvent(tick=up, kind="node-join", u=shard))

    contacts = None
    if args.groups:
        deployment = (
            args.deployment
            if args.deployment is not None
            else float(topology.num_nodes)
        )
        contacts = GroupContactIndex(
            SloppyGrouping(routing.names, deployment)
        )

    started = time.perf_counter()
    report = run_traffic(
        routing,
        workload,
        replicas=args.replicas,
        virtual_nodes=args.virtual_nodes,
        refresh_interval=args.refresh_interval,
        shard_events=events,
        contacts=contacts,
    )
    elapsed = time.perf_counter() - started
    rate = report.lookups / elapsed if elapsed > 0 else float("inf")

    latency = summarize(report.latencies).as_dict()
    rows = [["latency", *(f"{latency[k]:.3f}" for k in
                          ("mean", "median", "p95", "p99", "max"))]]
    if report.staleness:
        stale = summarize(report.staleness).as_dict()
        rows.append(["staleness", *(f"{stale[k]:.3f}" for k in
                                    ("mean", "median", "p95", "p99", "max"))])
    if report.hops:
        hop = summarize(report.hops).as_dict()
        rows.append(["hops", *(f"{hop[k]:.3f}" for k in
                               ("mean", "median", "p95", "p99", "max"))])
    print(
        f"{report.lookups} lookups over {workload.duration_ticks} ticks: "
        f"{report.group_hits} group hits, {report.ring_hits} ring hits, "
        f"{report.misses} misses"
    )
    print(format_table(["metric", "mean", "p50", "p95", "p99", "max"], rows))
    loads = sorted(report.shard_loads.values(), reverse=True)
    if loads:
        mean_load = sum(loads) / len(loads)
        print(
            f"shard load: hottest {loads[0]}, mean {mean_load:.1f} "
            f"(imbalance {loads[0] / mean_load:.2f}x over "
            f"{len(loads)} serving shards)"
        )
    scanned = sum(r.scanned for r in report.rebalances)
    moved = sum(r.moved_copies for r in report.rebalances)
    lost = sum(r.lost_records for r in report.rebalances)
    print(
        f"expired {report.expired_records} records, "
        f"{len(report.rebalances)} rebalances (scanned {scanned} of "
        f"{topology.num_nodes} records stored, moved {moved} copies, "
        f"lost {lost} records)  ({elapsed:.2f}s, {rate:.0f} lookups/s)"
    )
    if args.json:
        payload = {
            "schema": "repro-resolve-report/v2",
            "family": args.family,
            "nodes": topology.num_nodes,
            "seed": args.seed,
            "shards": num_shards,
            "replicas": args.replicas,
            "virtual_nodes": args.virtual_nodes,
            "refresh_interval": args.refresh_interval,
            "lookups": report.lookups,
            "group_hits": report.group_hits,
            "ring_hits": report.ring_hits,
            "misses": report.misses,
            "latency": latency,
            "staleness": (
                summarize(report.staleness).as_dict() if report.staleness else None
            ),
            "hops": summarize(report.hops).as_dict() if report.hops else None,
            "shard_loads": {
                str(shard): count
                for shard, count in sorted(report.shard_loads.items())
            },
            "expired_records": report.expired_records,
            "rebalances": len(report.rebalances),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0
