"""``repro churn``: per-event maintenance bills of the churn engine."""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cli.cmd_generate import GENERATORS
from repro.core.landmarks import select_landmarks
from repro.dynamics import (
    EVENT_KINDS,
    ChurnEngine,
    generate_churn_workload,
    generate_event_stream,
)
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
    if args.kinds is not None:
        unknown = [kind for kind in args.kinds if kind not in EVENT_KINDS]
        if unknown:
            print(f"unknown event kinds: {', '.join(unknown)}", file=sys.stderr)
            return 2

    topology = GENERATORS[args.family](args.nodes, seed=args.seed)
    landmarks = select_landmarks(topology.num_nodes, seed=args.seed)
    if args.kinds is None:
        events = generate_churn_workload(
            topology,
            num_events=args.events,
            seed=args.seed + 17,
            events_per_tick=args.events_per_tick,
        )
    else:
        events = generate_event_stream(
            topology,
            num_events=args.events,
            seed=args.seed + 17,
            kinds=tuple(args.kinds),
            events_per_tick=args.events_per_tick,
            preserve_connectivity=not args.allow_partition,
        )
    print(
        f"{topology.name}: {topology.num_nodes} nodes, "
        f"{topology.num_edges} edges, {len(landmarks)} landmarks, "
        f"{len(events)} events"
    )

    started = time.perf_counter()
    engine = ChurnEngine(topology, seed=args.seed, landmarks=landmarks)
    converged = time.perf_counter() - started
    started = time.perf_counter()
    reports = engine.run(events)
    elapsed = time.perf_counter() - started
    costs = [report.cost for report in reports]
    applied = [report.applied for report in reports]

    rows = []
    for index, (event, cost) in enumerate(zip(events, costs)):
        target = f"{event.u}-{event.v}" if event.v >= 0 else str(event.u)
        rows.append(
            [
                index,
                event.tick,
                event.kind if applied[index] else f"{event.kind} (no-op)",
                target,
                cost.addresses_changed,
                cost.vicinity_entries_changed,
                cost.landmark_entries_changed,
                cost.total_incremental_entries,
            ]
        )
    print(
        format_table(
            [
                "event",
                "tick",
                "kind",
                "target",
                "addr",
                "vicinity",
                "landmark",
                "total",
            ],
            rows,
            float_format="{:.0f}",
        )
    )
    total = sum(cost.total_incremental_entries for cost in costs)
    rate = len(events) / elapsed if elapsed > 0 else float("inf")
    print(f"total incremental entries: {total}")
    print(
        f"converged in {converged:.3f}s; {len(events)} events in "
        f"{elapsed:.3f}s ({rate:.1f} events/s)"
    )
    recomputed = sum(report.vicinities_recomputed for report in reports)
    repaired = sum(report.vicinities_repaired for report in reports)
    stored = sum(report.vicinities_stored for report in reports)
    print(
        f"vicinity rows: {recomputed} recomputed ({repaired} repaired in "
        f"place), {stored} stored"
    )
    if args.json:
        payload = {
            "schema": "repro-churn-bills/v1",
            "family": args.family,
            "nodes": topology.num_nodes,
            "seed": args.seed,
            "events": [
                {
                    "tick": event.tick,
                    "kind": event.kind,
                    "u": event.u,
                    "v": event.v,
                    "weight": event.weight,
                    "applied": applied[index],
                    "cost": {
                        "addresses_changed": cost.addresses_changed,
                        "resolution_updates": cost.resolution_updates,
                        "dissemination_messages": cost.dissemination_messages,
                        "vicinity_entries_changed": cost.vicinity_entries_changed,
                        "landmark_entries_changed": cost.landmark_entries_changed,
                        "total_incremental_entries": cost.total_incremental_entries,
                    },
                }
                for index, (event, cost) in enumerate(zip(events, costs))
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"bills written to {args.json}")
    return 0
