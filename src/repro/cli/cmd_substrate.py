"""``repro substrate``: converge routing substrates standalone."""

from __future__ import annotations

import argparse
import time

from repro.cli.cmd_generate import GENERATORS, generate_topology
from repro.core.landmarks import select_landmarks
from repro.core.nddisco import NDDiscoRouting
from repro.core.substrate_build import build_substrate_tables
from repro.errors import InputError
from repro.graphs.io import read_edge_list
from repro.graphs.sampling import sample_pairs
from repro.naming.names import name_for_node
from repro.protocols.s4 import S4Routing


def _memory_kb() -> tuple[int, int]:
    """Current and peak resident set size in KiB (Linux; zeros elsewhere)."""
    rss = peak = 0
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    peak = int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return 0, 0
    return rss, peak


def command(args: argparse.Namespace) -> int:
    if args.source in GENERATORS:
        if args.nodes is None:
            raise InputError(f"{args.source}: node count required")
        topology = generate_topology(args.source, args.nodes, args.seed)
    else:
        topology = read_edge_list(args.source)
        if not topology.is_connected():
            topology, _ = topology.largest_component_subgraph()
            print(
                "note: using the largest connected component "
                f"({topology.num_nodes} nodes)"
            )
    protocols = [name.strip().lower() for name in args.protocols]
    placement = []
    if args.storage:
        placement.append(f"storage={args.storage}")
    if args.vicinity_storage:
        placement.append(f"vicinity-storage={args.vicinity_storage}")
    print(
        f"{topology.name}: {topology.num_nodes} nodes, "
        f"{topology.num_edges} edges"
        + (f"  [{' '.join(placement)}]" if placement else "")
    )
    # One build, every scheme adopts it: S4 beside ND-Disco reads the same
    # tables and address bits, exactly as StaticSimulation couples the two
    # schemes.
    with_nddisco = "nd-disco" in protocols
    # S4 alone builds no vicinity slabs to place.
    vicinity_storage = args.vicinity_storage if with_nddisco else None
    persist = not args.no_persist and vicinity_storage in (None, args.storage)
    n = topology.num_nodes
    started = time.perf_counter()
    stats: dict = {}
    tables = build_substrate_tables(
        topology,
        select_landmarks(n, seed=args.seed),
        include_vicinity=with_nddisco,
        threads=args.threads,
        storage=args.storage,
        vicinity_storage=vicinity_storage,
        persist=persist,
        stats=stats,
        progress=(lambda line: print(f"  nd-disco: {line}"))
        if with_nddisco
        else None,
    )
    names = [name_for_node(v) for v in range(n)]
    schemes: dict[str, object] = {}
    if with_nddisco:
        schemes["nd-disco"] = NDDiscoRouting.from_tables(topology, tables, names)
        rss, peak = _memory_kb()
        print(
            f"nd-disco converged: {len(tables.landmark_ids)} landmarks, "
            f"{stats['slab_bytes'] / 1024**2:.0f} MiB slabs, "
            f"{time.perf_counter() - started:.1f}s elapsed, "
            f"rss {rss / 1024:.0f} MiB (peak {peak / 1024:.0f} MiB)"
        )
    if "s4" in protocols:
        s4_started = time.perf_counter() if with_nddisco else started
        schemes["s4"] = (
            S4Routing.from_nddisco(schemes["nd-disco"], threads=args.threads)
            if with_nddisco
            else S4Routing.from_tables(
                topology, tables, names, threads=args.threads
            )
        )
        rss, peak = _memory_kb()
        print(
            f"s4 converged: {time.perf_counter() - s4_started:.1f}s, "
            f"rss {rss / 1024:.0f} MiB (peak {peak / 1024:.0f} MiB)"
        )
    if args.routes > 0:
        for source, target in sample_pairs(
            topology, args.routes, seed=args.seed + 1
        ):
            for name, scheme in schemes.items():
                result = scheme.later_packet_route(source, target)
                assert result.path[0] == source
                assert result.path[-1] == target
                print(
                    f"  route {source}->{target} [{name}]: "
                    f"{len(result.path) - 1} hops via {result.mechanism}"
                )
    rss, peak = _memory_kb()
    print(
        f"done: {time.perf_counter() - started:.1f}s total, "
        f"peak rss {peak / 1024:.0f} MiB"
    )
    return 0
