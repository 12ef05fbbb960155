"""``repro substrate``: converge routing substrates standalone."""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.cli.cmd_generate import GENERATORS
from repro.core.nddisco import NDDiscoRouting
from repro.graphs.io import read_edge_list
from repro.graphs.sampling import sample_pairs
from repro.protocols.registry import build_scheme


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
            print(
                f"substrate {args.source}: node count required",
                file=sys.stderr,
            )
            return 2
        topology = GENERATORS[args.source](args.nodes, seed=args.seed)
    else:
        try:
            topology = read_edge_list(args.source)
        except OSError as error:
            print(f"cannot read {args.source}: {error}", file=sys.stderr)
            return 2
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
    persist = not args.no_persist and (
        args.vicinity_storage is None
        or args.vicinity_storage == args.storage
    )
    started = time.perf_counter()
    schemes: dict[str, object] = {}
    nddisco: NDDiscoRouting | None = None
    if "nd-disco" in protocols:
        stats: dict = {}
        nddisco = NDDiscoRouting(
            topology,
            seed=args.seed,
            threads=args.threads,
            storage=args.storage,
            vicinity_storage=args.vicinity_storage,
            persist_storage=persist,
            build_stats=stats,
            build_progress=lambda line: print(f"  nd-disco: {line}"),
        )
        schemes["nd-disco"] = nddisco
        rss, peak = _memory_kb()
        print(
            f"nd-disco converged: {len(nddisco.landmarks)} landmarks, "
            f"{stats.get('slab_bytes', 0) / 1024**2:.0f} MiB slabs, "
            f"{time.perf_counter() - started:.1f}s elapsed, "
            f"rss {rss / 1024:.0f} MiB (peak {peak / 1024:.0f} MiB)"
        )
    if "s4" in protocols:
        s4_started = time.perf_counter()
        options: dict[str, object] = {"threads": args.threads}
        if nddisco is not None:
            # Same landmark set and shared substrate, exactly as
            # StaticSimulation couples the two schemes.
            options["landmarks"] = nddisco.landmarks
            options["substrate"] = nddisco
        elif args.storage:
            options["storage"] = (
                args.storage
                if args.storage == "mmap"
                else os.path.join(args.storage, "s4")
            )
        schemes["s4"] = build_scheme(
            "s4", topology, seed=args.seed, **options
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
