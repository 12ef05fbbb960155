"""Command-line interface.

The CLI wraps the library's most common workflows so that a downstream user
can reproduce the paper or study their own topology without writing code::

    python -m repro list                              # experiment ids
    python -m repro scenarios list                    # declarative catalog
    python -m repro run fig04-gnm-comparison          # one experiment
    python -m repro run --all --workers 4             # everything, in parallel
    python -m repro run fig02 fig03 --json-dir out/   # structured JSON results
    python -m repro generate gnm 1024 --out net.edges # write a topology
    python -m repro ingest isp.cch --format rocketfuel # stream a real map
    python -m repro run fig02 --topology-file isp.cch --topology-format rocketfuel
    python -m repro profile net.edges                 # structural profile
    python -m repro compare net.edges --protocols disco s4 vrr
    python -m repro substrate gnm 1048576 --storage slabs --vicinity-storage mmap
    python -m repro cache stats                       # artifact-cache totals
    python -m repro cache prune --max-bytes 500M      # bound the cache on disk

``repro run`` executes through the scenario engine
(:mod:`repro.scenarios.engine`): prerequisites (topologies, converged
routing substrates) are deduplicated through a content-addressed on-disk
cache (``--cache-dir``, default ``.repro_cache``; ``--no-cache`` disables),
``--workers N`` fans scenarios and their shards out over a process pool
with byte-identical output, and ``--json-dir`` writes one structured JSON
document per scenario next to the text reports.  ``repro cache`` manages
the cache's disk footprint (see ``docs/CACHING.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.experiments.config import default_scale
from repro.experiments.runner import EXPERIMENTS
from repro.graphs.analysis import profile_topology
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    internet_router_level,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.protocols.registry import available_schemes
from repro.staticsim.simulation import StaticSimulation
from repro.utils.formatting import format_table

__all__ = ["main", "build_parser"]

#: Default root of the on-disk artifact cache (overridable via
#: ``REPRO_CACHE_DIR`` or ``--cache-dir``).
DEFAULT_CACHE_DIR = ".repro_cache"

_GENERATORS = {
    "gnm": gnm_random_graph,
    "geometric": geometric_random_graph,
    "as-level": internet_as_level,
    "router-level": internet_router_level,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scalable Routing on Flat Names' (Disco).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiment ids")

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument("experiments", nargs="*", help="experiment ids")
    run_parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan scenarios and their shards out over this many worker "
        "processes (output is byte-identical to a serial run)",
    )
    run_parser.add_argument(
        "--json-dir",
        default=None,
        help="also write one structured JSON result per scenario (plus a "
        "manifest.json with run bookkeeping) into this directory",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="root of the on-disk artifact cache deduplicating topologies "
        "and converged substrates across scenarios, workers, and runs "
        f"(default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable artifact caching (every prerequisite is rebuilt)",
    )
    run_parser.add_argument(
        "--topology-file",
        default=None,
        metavar="PATH",
        help="ingest this real-topology dataset and add a 'real' "
        "panel/column to the figure scenarios that accept one "
        "(fig02, fig03, fig10)",
    )
    run_parser.add_argument(
        "--topology-format",
        default="edge-list",
        metavar="FORMAT",
        help="registered ingest format for --topology-file "
        "(see 'repro ingest --list-formats'; default: edge-list)",
    )

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect and manage the on-disk artifact cache "
        "(stats, ls, clear, prune)",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)

    def add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            default=None,
            help="cache root (default: $REPRO_CACHE_DIR or "
            f"{DEFAULT_CACHE_DIR})",
        )

    stats_parser = cache_sub.add_parser(
        "stats",
        help="per-kind artifact counts and byte totals; refreshes the "
        "aggregate manifest.json at the cache root",
    )
    add_cache_dir(stats_parser)
    ls_parser = cache_sub.add_parser(
        "ls", help="list every artifact with size and last-hit age"
    )
    add_cache_dir(ls_parser)
    ls_parser.add_argument(
        "--kind",
        choices=["topology", "substrate", "tables", "scheme"],
        default=None,
        help="restrict the listing to one artifact kind",
    )
    clear_parser = cache_sub.add_parser(
        "clear", help="remove every cached artifact"
    )
    add_cache_dir(clear_parser)
    prune_parser = cache_sub.add_parser(
        "prune",
        help="evict artifacts by age and/or least-recently-hit order "
        "until the cache fits a byte budget",
    )
    add_cache_dir(prune_parser)
    prune_parser.add_argument(
        "--max-bytes",
        default=None,
        help="evict least-recently-hit artifacts until the summed pickle "
        "bytes are at or under this budget (suffixes K/M/G accepted, "
        "e.g. 500M)",
    )
    prune_parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="evict artifacts whose last hit is older than this many days",
    )
    prune_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print what would be evicted without touching the store",
    )

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="inspect the declarative scenario catalog"
    )
    scenarios_sub = scenarios_parser.add_subparsers(
        dest="scenarios_command", required=True
    )
    scenarios_sub.add_parser(
        "list", help="list every scenario with its spec (family, protocols, "
        "metrics, shards, aliases)"
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="stream a real-topology dataset into an array-backed "
        "CSRTopology (and the artifact cache) without building dict "
        "adjacency; prints a structural summary",
    )
    ingest_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="dataset path (omit with --list-formats)",
    )
    ingest_parser.add_argument(
        "--format",
        dest="fmt",
        default="edge-list",
        metavar="FORMAT",
        help="registered format name (default: edge-list)",
    )
    ingest_parser.add_argument(
        "--list-formats",
        action="store_true",
        help="list the registered ingest formats and exit",
    )
    ingest_parser.add_argument(
        "--name", default=None, help="override the topology name"
    )
    ingest_parser.add_argument(
        "--largest-component",
        action="store_true",
        help="keep only the largest connected component (what the "
        "figure scenarios do; real maps are routinely disconnected)",
    )
    ingest_parser.add_argument(
        "--delay",
        type=float,
        default=None,
        help="per-link delay for formats with a single delay knob "
        "(caida-aslinks)",
    )
    ingest_parser.add_argument(
        "--internal-delay",
        type=float,
        default=None,
        help="intra-ISP link delay (rocketfuel; default 2.0)",
    )
    ingest_parser.add_argument(
        "--external-delay",
        type=float,
        default=None,
        help="external link delay (rocketfuel; default 34.0)",
    )
    ingest_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist the parsed topology as a content-addressed artifact "
        "under this cache root (default: $REPRO_CACHE_DIR or "
        f"{DEFAULT_CACHE_DIR})",
    )
    ingest_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="parse only; do not touch the artifact cache",
    )

    generate_parser = subparsers.add_parser(
        "generate", help="generate a topology and write it as an edge list"
    )
    generate_parser.add_argument("family", choices=sorted(_GENERATORS))
    generate_parser.add_argument("nodes", type=int)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument("--out", required=True, help="output file path")

    profile_parser = subparsers.add_parser(
        "profile", help="print a structural profile of an edge-list topology"
    )
    profile_parser.add_argument("path")
    profile_parser.add_argument("--seed", type=int, default=0)

    compare_parser = subparsers.add_parser(
        "compare", help="compare protocols on an edge-list topology"
    )
    compare_parser.add_argument("path")
    compare_parser.add_argument(
        "--protocols",
        nargs="+",
        default=["disco", "nd-disco", "s4"],
        choices=available_schemes(),
    )
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument("--pairs", type=int, default=300)

    churn_parser = subparsers.add_parser(
        "churn",
        help="drive the event-driven churn engine over a seeded event "
        "stream and report per-event maintenance bills (see "
        "docs/REPRODUCING.md for the command map)",
    )
    churn_parser.add_argument(
        "family",
        choices=sorted(_GENERATORS),
        help="topology family for the base graph",
    )
    churn_parser.add_argument("nodes", type=int, help="node count")
    churn_parser.add_argument(
        "--events", type=int, default=8, help="number of churn events"
    )
    churn_parser.add_argument("--seed", type=int, default=0)
    churn_parser.add_argument(
        "--kinds",
        nargs="+",
        default=None,
        metavar="KIND",
        help="opt into a rich event stream with these kinds (edge-down, "
        "edge-up, edge-reweight, node-leave, node-join); default: the "
        "seed-era edge failure/recovery workload",
    )
    churn_parser.add_argument(
        "--events-per-tick",
        type=int,
        default=1,
        help="calendar event rate: events sharing one tick (rich streams)",
    )
    churn_parser.add_argument(
        "--allow-partition",
        action="store_true",
        help="let rich streams partition the graph (default streams keep "
        "the live nodes connected)",
    )
    churn_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the per-event bills as deterministic JSON "
        "(timings excluded; used by the CI tier differential)",
    )

    resolve_parser = subparsers.add_parser(
        "resolve",
        help="serve a seeded Zipf/diurnal/flash lookup trace against the "
        "sharded name-resolution service over a converged nd-disco "
        "substrate and report latency/staleness/load (see "
        "docs/REPRODUCING.md for the command map)",
    )
    resolve_parser.add_argument(
        "family",
        choices=sorted(_GENERATORS),
        help="topology family for the substrate graph",
    )
    resolve_parser.add_argument("nodes", type=int, help="node count")
    resolve_parser.add_argument(
        "--lookups", type=int, default=100_000, help="total lookups in the trace"
    )
    resolve_parser.add_argument(
        "--duration", type=int, default=256, help="timeline length in ticks"
    )
    resolve_parser.add_argument("--seed", type=int, default=0)
    resolve_parser.add_argument(
        "--replicas", type=int, default=2, help="ring successors per name"
    )
    resolve_parser.add_argument(
        "--virtual-nodes", type=int, default=8, help="ring tokens per shard"
    )
    resolve_parser.add_argument(
        "--refresh-interval",
        type=int,
        default=16,
        help="soft-state refresh period t (records expire after 2t+1)",
    )
    resolve_parser.add_argument(
        "--zipf", type=float, default=0.9, help="popularity skew exponent"
    )
    resolve_parser.add_argument(
        "--diurnal",
        type=float,
        default=0.5,
        help="diurnal volume amplitude A in [0, 1)",
    )
    resolve_parser.add_argument(
        "--flash",
        nargs=3,
        type=float,
        default=None,
        metavar=("START", "END", "BOOST"),
        help="flash-crowd window: boost lookup volume in [START, END)",
    )
    resolve_parser.add_argument(
        "--churn-shards",
        type=int,
        default=0,
        help="crash this many shards mid-timeline (unannounced; copies "
        "lost) and rejoin them half a refresh later",
    )
    resolve_parser.add_argument(
        "--groups",
        action="store_true",
        help="serve from sloppy-group contacts before the ring",
    )
    resolve_parser.add_argument(
        "--deployment",
        type=float,
        default=None,
        help="deployment-size estimate handed to the sloppy grouping "
        "(default: the true node count; larger values shrink the groups, "
        "pushing more lookups to the ring -- at small n the honest "
        "estimate yields groups that swallow every lookup)",
    )
    resolve_parser.add_argument(
        "--cache-budget",
        type=int,
        default=1 << 20,
        help="router-cache byte budget in the serving process",
    )
    resolve_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the digested report as deterministic JSON "
        "(timings excluded)",
    )

    substrate_parser = subparsers.add_parser(
        "substrate",
        help="converge routing substrates standalone -- multi-core, "
        "mmap/disk slab placement, per-phase timing and RSS (the "
        "large-n driver; see docs/REPRODUCING.md)",
    )
    substrate_parser.add_argument(
        "source",
        help="topology family (%s) or an edge-list path"
        % ", ".join(sorted(_GENERATORS)),
    )
    substrate_parser.add_argument(
        "nodes",
        type=int,
        nargs="?",
        default=None,
        help="node count (required with a generator family)",
    )
    substrate_parser.add_argument("--seed", type=int, default=0)
    substrate_parser.add_argument(
        "--protocols",
        nargs="+",
        default=["nd-disco", "s4"],
        choices=["nd-disco", "s4"],
        help="schemes to converge; when both are listed they share one "
        "substrate, exactly as StaticSimulation builds them",
    )
    substrate_parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="in-kernel pthread fan-out for the batched C entry points "
        "(default: REPRO_KERNEL_THREADS or the CPU count; 0 pins the "
        "serial per-source loop; byte-identical output for any width)",
    )
    substrate_parser.add_argument(
        "--storage",
        default=None,
        help='slab placement: "mmap" (anonymous mmap) or a directory path '
        "(file-backed slabs, mmap-attachable afterwards); default RAM "
        "arrays",
    )
    substrate_parser.add_argument(
        "--vicinity-storage",
        default=None,
        help="override --storage for the vicinity slabs (e.g. SPT slabs "
        "on disk, vicinity in anonymous mmap when neither medium fits "
        "everything)",
    )
    substrate_parser.add_argument(
        "--no-persist",
        action="store_true",
        help="skip finishing a --storage directory into a complete "
        "mmap-attachable slab artifact (implied when the vicinity slabs "
        "live on a different medium)",
    )
    substrate_parser.add_argument(
        "--routes",
        type=int,
        default=4,
        help="sampled routing sanity checks after convergence (0 skips)",
    )
    return parser


def _command_list() -> int:
    for experiment_id in EXPERIMENTS:
        print(experiment_id)
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.scenarios import registry

    selected = list(EXPERIMENTS) if args.all else list(args.experiments)
    if not selected:
        print("no experiments selected (pass ids or --all)", file=sys.stderr)
        return 2
    cache = None if args.no_cache else _cache_root(args)
    from repro.scenarios.engine import run_scenarios

    scale = default_scale()
    if args.topology_file is not None:
        import dataclasses

        from repro.graphs.ingest import available_formats

        if args.topology_format not in available_formats():
            print(
                f"unknown --topology-format {args.topology_format!r} "
                f"(registered: {', '.join(available_formats())})",
                file=sys.stderr,
            )
            return 2
        if not os.path.isfile(args.topology_file):
            print(
                f"--topology-file {args.topology_file}: no such file",
                file=sys.stderr,
            )
            return 2
        scale = dataclasses.replace(
            scale,
            topology_file=args.topology_file,
            topology_format=args.topology_format,
        )
    try:
        # run_scenarios resolves ids/aliases itself (planning happens
        # before any execution, so an unknown id fails fast).
        runs = run_scenarios(
            selected,
            scale=scale,
            workers=args.workers,
            json_dir=args.json_dir,
            cache=cache,
            echo=lambda message: print(message, file=sys.stderr),
        )
    except registry.UnknownScenarioError as error:
        print(str(error), file=sys.stderr)
        return 2
    for run in runs.values():
        print(run.report)
        print()
    return 0


def _cache_root(args: argparse.Namespace) -> str:
    return (
        args.cache_dir
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )


def _parse_size(text: str) -> int:
    """Parse a byte budget like ``1048576``, ``512K``, ``200M``, ``2G``."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    if text and text[-1].upper() in units:
        return int(float(text[:-1]) * units[text[-1].upper()])
    return int(text)


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB"):
        if count < 1024:
            return f"{count:.1f} {unit}" if unit != "B" else f"{int(count)} B"
        count /= 1024
    return f"{count:.1f} GiB"


def _command_cache(args: argparse.Namespace) -> int:
    from repro.scenarios import lifecycle

    root = _cache_root(args)
    if args.cache_command == "stats":
        stats = lifecycle.cache_stats(root)
        rows = [
            [kind, entry["count"], _format_bytes(entry["bytes"])]
            for kind, entry in stats["kinds"].items()
        ]
        rows.append(["total", stats["count"], _format_bytes(stats["bytes"])])
        print(f"cache root: {root}")
        print(format_table(["kind", "artifacts", "bytes"], rows))
        if stats.get("raw_bytes"):
            ratio = stats["bytes"] / stats["raw_bytes"]
            print(
                f"compression: {_format_bytes(stats['bytes'])} stored / "
                f"{_format_bytes(stats['raw_bytes'])} raw "
                f"({ratio:.2f}x, {1.0 / ratio:.1f}:1)"
                if ratio > 0
                else "compression: n/a"
            )
        # Refresh the aggregate view whenever a root exists -- including
        # an emptied one, so a stale manifest never outlives its artifacts.
        if os.path.isdir(root):
            manifest = lifecycle.write_manifest(root)
            print(f"manifest refreshed: {manifest}")
        return 0
    if args.cache_command == "ls":
        artifacts = lifecycle.scan(root)
        if args.kind:
            artifacts = [a for a in artifacts if a.kind == args.kind]
        rows = [
            [
                info.kind,
                info.key[:16],
                _format_bytes(info.bytes),
                f"{info.age_s / 3600.0:.1f}h",
            ]
            for info in sorted(artifacts, key=lambda a: (a.kind, a.key))
        ]
        print(format_table(["kind", "key", "bytes", "last hit"], rows))
        return 0
    if args.cache_command == "clear":
        report = lifecycle.clear(root)
        print(
            f"removed {len(report.removed)} artifact(s), "
            f"{_format_bytes(report.removed_bytes)}"
        )
        if os.path.isdir(root):
            lifecycle.write_manifest(root)
        return 0
    if args.cache_command == "prune":
        if args.max_bytes is None and args.max_age_days is None:
            print(
                "prune needs --max-bytes and/or --max-age-days",
                file=sys.stderr,
            )
            return 2
        try:
            max_bytes = (
                _parse_size(args.max_bytes)
                if args.max_bytes is not None
                else None
            )
        except ValueError:
            print(f"bad --max-bytes {args.max_bytes!r}", file=sys.stderr)
            return 2
        report = lifecycle.prune(
            root,
            max_bytes=max_bytes,
            max_age_s=(
                args.max_age_days * 86400.0
                if args.max_age_days is not None
                else None
            ),
            dry_run=args.dry_run,
        )
        if args.dry_run:
            for info in report.removed:
                print(
                    f"would evict {info.kind}/{info.key[:16]} "
                    f"({_format_bytes(info.bytes)}, "
                    f"last hit {info.age_s / 3600.0:.1f}h ago)"
                )
            print(
                f"dry run: would prune {len(report.removed)} artifact(s), "
                f"{_format_bytes(report.removed_bytes)}; "
                f"{len(report.kept)} kept, {_format_bytes(report.kept_bytes)}"
            )
            return 0
        print(
            f"pruned {len(report.removed)} artifact(s), "
            f"{_format_bytes(report.removed_bytes)} freed; "
            f"{len(report.kept)} kept, {_format_bytes(report.kept_bytes)}"
        )
        lifecycle.write_manifest(root)
        return 0
    print(f"unknown cache command {args.cache_command!r}", file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces the choices


def _command_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import all_scenarios

    if args.scenarios_command == "list":
        scale = default_scale()
        rows = []
        for scenario in all_scenarios():
            shard_keys = scenario.shard_keys(scale)
            rows.append(
                [
                    scenario.scenario_id,
                    ",".join(scenario.family),
                    ",".join(scenario.protocols) or "-",
                    ",".join(scenario.metrics),
                    str(len(shard_keys)) if shard_keys else "-",
                    ",".join(scenario.aliases) or "-",
                ]
            )
        print(
            format_table(
                ["scenario", "families", "protocols", "metrics", "shards",
                 "aliases"],
                rows,
            )
        )
        return 0
    print(f"unknown scenarios command {args.scenarios_command!r}", file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces the choices


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.graphs import ingest

    if args.list_formats:
        rows = [
            [fmt.name, fmt.description]
            for fmt in sorted(ingest._FORMATS.values())
        ]
        print(format_table(["format", "description"], rows))
        return 0
    if args.path is None:
        print("ingest: dataset path required (or --list-formats)", file=sys.stderr)
        return 2
    if args.fmt not in ingest.available_formats():
        print(
            f"unknown format {args.fmt!r} "
            f"(registered: {', '.join(ingest.available_formats())})",
            file=sys.stderr,
        )
        return 2
    params = {}
    if args.delay is not None:
        params["delay"] = args.delay
    if args.internal_delay is not None:
        params["internal_delay"] = args.internal_delay
    if args.external_delay is not None:
        params["external_delay"] = args.external_delay

    from repro.scenarios.cache import ArtifactCache, activated

    cache = None if args.no_cache else ArtifactCache(_cache_root(args))
    try:
        with activated(cache):
            topology = ingest.ingest_topology(
                args.path,
                fmt=args.fmt,
                name=args.name,
                largest_component=args.largest_component,
                **params,
            )
    except OSError as error:
        print(f"cannot read {args.path}: {error}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as error:
        print(f"ingest failed: {error}", file=sys.stderr)
        return 2
    digest = ingest.file_digest(args.path)
    profile = topology.weight_profile()
    csr = topology.csr()
    print(
        f"{topology.name}: {topology.num_nodes} nodes / "
        f"{topology.num_edges} edges  (format={args.fmt}, "
        f"sha256={digest[:16]})"
    )
    weights = "unit" if profile.unit else (
        f"quantized (quantum {profile.quantum:g})" if profile.bucket_ok
        else "general"
    )
    print(f"weights: {weights}; kernel: {csr.kernel} ({csr.tier} tier)")
    if args.largest_component:
        print("largest connected component kept")
    if cache is not None:
        verb = "attached from" if cache.hits else "stored in"
        print(f"artifact {verb} cache ({cache.root})")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.family]
    topology = generator(args.nodes, seed=args.seed)
    write_edge_list(topology, args.out)
    print(
        f"wrote {topology.num_nodes} nodes / {topology.num_edges} edges to {args.out}"
    )
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    topology = read_edge_list(args.path)
    profile = profile_topology(topology, seed=args.seed)
    rows = [
        ["nodes", profile.num_nodes],
        ["edges", profile.num_edges],
        ["average degree", profile.average_degree],
        ["max degree", profile.max_degree],
        ["mean path length", profile.path_length_summary.mean],
        ["estimated diameter", profile.estimated_diameter],
    ]
    print(format_table(["property", "value"], rows, float_format="{:.2f}"))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    topology = read_edge_list(args.path)
    if not topology.is_connected():
        topology, _ = topology.largest_component_subgraph()
        print(
            f"note: using the largest connected component ({topology.num_nodes} nodes)"
        )
    simulation = StaticSimulation(topology, args.protocols, seed=args.seed)
    results = simulation.run(
        measure_state_flag=True,
        measure_stretch_flag=True,
        pair_sample=args.pairs,
    )
    rows = []
    for name in sorted(results.state):
        state = results.state[name].entry_summary
        stretch = results.stretch[name]
        rows.append(
            [
                name,
                state.mean,
                state.maximum,
                stretch.first_summary.mean,
                stretch.later_summary.mean,
            ]
        )
    print(
        format_table(
            ["protocol", "state mean", "state max", "first stretch", "later stretch"],
            rows,
            float_format="{:.2f}",
        )
    )
    return 0


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


def _command_substrate(args: argparse.Namespace) -> int:
    import time

    from repro.core.nddisco import NDDiscoRouting
    from repro.graphs.sampling import sample_pairs
    from repro.protocols.registry import build_scheme

    if args.source in _GENERATORS:
        if args.nodes is None:
            print(
                f"substrate {args.source}: node count required",
                file=sys.stderr,
            )
            return 2
        topology = _GENERATORS[args.source](args.nodes, seed=args.seed)
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


def _command_churn(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.landmarks import select_landmarks
    from repro.dynamics import (
        EVENT_KINDS,
        ChurnEngine,
        generate_churn_workload,
        generate_event_stream,
    )

    if args.kinds is not None:
        unknown = [kind for kind in args.kinds if kind not in EVENT_KINDS]
        if unknown:
            print(f"unknown event kinds: {', '.join(unknown)}", file=sys.stderr)
            return 2

    topology = _GENERATORS[args.family](args.nodes, seed=args.seed)
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
    sent = sum(report.vicinities_recomputed for report in reports)
    stored = sum(report.vicinities_stored for report in reports)
    print(f"vicinity rows: {sent} sent to the kernel, {stored} stored")
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


def _command_resolve(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.nddisco import NDDiscoRouting
    from repro.core.sloppy_groups import SloppyGrouping
    from repro.dynamics.stream import DynEvent
    from repro.resolution import (
        GroupContactIndex,
        generate_lookup_workload,
        run_traffic,
    )
    from repro.utils.distributions import summarize

    if args.churn_shards < 0:
        print("--churn-shards must be >= 0", file=sys.stderr)
        return 2

    started = time.perf_counter()
    topology = _GENERATORS[args.family](args.nodes, seed=args.seed)
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
        cache_budget=args.cache_budget,
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
    stats = report.cache_stats
    print(
        f"router cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions, {stats['bytes']}/"
        f"{stats['max_bytes']} bytes"
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
            "schema": "repro-resolve-report/v1",
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
            "cache_stats": dict(sorted(report.cache_stats.items())),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "scenarios":
        return _command_scenarios(args)
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "generate":
        return _command_generate(args)
    if args.command == "profile":
        return _command_profile(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "substrate":
        return _command_substrate(args)
    if args.command == "churn":
        return _command_churn(args)
    if args.command == "resolve":
        return _command_resolve(args)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
