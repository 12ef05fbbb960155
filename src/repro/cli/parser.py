"""The ``repro`` argument parser: every command, option and help text,
and every argument's shape (its ``type=``)."""

from __future__ import annotations

import argparse
import os

__all__ = [
    "DEFAULT_CACHE_DIR",
    "FAMILIES",
    "SCHEMES",
    "build_parser",
    "cache_root",
]

#: Default root of the on-disk artifact cache (overridable via
#: ``REPRO_CACHE_DIR`` or ``--cache-dir``).
DEFAULT_CACHE_DIR = ".repro_cache"

# The choices of the family and --protocols arguments, spelled out so that
# building the parser imports neither the generators nor the protocols
# (``repro --help`` and ``repro list`` build it too).  tests/test_cli.py
# holds them to ``cmd_generate.GENERATORS`` and ``available_schemes()``.
FAMILIES = ("as-level", "geometric", "gnm", "router-level")
SCHEMES = ("disco", "nd-disco", "s4", "vrr", "path-vector", "shortest-path")


def _checked(convert, accept, wording: str):
    """An ``argparse`` type: ``convert(text)``, refused unless ``accept``."""

    def check(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text}")
        return value

    check.__name__ = convert.__name__  # argparse: "invalid int value: ..."
    return check


positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
non_negative_int = _checked(
    int, lambda value: value >= 0, "a non-negative integer"
)
positive_float = _checked(
    float, lambda value: 0 < value < float("inf"), "a positive number"
)


def _parse_size(text: str) -> int:
    """``argparse`` type of a byte budget like ``1048576``, ``512K``,
    ``200M``, ``2G``."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    if text and text[-1].upper() in units:
        return int(float(text[:-1]) * units[text[-1].upper()])
    return int(text)


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
        choices=["topology", "tables", "vrr"],
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
        type=_parse_size,
        default=None,
        help="evict least-recently-hit artifacts until the summed artifact "
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
        "Topology (and the artifact cache) without per-edge Python "
        "objects; prints a structural summary",
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
    generate_parser.add_argument("family", choices=FAMILIES)
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
        choices=SCHEMES,
    )
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument("--pairs", type=positive_int, default=300)

    churn_parser = subparsers.add_parser(
        "churn",
        help="drive the event-driven churn engine over a seeded event "
        "stream and report per-event maintenance bills (see "
        "docs/REPRODUCING.md for the command map)",
    )
    churn_parser.add_argument(
        "family",
        choices=FAMILIES,
        help="topology family for the base graph",
    )
    churn_parser.add_argument("nodes", type=int, help="node count")
    churn_parser.add_argument(
        "--events", type=positive_int, default=8, help="number of churn events"
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
        type=positive_int,
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
        choices=FAMILIES,
        help="topology family for the substrate graph",
    )
    resolve_parser.add_argument("nodes", type=int, help="node count")
    resolve_parser.add_argument(
        "--lookups", type=positive_int, default=100_000,
        help="total lookups in the trace",
    )
    resolve_parser.add_argument(
        "--duration", type=positive_int, default=256,
        help="timeline length in ticks",
    )
    resolve_parser.add_argument("--seed", type=int, default=0)
    resolve_parser.add_argument(
        "--replicas", type=positive_int, default=2,
        help="ring successors per name",
    )
    resolve_parser.add_argument(
        "--virtual-nodes", type=positive_int, default=8,
        help="ring tokens per shard",
    )
    resolve_parser.add_argument(
        "--refresh-interval",
        type=positive_int,
        default=16,
        help="soft-state refresh period t (records expire after 2t+1)",
    )
    resolve_parser.add_argument(
        "--zipf", type=positive_float, default=0.9,
        help="popularity skew exponent",
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
        type=non_negative_int,
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
        type=positive_float,
        default=None,
        help="deployment-size estimate handed to the sloppy grouping "
        "(default: the true node count; larger values shrink the groups, "
        "pushing more lookups to the ring -- at small n the honest "
        "estimate yields groups that swallow every lookup)",
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
        % ", ".join(FAMILIES),
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
        type=positive_int,
        default=None,
        help="in-kernel pthread fan-out for the batched C entry points "
        "(default: REPRO_KERNEL_THREADS or the CPU count; byte-identical "
        "output for any width)",
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


def cache_root(args: argparse.Namespace) -> str:
    """The cache root a command's ``--cache-dir`` option selects."""
    return (
        args.cache_dir
        or os.environ.get("REPRO_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )
