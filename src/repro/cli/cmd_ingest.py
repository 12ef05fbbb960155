"""``repro ingest``: stream a real-topology dataset into the cache."""

from __future__ import annotations

import argparse
import sys

from repro.cli.parser import cache_root
from repro.graphs import ingest
from repro.scenarios.cache import ArtifactCache, activated
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
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

    cache = None if args.no_cache else ArtifactCache(cache_root(args))
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
