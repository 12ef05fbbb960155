"""``repro ingest``: stream a real-topology dataset into the cache."""

from __future__ import annotations

import argparse

from repro.cli.parser import cache_root
from repro.errors import InputError
from repro.graphs import ingest
from repro.scenarios.cache import ArtifactCache, activated
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
    if args.list_formats:
        rows = [
            [name, ingest._FORMATS[name].description]
            for name in ingest.available_formats()
        ]
        print(format_table(["format", "description"], rows))
        return 0
    if args.path is None:
        raise InputError("dataset path required (or --list-formats)")
    params = {}
    if args.delay is not None:
        params["delay"] = args.delay
    if args.internal_delay is not None:
        params["internal_delay"] = args.internal_delay
    if args.external_delay is not None:
        params["external_delay"] = args.external_delay

    cache = None if args.no_cache else ArtifactCache(cache_root(args))
    with activated(cache):
        topology = ingest.ingest_topology(
            args.path,
            fmt=args.fmt,
            name=args.name,
            largest_component=args.largest_component,
            **params,
        )
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
