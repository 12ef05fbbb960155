"""``repro run``: experiments through the scenario engine."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli.parser import cache_root
from repro.errors import InputError
from repro.experiments.config import default_scale
from repro.graphs.ingest import ingest_file
from repro.scenarios import registry
from repro.scenarios.engine import run_scenarios


def command(args: argparse.Namespace) -> int:
    selected = (
        [row.scenario_id for row in registry.CATALOG]
        if args.all
        else list(args.experiments)
    )
    if not selected:
        raise InputError("no experiments selected (pass ids or --all)")
    cache = None if args.no_cache else cache_root(args)
    scale = default_scale()
    if args.topology_file is not None:
        # Parse the dataset once up front, so a file that does not load
        # fails here, before the engine starts, and not inside a shard or
        # a pool worker.
        ingest_file(args.topology_file, fmt=args.topology_format)
        scale = dataclasses.replace(
            scale,
            topology_file=args.topology_file,
            topology_format=args.topology_format,
        )
    # run_scenarios resolves ids/aliases itself, importing the modules of
    # the selected scenarios (planning happens before any execution, so an
    # unknown id or a module that does not load fails fast).
    runs = run_scenarios(
        selected,
        scale=scale,
        workers=args.workers,
        json_dir=args.json_dir,
        cache=cache,
        echo=lambda message: print(message, file=sys.stderr),
    )
    for run in runs.values():
        print(run.report)
        print()
    return 0
