"""``repro run``: experiments through the scenario engine."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.cli.parser import cache_root
from repro.experiments.config import default_scale
from repro.graphs.ingest import available_formats
from repro.scenarios import registry
from repro.scenarios.engine import run_scenarios


def command(args: argparse.Namespace) -> int:
    selected = (
        [row.scenario_id for row in registry.CATALOG]
        if args.all
        else list(args.experiments)
    )
    if not selected:
        print("no experiments selected (pass ids or --all)", file=sys.stderr)
        return 2
    cache = None if args.no_cache else cache_root(args)
    scale = default_scale()
    if args.topology_file is not None:
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
        # run_scenarios resolves ids/aliases itself, importing the modules
        # of the selected scenarios (planning happens before any execution,
        # so an unknown id or a module that does not load fails fast).
        runs = run_scenarios(
            selected,
            scale=scale,
            workers=args.workers,
            json_dir=args.json_dir,
            cache=cache,
            echo=lambda message: print(message, file=sys.stderr),
        )
    except (
        registry.UnknownScenarioError,
        registry.ScenarioLoadError,
    ) as error:
        print(str(error), file=sys.stderr)
        return 2
    for run in runs.values():
        print(run.report)
        print()
    return 0
