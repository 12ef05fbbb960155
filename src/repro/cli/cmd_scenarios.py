"""``repro scenarios``: the declarative catalog, spec by spec."""

from __future__ import annotations

import argparse

from repro.experiments.config import default_scale
from repro.scenarios import all_scenarios
from repro.utils.formatting import format_table


def command(args: argparse.Namespace) -> int:
    # ``list`` is the one subcommand (argparse enforces the choice).
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
