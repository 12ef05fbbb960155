"""``repro list``: the experiment ids, in presentation order."""

from __future__ import annotations

import argparse

from repro.scenarios import registry


def command(args: argparse.Namespace) -> int:
    for row in registry.CATALOG:
        print(row.scenario_id)
    return 0
