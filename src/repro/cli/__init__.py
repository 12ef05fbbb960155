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

The package is the entry point and a table: :func:`main` builds the one
parser (:mod:`repro.cli.parser`, which imports nothing but ``argparse``) and
hands the parsed arguments to the ``command(args)`` of the module
:data:`COMMANDS` names for the command -- one ``cmd_<name>`` module each,
whose top-level imports are what that command needs.
"""

from __future__ import annotations

import importlib
from typing import Sequence

from repro.cli.parser import build_parser

__all__ = ["COMMANDS", "build_parser", "main"]

#: Command name -> the module whose ``command(args)`` runs it.  ``main``
#: imports the one module the parsed command names, so a command pays for
#: its own imports and for nobody else's.
COMMANDS = {
    "list": "repro.cli.cmd_list",
    "run": "repro.cli.cmd_run",
    "cache": "repro.cli.cmd_cache",
    "scenarios": "repro.cli.cmd_scenarios",
    "ingest": "repro.cli.cmd_ingest",
    "generate": "repro.cli.cmd_generate",
    "profile": "repro.cli.cmd_profile",
    "compare": "repro.cli.cmd_compare",
    "substrate": "repro.cli.cmd_substrate",
    "churn": "repro.cli.cmd_churn",
    "resolve": "repro.cli.cmd_resolve",
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return importlib.import_module(COMMANDS[args.command]).command(args)
