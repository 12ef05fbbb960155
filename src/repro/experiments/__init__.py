"""Experiment harness: one module per table and figure of the paper.

Each experiment module exposes:

* a ``run(...)`` function returning a result dataclass, and
* a ``format_report(result)`` function rendering the result as the text
  equivalent of the paper's figure or table (CDF quantiles for the CDF plots,
  aligned rows for the tables).

The sizes the paper used (16,384-node synthetic graphs, the 30,610-node
AS-level map, the 192,244-node router-level map) are far beyond what a pure
Python run should default to, so every experiment takes its dimensions from
:class:`repro.experiments.config.ExperimentScale`, whose default is
laptop-sized and which can be scaled up via the ``REPRO_SCALE`` environment
variable or explicit arguments.  The benchmark suite under ``benchmarks/``
runs every experiment at the default scale; ``docs/REPRODUCING.md`` maps
each to the paper's figure or table.
"""

from repro._lazy import lazy_exports

# Resolved on first use: importing one experiment module must not import
# the runner, which loads all of them.
_EXPORTS = {
    "ExperimentScale": "repro.experiments.config",
    "default_scale": "repro.experiments.config",
    "run_all_experiments": "repro.experiments.runner",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
