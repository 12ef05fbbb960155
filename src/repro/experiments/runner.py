"""Legacy experiment API, backed by the scenario registry.

Importing this module loads every experiment module through the scenario
catalog (:data:`repro.scenarios.registry.CATALOG`); ``EXPERIMENTS`` is
materialized from it in the catalog's historical id order, so pre-existing
callers (``examples/reproduce_paper.py``, the integration tests, downstream
scripts) keep the exact ``{id: (run, format_report)}`` shape and behavior
they always had.  New code should prefer the scenario engine
(:func:`repro.scenarios.engine.run_scenarios`), which imports only the
scenarios a run selects and adds prerequisite caching, sharded parallel
execution, and structured JSON output on top of the same registry.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.experiments.config import ExperimentScale, default_scale
from repro.scenarios import registry as _registry

__all__ = ["EXPERIMENTS", "run_all_experiments", "run_experiment"]


def _experiments() -> dict[str, tuple[Callable, Callable]]:
    table: dict[str, tuple[Callable, Callable]] = {}
    for row in _registry.CATALOG:
        scenario = _registry.resolve(row.scenario_id)
        table[row.scenario_id] = (scenario.run, scenario.format_report)
    return table


# Experiment id -> (run, format_report); built from the scenario registry.
EXPERIMENTS: dict[str, tuple[Callable, Callable]] = _experiments()


def run_experiment(
    experiment_id: str, scale: ExperimentScale | None = None
) -> tuple[object, str]:
    """Run one experiment by id; returns (result object, rendered report).

    Raises
    ------
    KeyError
        If the experiment id is unknown.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        )
    run, format_report = EXPERIMENTS[experiment_id]
    result = run(scale or default_scale())
    return result, format_report(result)


def run_all_experiments(
    scale: ExperimentScale | None = None,
    *,
    include: Iterable[str] | None = None,
    exclude: Iterable[str] = (),
) -> dict[str, str]:
    """Run the selected experiments and return their rendered reports.

    Parameters
    ----------
    scale:
        Experiment scale (default: :func:`repro.experiments.default_scale`).
    include:
        Experiment ids to run (default: all).
    exclude:
        Experiment ids to skip.
    """
    scale = scale or default_scale()
    selected = list(include) if include is not None else list(EXPERIMENTS)
    excluded = set(exclude)
    reports: dict[str, str] = {}
    for experiment_id in selected:
        if experiment_id in excluded:
            continue
        _, report = run_experiment(experiment_id, scale)
        reports[experiment_id] = report
    return reports
