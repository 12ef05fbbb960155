"""Declarative scenario engine for the experiment suite.

The pieces, bottom up:

* :mod:`repro.scenarios.spec` -- the :class:`Scenario` dataclass and the
  ``@scenario`` decorator the experiment modules register through.
* :mod:`repro.scenarios.registry` -- the static catalog (id, aliases and
  module of every scenario) and id/alias lookup with near-miss
  suggestions; :func:`resolve` imports the one module a row names,
  :func:`all_scenarios` all of them.
* :mod:`repro.scenarios.cache` -- the content-addressed artifact store
  deduplicating topologies and converged state as slab directories (in
  memory and, optionally, on disk), plus the in-memory scheme memo.
* :mod:`repro.scenarios.lifecycle` -- cache manifest, stats, and the
  size/age eviction policy behind ``repro cache {stats,ls,clear,prune}``.
* :mod:`repro.scenarios.results` -- deterministic JSON serialization of
  scenario results.
* :mod:`repro.scenarios.engine` -- the planner and the serial / process-
  pool executor behind ``repro run --workers N --json-dir DIR``.

Only the spec/registry/cache layers are imported here, and none of them
imports an experiment; the engine is imported on first use (``from
repro.scenarios.engine import run_scenarios``) and imports the experiment
modules of the scenarios it is asked to plan.
"""

from repro.scenarios.cache import ArtifactCache, active_cache, cache_key
from repro.scenarios.registry import (
    ScenarioLoadError,
    UnknownScenarioError,
    all_scenarios,
    resolve,
    scenario_ids,
    suggest,
)
from repro.scenarios.spec import Scenario, scenario

__all__ = [
    "ArtifactCache",
    "Scenario",
    "ScenarioLoadError",
    "UnknownScenarioError",
    "active_cache",
    "all_scenarios",
    "cache_key",
    "resolve",
    "scenario",
    "scenario_ids",
    "suggest",
]
