"""Execution planner and runner for declarative scenarios.

:func:`run_scenarios` is the engine behind ``repro run``: it resolves
ids/aliases against the registry, expands every sharded scenario into one
task per shard, executes the tasks in-process or over a process pool, and
reassembles per-scenario results, text reports, and structured JSON
documents.

Three properties the engine guarantees:

* **Determinism** -- serial and parallel execution produce byte-identical
  reports and JSON for the same ids and scale.  Both run the same task
  list through the same task function; tasks are pure functions of
  ``(scenario, shard, scale)``; the pool preserves task order; shard
  merges key by shard name, never by completion order; and everything
  timing-related is quarantined in ``manifest.json``.
* **Prerequisite deduplication** -- an :class:`ArtifactCache`
  (:mod:`repro.scenarios.cache`) is active for the duration of the run, so
  the ``(family, scale, seed)`` topologies and converged
  :class:`StaticSimulation` substrates shared across the selected
  scenarios are each built once.  With a disk-backed cache the dedup
  extends across worker processes and across invocations.
* **One definition of a scenario** -- a sharded scenario's ``run`` (what
  a direct call from Python runs) is its shards merged in key order
  (:meth:`Scenario.run`), so a task list of its shards and a direct call
  compute the same thing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.experiments.config import ExperimentScale, default_scale
from repro.scenarios import registry
from repro.scenarios.cache import ArtifactCache, activated
from repro.scenarios.results import dump_json, scenario_json
from repro.scenarios.spec import Scenario

__all__ = [
    "MANIFEST_SCHEMA",
    "PlanEntry",
    "ExecutionPlan",
    "ScenarioRun",
    "plan_scenarios",
    "run_scenarios",
]

MANIFEST_SCHEMA = "repro-scenario-manifest/v2"


@dataclass(frozen=True)
class PlanEntry:
    """One scenario scheduled for execution, with its shard expansion."""

    scenario: Scenario
    shard_keys: tuple[str, ...]

    @property
    def num_tasks(self) -> int:
        return max(1, len(self.shard_keys))


@dataclass(frozen=True)
class ExecutionPlan:
    """The ordered task list a run will execute."""

    entries: tuple[PlanEntry, ...]
    scale: ExperimentScale

    def tasks(self) -> list[tuple[str, str | None]]:
        """Flat ``(scenario_id, shard_key | None)`` task list, in order."""
        out: list[tuple[str, str | None]] = []
        for entry in self.entries:
            if entry.shard_keys:
                out.extend(
                    (entry.scenario.scenario_id, key)
                    for key in entry.shard_keys
                )
            else:
                out.append((entry.scenario.scenario_id, None))
        return out


@dataclass
class ScenarioRun:
    """One executed scenario: result object, report text, JSON document."""

    scenario_id: str
    result: object
    report: str
    json: dict
    seconds: float


def plan_scenarios(
    ids: Iterable[str] | None = None,
    scale: ExperimentScale | None = None,
) -> ExecutionPlan:
    """Resolve ids (``None`` = every registered scenario) into a plan.

    A sharded scenario always expands into one task per shard key, at
    every worker count.  Duplicate ids collapse to their first
    occurrence.  Aliases resolve to their canonical scenario.  Resolving
    an id imports the experiment module the catalog names for it, and no
    other.  Unknown ids raise
    :class:`~repro.scenarios.registry.UnknownScenarioError` with near-miss
    suggestions; a module that does not load raises
    :class:`~repro.scenarios.registry.ScenarioLoadError`.
    """
    scale = scale or default_scale()
    if ids is None:
        scenarios = registry.all_scenarios()
    else:
        scenarios, seen = [], set()
        for scenario_id in ids:
            scenario = registry.resolve(scenario_id)
            if scenario.scenario_id not in seen:
                seen.add(scenario.scenario_id)
                scenarios.append(scenario)
    entries = tuple(
        PlanEntry(scenario=scenario, shard_keys=scenario.shard_keys(scale))
        for scenario in scenarios
    )
    return ExecutionPlan(entries=entries, scale=scale)


# -- worker-process state -----------------------------------------------------

_WORKER_SCALE: ExperimentScale | None = None
_WORKER_CACHE: ArtifactCache | None = None


def _worker_init(
    scale: ExperimentScale,
    cache_root: str | None,
    cache_enabled: bool,
) -> None:
    global _WORKER_SCALE, _WORKER_CACHE
    _WORKER_SCALE = scale
    _WORKER_CACHE = ArtifactCache(cache_root) if cache_enabled else None


def _run_task(
    task: tuple[str, str | None],
    scale: ExperimentScale,
    cache: ArtifactCache | None,
) -> tuple[float, int, int, object]:
    """Execute one task; returns (seconds, hits, misses, payload).

    The in-process loop and the pool workers both run tasks through here.
    The hit/miss counts are the *deltas* this task contributed to
    ``cache``, so the parent can aggregate accurate bookkeeping across the
    pool (each worker process has its own :class:`ArtifactCache`).
    """
    scenario_id, shard_key = task
    scenario = registry.resolve(scenario_id)
    hits_before = cache.hits if cache else 0
    misses_before = cache.misses if cache else 0
    start = time.perf_counter()
    with activated(cache):
        if shard_key is None:
            payload = scenario.run(scale)
        else:
            payload = scenario.shard_runner(scale, shard_key)
    return (
        time.perf_counter() - start,
        (cache.hits - hits_before) if cache else 0,
        (cache.misses - misses_before) if cache else 0,
        payload,
    )


def _run_worker_task(
    task: tuple[str, str | None]
) -> tuple[float, int, int, object]:
    """:func:`_run_task` against the worker's scale and cache."""
    return _run_task(task, _WORKER_SCALE, _WORKER_CACHE)


def _normalize_cache(
    cache: "ArtifactCache | str | os.PathLike | None",
) -> ArtifactCache | None:
    if cache is None or isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)


def run_scenarios(
    ids: Iterable[str] | None = None,
    *,
    scale: ExperimentScale | None = None,
    workers: int = 1,
    json_dir: str | os.PathLike | None = None,
    cache: "ArtifactCache | str | os.PathLike | None" = None,
    echo: Callable[[str], None] | None = None,
) -> dict[str, ScenarioRun]:
    """Run the selected scenarios; return ``{scenario_id: ScenarioRun}``.

    Parameters
    ----------
    ids:
        Scenario ids or aliases (``None`` = all registered scenarios).
    scale:
        Experiment scale (default: :func:`default_scale`, which honours
        ``REPRO_SCALE``).
    workers:
        ``> 1`` fans the task list -- one task per shard of a sharded
        scenario, one per unsharded scenario -- out over a process pool
        of that size; ``<= 1`` runs the same tasks in order in-process.
        Output is byte-identical either way.
    json_dir:
        When given, writes ``<id>.json`` per scenario (deterministic
        content, see :mod:`repro.scenarios.results`) plus a
        ``manifest.json`` with run bookkeeping (timings and per-scenario
        cache hit/miss counts; may differ between runs).
    cache:
        ``None`` disables artifact caching; a path enables the disk-backed
        cache rooted there; an :class:`ArtifactCache` is used as-is.  With
        ``workers > 1`` a *disk-backed* cache is shared between workers
        (memory-only caches dedupe within each worker).
    echo:
        Optional progress sink (the CLI passes a stderr printer).
    """
    say = echo or (lambda message: None)
    cache = _normalize_cache(cache)
    plan = plan_scenarios(ids, scale)
    scale = plan.scale
    # Make the output directories before any work: a path that cannot be
    # one fails now, not after the last scenario.
    for directory in (json_dir, cache.root if cache else None):
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
    tasks = plan.tasks()
    say(
        f"scenario engine: {len(plan.entries)} scenario(s), "
        f"{len(tasks)} task(s), workers={max(workers, 1)}, "
        f"cache={'off' if cache is None else (cache.root or 'memory')}"
    )
    started = time.perf_counter()
    if workers > 1 and len(tasks) > 1:
        from multiprocessing import Pool

        # Workers attach the disk cache's slab directories by mmap, so the
        # page cache holds one shared copy of every substrate they read.
        with Pool(
            workers,
            initializer=_worker_init,
            initargs=(scale, cache.root if cache else None, cache is not None),
        ) as pool:
            outputs = pool.map(_run_worker_task, tasks, chunksize=1)
    else:
        outputs = [_run_task(task, scale, cache) for task in tasks]
    task_outputs: dict[tuple[str, str | None], tuple[float, object]] = {}
    # Per-scenario cache bookkeeping (hit/miss deltas summed over the
    # scenario's tasks), recorded in manifest.json.
    scenario_cache: dict[str, list[int]] = {}
    for task, (seconds, hits, misses, payload) in zip(tasks, outputs):
        task_outputs[task] = (seconds, payload)
        entry = scenario_cache.setdefault(task[0], [0, 0])
        entry[0] += hits
        entry[1] += misses
    cache_hits = sum(entry[0] for entry in scenario_cache.values())
    cache_misses = sum(entry[1] for entry in scenario_cache.values())

    runs: dict[str, ScenarioRun] = {}
    for entry in plan.entries:
        scenario = entry.scenario
        scenario_id = scenario.scenario_id
        if entry.shard_keys:
            parts = {
                key: task_outputs[(scenario_id, key)][1]
                for key in entry.shard_keys
            }
            seconds = sum(
                task_outputs[(scenario_id, key)][0]
                for key in entry.shard_keys
            )
            result = scenario.shard_merge(scale, parts)
        else:
            seconds, result = task_outputs[(scenario_id, None)]
        report = scenario.format_report(result)
        runs[scenario_id] = ScenarioRun(
            scenario_id=scenario_id,
            result=result,
            report=report,
            json=scenario_json(scenario, scale, result, report),
            seconds=seconds,
        )
        say(f"  {scenario_id}: done ({seconds:.2f}s)")

    if json_dir is not None:
        _write_json_dir(
            json_dir, plan, runs, workers, started, cache,
            cache_hits, cache_misses, scenario_cache,
        )
    return runs


def _write_json_dir(
    json_dir: str | os.PathLike,
    plan: ExecutionPlan,
    runs: dict[str, ScenarioRun],
    workers: int,
    started: float,
    cache: ArtifactCache | None,
    cache_hits: int,
    cache_misses: int,
    scenario_cache: dict[str, list[int]],
) -> None:
    for scenario_id, run in runs.items():
        path = os.path.join(json_dir, f"{scenario_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dump_json(run.json))
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "scale_label": plan.scale.label,
        "workers": max(workers, 1),
        "elapsed_s": round(time.perf_counter() - started, 6),
        "cache": None
        if cache is None
        else {
            "root": cache.root,
            "hits": cache_hits,
            "misses": cache_misses,
        },
        "scenarios": {
            scenario_id: {
                "seconds": round(run.seconds, 6),
                "tasks": next(
                    entry.num_tasks
                    for entry in plan.entries
                    if entry.scenario.scenario_id == scenario_id
                ),
                "cache": None
                if cache is None
                else {
                    "hits": scenario_cache.get(scenario_id, [0, 0])[0],
                    "misses": scenario_cache.get(scenario_id, [0, 0])[1],
                },
            }
            for scenario_id, run in runs.items()
        },
    }
    with open(
        os.path.join(json_dir, "manifest.json"), "w", encoding="utf-8"
    ) as handle:
        handle.write(dump_json(manifest))
