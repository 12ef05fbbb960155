"""Declarative scenario specs and the ``@scenario`` decorator.

A :class:`Scenario` describes one experiment of the paper's evaluation as
*data*: which topology family (or families) it exercises, which routing
schemes it builds, which metrics it measures, what the workload is, and how
it can be sharded for parallel execution.  The experiment modules under
:mod:`repro.experiments` register themselves by decorating their ``run``
function::

    @scenario(
        "fig04-gnm-comparison",
        title="Fig. 4: state/stretch/congestion on G(n,m)",
        family="gnm",
        protocols=("disco", "nd-disco", "s4", "vrr", "path-vector"),
        metrics=("state", "stretch", "congestion"),
        workload="converged-state comparison",
        aliases=("fig04",),
    )
    def run(scale=None): ...

Multi-panel and sweep experiments additionally declare **shards** --
independent units of work (one topology panel, one sweep size) the
execution engine can fan out over a process pool -- together with a
``shard_runner(scale, key)`` and a ``shard_merge(scale, parts)`` that
reassembles the exact result object ``run`` would have produced serially.
Serial and sharded execution are byte-identical by construction because
``run`` itself is written as ``shard_merge(scale, {k: shard_runner(scale,
k) for k in keys})``.

The spec layer has no dependency on the engine or the experiment modules;
see :mod:`repro.scenarios.registry` for lookup/aliases and
:mod:`repro.scenarios.engine` for execution.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.scenarios.registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentScale

__all__ = ["Scenario", "scenario"]


@dataclass(frozen=True)
class Scenario:
    """One declaratively specified experiment.

    Attributes
    ----------
    scenario_id:
        Canonical id (also the legacy ``repro run`` experiment id).
    title:
        One-line human-readable description (shown by ``repro scenarios
        list`` and embedded in the JSON results).
    family:
        Topology families the scenario builds (``("gnm",)``,
        ``("geometric", "as-level", "router-level")``, ...).
    protocols:
        Routing schemes evaluated (registry names; empty for pure
        addressing/naming studies).
    metrics:
        What is measured (``"state"``, ``"stretch"``, ``"congestion"``,
        ``"messages"``, ...).
    workload:
        Short description of the measurement workload.
    aliases:
        Alternative ids accepted by the registry and the CLI.
    tags:
        Free-form labels; ``"quick"`` marks scenarios cheap enough for
        smoke runs and the determinism differential test.
    shards / shard_runner / shard_merge:
        Optional parallel decomposition (see the module docstring).
    """

    scenario_id: str
    title: str
    family: tuple[str, ...]
    protocols: tuple[str, ...]
    metrics: tuple[str, ...]
    workload: str
    module: str
    run: Callable[..., object]
    aliases: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    shards: object = None
    shard_runner: Callable[..., object] | None = None
    shard_merge: Callable[..., object] | None = None

    def format_report(self, result: object) -> str:
        """Render ``result`` with the owning module's ``format_report``."""
        return getattr(sys.modules[self.module], "format_report")(result)

    def shard_keys(self, scale: "ExperimentScale") -> tuple[str, ...]:
        """Shard keys for ``scale`` (empty tuple = not shardable)."""
        if self.shards is None:
            return ()
        if callable(self.shards):
            return tuple(self.shards(scale))
        return tuple(self.shards)

    def run_shard(self, scale: "ExperimentScale", key: str) -> object:
        """Run one shard; only valid when the scenario declares shards."""
        if self.shard_runner is None:
            raise ValueError(f"scenario {self.scenario_id!r} has no shards")
        return self.shard_runner(scale, key)

    def merge_shards(
        self, scale: "ExperimentScale", parts: Mapping[str, object]
    ) -> object:
        """Reassemble shard results into the scenario's result object."""
        if self.shard_merge is None:
            raise ValueError(f"scenario {self.scenario_id!r} has no shards")
        return self.shard_merge(scale, dict(parts))


def _as_tuple(value) -> tuple:
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    return tuple(value)


def scenario(
    scenario_id: str,
    *,
    title: str,
    family: str | Sequence[str] = (),
    protocols: Sequence[str] = (),
    metrics: Sequence[str] = (),
    workload: str = "",
    aliases: Sequence[str] = (),
    tags: Sequence[str] = (),
    shards: object = None,
    shard_runner: Callable[..., object] | None = None,
    shard_merge: Callable[..., object] | None = None,
) -> Callable[[Callable], Callable]:
    """Register the decorated ``run`` function as a :class:`Scenario`.

    The decorated function is returned unchanged, so the experiment
    modules' public ``run`` API is untouched.  ``format_report`` is
    resolved lazily from the decorated function's module, which lets the
    decorator sit above ``run`` even though ``format_report`` is defined
    further down the file.  The id, the aliases and the module must be
    the ones :data:`repro.scenarios.registry.CATALOG` lists for it
    (:func:`~repro.scenarios.registry.register` raises otherwise): the
    catalog is what finds this module when the scenario is asked for.
    """
    if shards is not None and (shard_runner is None or shard_merge is None):
        raise ValueError(
            f"scenario {scenario_id!r} declares shards but no "
            "shard_runner/shard_merge"
        )

    def decorate(run_fn: Callable) -> Callable:
        register(
            Scenario(
                scenario_id=scenario_id,
                title=title,
                family=_as_tuple(family),
                protocols=_as_tuple(protocols),
                metrics=_as_tuple(metrics),
                workload=workload,
                module=run_fn.__module__,
                run=run_fn,
                aliases=_as_tuple(aliases),
                tags=_as_tuple(tags),
                shards=shards,
                shard_runner=shard_runner,
                shard_merge=shard_merge,
            )
        )
        return run_fn

    return decorate
