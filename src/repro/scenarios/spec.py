"""Declarative scenario specs and the ``@scenario`` decorator.

A :class:`Scenario` describes one experiment of the paper's evaluation as
*data*: which topology family (or families) it exercises, which routing
schemes it builds, which metrics it measures, what the workload is, and how
it can be sharded for parallel execution.  An experiment module registers
an unsharded scenario by decorating its ``run`` function (the scenario's
*body*)::

    @scenario(
        "fig07-state-bytes",
        title="Fig. 7: per-node state in entries and kilobytes (router-level)",
        family="router-level",
        protocols=("s4", "nd-disco", "disco"),
        metrics=("state",),
        workload="converged-state byte accounting",
        aliases=("fig07",),
    )
    def run(scale=None): ...

Multi-panel and sweep experiments instead declare **shards** --
independent units of work (one topology panel, one sweep size, one
protocol) the execution engine can fan out over a process pool --
together with a ``shard_runner(scale, key)`` and a ``shard_merge(scale,
parts)`` that assembles the result object.  Such a scenario has no body:
``scenario(...)`` is then called, not used as a decorator, and returns the
derived ``run`` the module publishes::

    run = scenario(
        "fig09-scaling",
        ...,
        shards=lambda scale: tuple(str(n) for n in scale.scaling_sweep),
        shard_runner=_run_size,
        shard_merge=_merge_sizes,
    )

:meth:`Scenario.run` of a sharded scenario is ``shard_merge(scale, {k:
shard_runner(scale, k) for k in shard_keys(scale)})``, run in key order in
the calling process -- the same functions ``repro run --workers N`` fans
out, so serial and parallel runs are byte-identical by construction.

The spec layer has no dependency on the engine or the experiment modules;
see :mod:`repro.scenarios.registry` for lookup/aliases and
:mod:`repro.scenarios.engine` for execution.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

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
    body:
        The decorated ``run`` of an unsharded scenario; ``None`` for a
        sharded one, whose :meth:`run` is derived from its shards.
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
    body: Callable[..., object] | None = None
    aliases: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    shards: object = None
    shard_runner: Callable[..., object] | None = None
    shard_merge: Callable[..., object] | None = None

    def run(self, scale: "ExperimentScale | None" = None, **params) -> object:
        """The scenario's result at ``scale`` (default: ``REPRO_SCALE``).

        An unsharded scenario calls its body.  A sharded one runs its
        shards in key order in this process and merges them.  Keyword
        ``params`` are passed to the body, or to the shard key function,
        every shard and the merge; the engine passes none.
        """
        if self.body is not None:
            return self.body(scale, **params)
        if callable(scale):
            raise TypeError(
                f"scenario {self.scenario_id!r} declares shards, so its run "
                "is derived from them and cannot decorate a body"
            )
        if scale is None:
            from repro.experiments.config import default_scale

            scale = default_scale()
        parts = {
            key: self.shard_runner(scale, key, **params)
            for key in self.shard_keys(scale, **params)
        }
        return self.shard_merge(scale, parts, **params)

    def format_report(self, result: object) -> str:
        """Render ``result`` with the owning module's ``format_report``."""
        return getattr(sys.modules[self.module], "format_report")(result)

    def shard_keys(self, scale: "ExperimentScale", **params) -> tuple[str, ...]:
        """Shard keys for ``scale`` (empty tuple = not shardable).

        The engine merges shard results by key, so a repeated key is an
        error, not a second unit of work.
        """
        if self.shards is None:
            return ()
        if callable(self.shards):
            keys = tuple(self.shards(scale, **params))
        else:
            keys = tuple(self.shards)
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"scenario {self.scenario_id!r} has repeated shard keys {keys}"
            )
        return keys


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
) -> Callable:
    """Register a :class:`Scenario`.

    Without ``shards`` this returns a decorator that registers the
    decorated ``run`` as the scenario's body and returns it unchanged.
    With ``shards`` (which need ``shard_runner`` and ``shard_merge``) it
    registers the scenario at once and returns its derived
    :meth:`Scenario.run`; there is no body to decorate, and using the
    returned ``run`` as a decorator raises ``TypeError``.

    The scenario's module is the body's (or the shard runner's) module;
    its ``format_report`` is resolved lazily, which lets the declaration
    sit above it in the file.  The id, the aliases and the module must be
    the ones :data:`repro.scenarios.registry.CATALOG` lists for it
    (:func:`~repro.scenarios.registry.register` raises otherwise): the
    catalog is what finds this module when the scenario is asked for.
    """
    fields = dict(
        scenario_id=scenario_id,
        title=title,
        family=_as_tuple(family),
        protocols=_as_tuple(protocols),
        metrics=_as_tuple(metrics),
        workload=workload,
        aliases=_as_tuple(aliases),
        tags=_as_tuple(tags),
    )
    if shards is None:
        if shard_runner is not None or shard_merge is not None:
            raise ValueError(
                f"scenario {scenario_id!r} has a shard_runner/shard_merge "
                "but no shards"
            )

        def decorate(run_fn: Callable) -> Callable:
            register(
                Scenario(module=run_fn.__module__, body=run_fn, **fields)
            )
            return run_fn

        return decorate
    if shard_runner is None or shard_merge is None:
        raise ValueError(
            f"scenario {scenario_id!r} declares shards but no "
            "shard_runner/shard_merge"
        )
    spec = Scenario(
        module=shard_runner.__module__,
        shards=shards,
        shard_runner=shard_runner,
        shard_merge=shard_merge,
        **fields,
    )
    register(spec)
    return spec.run
