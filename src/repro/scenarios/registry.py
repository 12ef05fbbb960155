"""Scenario registry: the catalog, lookup, aliases, near-miss suggestions.

:data:`CATALOG` is the one static table of the suite: a row per scenario,
in the historical presentation order (figures first), naming its id, its
aliases and the experiment module that defines it.  Ids, aliases and
suggestions are answered from the table without importing any experiment;
:func:`resolve` imports the one module its row names, whose ``@scenario``
decorator (:mod:`repro.scenarios.spec`) then registers the
:class:`Scenario`.  Only :func:`all_scenarios` imports every row.
:func:`register` refuses a scenario that differs from its row, so the table
and the decorators cannot drift.
"""

from __future__ import annotations

import difflib
import importlib
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import Scenario

__all__ = [
    "CATALOG",
    "CatalogRow",
    "ScenarioLoadError",
    "UnknownScenarioError",
    "register",
    "all_scenarios",
    "scenario_ids",
    "resolve",
    "suggest",
]


class CatalogRow(NamedTuple):
    """One scenario of the suite: where its ``@scenario`` lives."""

    scenario_id: str
    aliases: tuple[str, ...]
    module: str


#: Every scenario, in the historical presentation order: the order of
#: ``repro list``, ``repro run --all`` and the legacy ``EXPERIMENTS`` dict.
CATALOG: tuple[CatalogRow, ...] = (
    CatalogRow("fig01-taxonomy", ("fig01", "taxonomy"),
               "repro.experiments.fig01_taxonomy"),
    CatalogRow("fig02-state-cdf", ("fig02",),
               "repro.experiments.fig02_state_cdf"),
    CatalogRow("fig03-stretch-cdf", ("fig03",),
               "repro.experiments.fig03_stretch_cdf"),
    CatalogRow("fig04-gnm-comparison", ("fig04",),
               "repro.experiments.fig04_gnm_comparison"),
    CatalogRow("fig05-geometric-comparison", ("fig05",),
               "repro.experiments.fig05_geometric_comparison"),
    CatalogRow("fig06-shortcutting", ("fig06", "shortcutting"),
               "repro.experiments.fig06_shortcutting"),
    CatalogRow("fig07-state-bytes", ("fig07",),
               "repro.experiments.fig07_state_bytes"),
    CatalogRow("fig08-messaging", ("fig08", "messaging"),
               "repro.experiments.fig08_messaging"),
    CatalogRow("fig09-scaling", ("fig09", "scaling"),
               "repro.experiments.fig09_scaling"),
    CatalogRow("fig10-congestion-as", ("fig10",),
               "repro.experiments.fig10_congestion_as"),
    CatalogRow("addr-sizes", ("addr", "address-sizes"),
               "repro.experiments.addr_sizes"),
    CatalogRow("finger-study", ("fingers",),
               "repro.experiments.finger_study"),
    CatalogRow("estimate-error", ("estimate",),
               "repro.experiments.estimate_error"),
    CatalogRow("static-accuracy", ("accuracy",),
               "repro.experiments.static_accuracy"),
    CatalogRow("guarantees", ("theorems",),
               "repro.experiments.guarantees"),
    CatalogRow("churn-cost", ("churn",),
               "repro.experiments.churn_cost"),
    CatalogRow("resolution-latency", ("res-latency",),
               "repro.experiments.resolution_service"),
    CatalogRow("resolution-staleness", ("res-staleness",),
               "repro.experiments.resolution_service"),
    CatalogRow("resolution-balance", ("res-balance",),
               "repro.experiments.resolution_service"),
    CatalogRow("ablations", ("ablation",),
               "repro.experiments.ablations"),
)

#: Scenarios whose module has been imported, by id.
_REGISTRY: "dict[str, Scenario]" = {}


class UnknownScenarioError(KeyError):
    """Raised for an unknown scenario id; carries near-miss suggestions."""

    def __init__(self, scenario_id: str, suggestions: tuple[str, ...]) -> None:
        self.scenario_id = scenario_id
        self.suggestions = suggestions
        message = f"unknown experiment {scenario_id!r}"
        if suggestions:
            message += f"; did you mean: {', '.join(suggestions)}?"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ repr()s its argument
        return self.args[0]


class ScenarioLoadError(RuntimeError):
    """A catalog row did not yield its scenario.

    Either ``module`` failed to import (``cause`` is the exception it
    raised) or it imported without registering ``scenario_id`` (``cause``
    is ``None``).
    """

    def __init__(
        self, scenario_id: str, module: str, cause: BaseException | None
    ) -> None:
        self.scenario_id = scenario_id
        self.module = module
        self.cause = cause
        if cause is None:
            reason = "imported without registering it"
        else:
            reason = f"failed to import: {type(cause).__name__}: {cause}"
        super().__init__(
            f"cannot load experiment {scenario_id!r}: module {module} {reason}"
        )


def _enumeration_order() -> list[CatalogRow]:
    """The rows by module name: the order of every listing but ``repro list``.

    It is the order the registrations ran in while one alphabetical import
    list pulled every experiment in, and ``repro scenarios list``, a plan of
    everything and the substring suggestions have shown it ever since.
    """
    return sorted(CATALOG, key=lambda row: row.module)


def _row_for(name: str) -> CatalogRow | None:
    """The row ``name`` is the id or an alias of (no name is both)."""
    for row in CATALOG:
        if name == row.scenario_id or name in row.aliases:
            return row
    return None


def register(scenario: "Scenario") -> None:
    """Register ``scenario``, which must be what its catalog row says."""
    row = _row_for(scenario.scenario_id)
    if row is None or row.scenario_id != scenario.scenario_id:
        raise ValueError(
            f"scenario id {scenario.scenario_id!r} is not in "
            "repro.scenarios.registry.CATALOG; add a row for it"
        )
    if (scenario.aliases, scenario.module) != (row.aliases, row.module):
        raise ValueError(
            f"scenario {scenario.scenario_id!r} registers aliases "
            f"{scenario.aliases} from {scenario.module}, but its catalog "
            f"row says {row.aliases} from {row.module}"
        )
    _REGISTRY[scenario.scenario_id] = scenario


def _load(row: CatalogRow) -> "Scenario":
    scenario = _REGISTRY.get(row.scenario_id)
    if scenario is None:
        try:
            importlib.import_module(row.module)
        except Exception as cause:  # whatever the module's top level raises
            raise ScenarioLoadError(row.scenario_id, row.module, cause) from cause
        scenario = _REGISTRY.get(row.scenario_id)
        if scenario is None:
            raise ScenarioLoadError(row.scenario_id, row.module, None)
    return scenario


def all_scenarios() -> "list[Scenario]":
    """Every scenario, by module name; imports every experiment module."""
    return [_load(row) for row in _enumeration_order()]


def scenario_ids() -> list[str]:
    """Canonical scenario ids, in :func:`all_scenarios` order; no imports."""
    return [row.scenario_id for row in _enumeration_order()]


def resolve(scenario_id: str) -> "Scenario":
    """Resolve an id or alias to its :class:`Scenario`, importing its module.

    Raises
    ------
    UnknownScenarioError
        When neither an id nor an alias matches; the exception carries
        close-match suggestions for CLI error messages.
    ScenarioLoadError
        When the catalog row's module fails to import or does not register
        the id.
    """
    row = _row_for(scenario_id)
    if row is None:
        raise UnknownScenarioError(scenario_id, suggest(scenario_id))
    return _load(row)


def suggest(scenario_id: str, *, limit: int = 3) -> tuple[str, ...]:
    """Near-miss suggestions (ids and aliases) for a mistyped id."""
    rows = _enumeration_order()
    candidates = [row.scenario_id for row in rows] + [
        alias for row in rows for alias in row.aliases
    ]
    matches = difflib.get_close_matches(
        scenario_id, candidates, n=limit, cutoff=0.4
    )
    if not matches:
        # Fall back to prefix/substring matches ("fig0" -> the figure ids).
        lowered = scenario_id.lower()
        matches = [c for c in candidates if lowered in c.lower()][:limit]
    return tuple(matches)
