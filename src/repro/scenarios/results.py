"""Structured JSON serialization of scenario results.

Every experiment returns a frozen result dataclass built from primitives,
tuples, dicts, and the metric report dataclasses -- all of which serialize
mechanically.  :func:`to_jsonable` performs that recursive conversion, and
:func:`scenario_json` wraps one executed scenario into the stable document
``repro run --json-dir`` writes next to the text reports.

Determinism contract: the JSON for a scenario is a pure function of the
scenario and the scale -- no timestamps, host names, or worker counts --
so serial and parallel runs (and reruns) produce byte-identical files.
Run-level bookkeeping that may legitimately differ (wall-clock timings,
worker count) goes into the separate ``manifest.json``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentScale
    from repro.scenarios.spec import Scenario

__all__ = ["RESULT_SCHEMA", "to_jsonable", "scenario_json", "dump_json"]

#: Schema id embedded in every per-scenario JSON document.
RESULT_SCHEMA = "repro-scenario-result/v1"


def to_jsonable(value: object) -> object:
    """Convert a result object into JSON-serializable primitives.

    Dataclasses become objects keyed by field name, mappings become
    objects with stringified keys (sweep results are keyed by int), sets
    are sorted for determinism, enums collapse to their name, and
    non-finite floats are stringified (JSON has no ``inf``/``nan``).
    Any other type raises ``TypeError``: a result holds only these, so a
    value of another type is a bug in the scenario, not a string.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return [to_jsonable(item) for item in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    raise TypeError(f"no JSON form for a {type(value).__name__}: {value!r}")


def scenario_json(
    scenario: "Scenario",
    scale: "ExperimentScale",
    result: object,
    report: str,
) -> dict:
    """The stable per-scenario JSON document (see the module docstring)."""
    return {
        "schema": RESULT_SCHEMA,
        "id": scenario.scenario_id,
        "title": scenario.title,
        "family": list(scenario.family),
        "protocols": list(scenario.protocols),
        "metrics": list(scenario.metrics),
        "workload": scenario.workload,
        "aliases": list(scenario.aliases),
        "scale": to_jsonable(scale),
        "result": to_jsonable(result),
        "report": report,
    }


def dump_json(document: dict) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline EOF."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
