#!/usr/bin/env python3
"""Validate a ``repro run --json-dir`` output directory.

Usage: ``python tools/check_scenario_json.py <json-dir>``

Checks every ``*.json`` scenario document against the stable result schema
(``repro-scenario-result/v1``): required keys, schema id, filename/id
agreement, non-empty report and result, and a well-formed manifest.  Used
by the CI scenario-engine smoke leg; exits non-zero with a per-file error
listing on any violation.  No third-party dependencies.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULT_SCHEMA = "repro-scenario-result/v1"
MANIFEST_SCHEMA = "repro-scenario-manifest/v2"

REQUIRED_KEYS = {
    "schema": str,
    "id": str,
    "title": str,
    "family": list,
    "protocols": list,
    "metrics": list,
    "workload": str,
    "aliases": list,
    "scale": dict,
    "result": (dict, list),
    "report": str,
}


def check_scenario_document(path: Path) -> list[str]:
    errors: list[str] = []
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path.name}: unreadable JSON ({error})"]
    for key, expected_type in REQUIRED_KEYS.items():
        if key not in document:
            errors.append(f"{path.name}: missing key {key!r}")
        elif not isinstance(document[key], expected_type):
            errors.append(
                f"{path.name}: key {key!r} has type "
                f"{type(document[key]).__name__}"
            )
    if errors:
        return errors
    if document["schema"] != RESULT_SCHEMA:
        errors.append(
            f"{path.name}: schema {document['schema']!r} != {RESULT_SCHEMA!r}"
        )
    if document["id"] != path.stem:
        errors.append(
            f"{path.name}: id {document['id']!r} does not match filename"
        )
    if not document["report"].strip():
        errors.append(f"{path.name}: empty report")
    if not document["result"]:
        errors.append(f"{path.name}: empty result")
    if "label" not in document["scale"]:
        errors.append(f"{path.name}: scale has no label")
    if document["id"].startswith("resolution-"):
        errors.extend(check_resolution_result(path.name, document))
    return errors


def _check_cdf(label: str, cdf: object) -> list[str]:
    """A CDF is a list of [value, fraction] pairs, both monotone
    non-decreasing, fractions in (0, 1] and ending at exactly 1.0
    (empty lists are allowed: e.g. no ring lookups means no hop CDF)."""
    if not isinstance(cdf, list):
        return [f"{label} is not a list"]
    errors: list[str] = []
    previous_value = previous_fraction = float("-inf")
    for index, point in enumerate(cdf):
        if (
            not isinstance(point, list)
            or len(point) != 2
            or not all(isinstance(part, (int, float)) for part in point)
        ):
            errors.append(f"{label}[{index}] is not a [value, fraction] pair")
            return errors
        value, fraction = point
        if value < previous_value:
            errors.append(f"{label}[{index}] value decreases")
        if fraction <= previous_fraction:
            errors.append(f"{label}[{index}] fraction does not increase")
        if not 0.0 < fraction <= 1.0:
            errors.append(f"{label}[{index}] fraction {fraction!r} outside (0, 1]")
        previous_value, previous_fraction = value, fraction
    if cdf and cdf[-1][1] != 1.0:
        errors.append(f"{label} does not end at fraction 1.0")
    return errors


def _check_histogram(label: str, histogram: object) -> list[str]:
    if not isinstance(histogram, dict):
        return [f"{label} is not an object"]
    errors: list[str] = []
    for shard, count in histogram.items():
        if not isinstance(count, int) or count < 0:
            errors.append(f"{label}[{shard}] has bad count {count!r}")
    return errors


def check_resolution_result(name: str, document: dict) -> list[str]:
    """Validate the ``resolution-*`` scenario payloads beyond the generic
    schema: CDF arrays monotone and properly terminated, histograms
    non-negative, and the lookup-outcome counts internally consistent --
    the invariants the shard merge must preserve for ``--workers N`` to
    stay byte-identical."""
    result = document["result"]
    if not isinstance(result, dict):
        return [f"{name}: resolution result is not an object"]
    errors: list[str] = []
    scenario_id = document["id"]
    if scenario_id == "resolution-latency":
        for key in ("latency_cdf", "hop_cdf"):
            errors.extend(_check_cdf(f"{name}: {key}", result.get(key)))
        counts = [result.get(k) for k in ("group_hits", "ring_hits", "misses")]
        if all(isinstance(c, int) and c >= 0 for c in counts):
            if sum(counts) != result.get("lookups"):
                errors.append(
                    f"{name}: outcome counts do not sum to lookups"
                )
        else:
            errors.append(f"{name}: bad lookup-outcome counts")
        if "cache_stats" in result:
            errors.append(f"{name}: carries cache_stats (there is no cache)")
    elif scenario_id == "resolution-staleness":
        for index, row in enumerate(result.get("rows", []) or []):
            label = f"{name}: rows[{index}]"
            errors.extend(
                _check_cdf(f"{label}.staleness_cdf", row.get("staleness_cdf"))
            )
            miss_rate = row.get("miss_rate")
            if not isinstance(miss_rate, (int, float)) or not 0 <= miss_rate <= 1:
                errors.append(f"{label} has bad miss_rate {miss_rate!r}")
    elif scenario_id == "resolution-balance":
        for index, row in enumerate(result.get("rows", []) or []):
            label = f"{name}: rows[{index}]"
            for key in ("storage_histogram", "served_histogram"):
                errors.extend(_check_histogram(f"{label}.{key}", row.get(key)))
            for key in ("storage_imbalance", "served_imbalance"):
                value = row.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{label} has bad {key} {value!r}")
    return errors


def check_manifest(path: Path) -> list[str]:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path.name}: unreadable JSON ({error})"]
    errors = []
    if manifest.get("schema") != MANIFEST_SCHEMA:
        errors.append(f"{path.name}: bad schema {manifest.get('schema')!r}")
    scenarios = manifest.get("scenarios")
    if not isinstance(scenarios, dict):
        errors.append(f"{path.name}: missing scenarios map")
        return errors
    run_cache = manifest.get("cache")
    for scenario_id, entry in scenarios.items():
        label = f"{path.name}: scenario {scenario_id!r}"
        if not isinstance(entry, dict):
            errors.append(f"{label} is not an object")
            continue
        seconds = entry.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            errors.append(f"{label} has bad seconds {seconds!r}")
        tasks = entry.get("tasks")
        if not isinstance(tasks, int) or tasks < 1:
            errors.append(f"{label} has bad tasks {tasks!r}")
        if "cache" not in entry:
            errors.append(f"{label} is missing cache hit/miss counts")
            continue
        cache = entry["cache"]
        if run_cache is None:
            if cache is not None:
                errors.append(
                    f"{label} has cache counts but the run had no cache"
                )
            continue
        if not isinstance(cache, dict):
            errors.append(f"{label} cache is not an object")
            continue
        for field in ("hits", "misses"):
            value = cache.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"{label} has bad cache {field} {value!r}")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    directory = Path(argv[1])
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    documents = sorted(directory.glob("*.json"))
    manifest = directory / "manifest.json"
    scenario_documents = [p for p in documents if p != manifest]
    if not scenario_documents:
        print(f"no scenario JSON documents in {directory}", file=sys.stderr)
        return 1
    errors: list[str] = []
    for path in scenario_documents:
        errors.extend(check_scenario_document(path))
    if manifest.exists():
        errors.extend(check_manifest(manifest))
    for error in errors:
        print(f"SCHEMA ERROR: {error}", file=sys.stderr)
    if errors:
        return 1
    print(
        f"ok: {len(scenario_documents)} scenario document(s) valid"
        f"{' + manifest' if manifest.exists() else ''}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
