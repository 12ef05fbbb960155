"""Judge two result sets by the bounds fixed in ``BENCHMARK.json``.

A result set is the ``results.json`` that ``python3 -m bench run`` writes:
per workload and end-to-end metric, one value per measurement run.  Set A
is the parent, set B the change.
"""

from __future__ import annotations

import statistics

from bench.harness import summarize

__all__ = ["compare_sets", "verdict"]


def _spread(values: list[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    summary = summarize(values)
    return (summary["q3"] - summary["q1"]) / summary["value"]


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> str:
    """``same``, ``worse``, ``better`` or ``unresolved`` for one metric.

    * ``unresolved``: either side's run-to-run spread is wider than the
      bound, so a move of that size cannot be told from noise -- unless
      every run of B reads better than every run of A (``better``).
    * ``worse``: B's median is worse than A's by more than the bound.
    * ``better``: B's median is better than A's by more than A's own
      quartile distance and every run of B beats A's median.
    * ``same``: anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a = statistics.median(a)
    median_b = statistics.median(b)
    # > 0 when B is worse, as a share of A's median.
    worsening = sign * (median_b - median_a) / median_a
    separated = max(sign * v for v in b) < min(sign * v for v in a)
    if max(_spread(a), _spread(b)) > bound:
        return "better" if separated else "unresolved"
    if worsening > bound:
        return "worse"
    beats_median = all(sign * v < sign * median_a for v in b)
    if -worsening > _spread(a) and beats_median:
        return "better"
    return "same"


def compare_sets(spec: dict, set_a: dict, set_b: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both sets.

    Raises ``ValueError`` for sets measured differently: run length, run
    count and sizes are the benchmark's, the same on both commits.
    """
    for key in ("seconds", "runs"):
        if set_a[key] != set_b[key]:
            raise ValueError(f"sets differ in {key}: {set_a[key]} / {set_b[key]}")
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        block_a = set_a["workloads"].get(name)
        block_b = set_b["workloads"].get(name)
        if block_a is None or block_b is None:
            continue
        if block_a["sizes"] != block_b["sizes"]:
            raise ValueError(f"sets differ in the sizes of {name}")
        for metric in spec["end_to_end"]:
            a = block_a["end_to_end"][metric["name"]]["values"]
            b = block_b["end_to_end"][metric["name"]]["values"]
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": statistics.median(a),
                    "b": statistics.median(b),
                    "spread_a": _spread(a),
                    "spread_b": _spread(b),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        a, b, better=metric["better"], bound=metric["bound"]
                    ),
                    "same_digest": block_a["digests"] == block_b["digests"],
                }
            )
    return rows
