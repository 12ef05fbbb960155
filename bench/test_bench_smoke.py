"""Every workload, at toy sizes, through the same code path the driver uses.

The size tables below are the only way to shrink a workload: there is no
command-line flag or environment variable for it.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.graphs import _ckernels

from bench import harness
from bench.workloads import WORKLOADS
from bench.workloads.base import SCRATCH_ROOT

pytestmark = pytest.mark.skipif(
    _ckernels.load_kernels() is None,
    reason="the benchmark refuses to measure the pure-Python kernel tier",
)

TOY_SIZES = {
    "converge": {"nodes": 256, "check_nodes": 16},
    "route": {"nodes": 128, "pairs": 40, "check_pairs": 10},
    "churn_edge": {"nodes": 96, "events": 6},
    "churn_node": {"nodes": 96, "events": 4},
    "resolve": {"nodes": 128, "lookups": 400, "ticks": 32, "ring_probes": 200},
    "suite_cold": {"nodes": 48, "scale": 0.03},
    "suite_warm": {"nodes": 48, "scale": 0.03},
}

SPEC = harness.load_spec()


def _scratch_entries() -> set[str]:
    return set(os.listdir(SCRATCH_ROOT)) if os.path.isdir(SCRATCH_ROOT) else set()


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TOY_SIZES) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_named_metric(name, tmp_path):
    scratch_before = _scratch_entries()
    result = harness.measure(
        name,
        seed=2010,
        seconds=0.0,
        trace=True,
        sizes=TOY_SIZES[name],
        out_dir=str(tmp_path),
    )
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_share == 0
    assert result["checked"] >= 1 and result["check_failures"] == 0

    for mode, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(harness.contract_line(result, mode))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        # Every named metric, and no unnamed one.
        assert set(line["metrics"]) == {entry["name"] for entry in SPEC[key]}
        for entry in SPEC[key]:
            metric = line["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert math.isfinite(metric["value"])
    for metric in result["end_to_end"].values():
        assert metric["value"] > 0  # end-to-end metrics are never 0

    # The layers account for the timed section they were recorded in.
    timed = result["layers"]["timed"]
    assert timed["count"] >= 1
    attributed = sum(
        layer["share"] for key, layer in result["layers"].items() if key != "timed"
    )
    assert attributed + timed["share"] == pytest.approx(1.0)

    with open(tmp_path / f"trace-{name}.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["workload"] == name
    assert {"name", "start", "end", "parent", "workload"} <= set(trace["spans"][0])

    # The work tree is left clean.
    assert _scratch_entries() <= scratch_before


def test_untraced_run_reports_no_layers():
    result = harness.measure(
        "churn_edge", seed=7, seconds=0.0, trace=False,
        sizes=TOY_SIZES["churn_edge"],
    )  # fmt: skip
    assert "per_layer" not in result
    assert result["repeats"] == harness.MIN_REPEATS
    assert result["end_to_end"]["work_s"]["n"] == harness.MIN_REPEATS
