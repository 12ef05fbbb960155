"""The checkers catch corrupted outputs, and ``compare`` gives four verdicts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.graphs.topology import Topology

from bench import harness
from bench.compare import compare_sets, verdict
from bench.trace import SPAN_CAP, TIMED, Recorder
from bench.workloads import churn, converge, resolve, route, suite
from bench.workloads.base import Repeat


def failed_share(workload, state, repeat: Repeat) -> float:
    """``failed / attempted`` of a single repeat, as the harness counts it."""
    _, bad = workload.check(state, repeat)
    runs = [(repeat.digest, repeat.ops)]
    rejected = repeat.digest if bad else None
    return harness.count_failed(runs, repeat.digest, rejected) / repeat.ops


# -- all workloads: the digest --------------------------------------------


def test_digest_that_differs_between_repeats_fails_that_repeat():
    runs = [("aaa", 10), ("bbb", 10), ("aaa", 10)]
    assert harness.count_failed(runs, "aaa", None) == 10
    assert harness.count_failed(runs, "aaa", "aaa") == 30
    assert harness.count_failed([("aaa", 10)], "aaa", None) == 0


# -- all workloads: reference speed ---------------------------------------


def test_each_piece_of_a_repeat_is_scaled_by_the_spins_around_it():
    ref = harness.SPIN_REFERENCE_S
    assert harness.at_reference_speed([2.0], [ref, ref]) == pytest.approx(2.0)
    # A host twice as slow for the second piece only.
    scaled = harness.at_reference_speed([1.0, 2.0], [ref, 1.5 * ref, 2.5 * ref])
    assert scaled == pytest.approx(1.0 / 1.25 + 2.0 / 2.0)


# -- converge ---------------------------------------------------------------


def test_converge_rejects_wrong_vicinity_and_landmark_distance():
    true = {0: 0.0, 1: 1.0, 2: 2.0, 9: 3.0}
    good = {0: 0.0, 1: 1.0, 2: 2.0}
    assert converge.check_node(3, good, 9, 3.0, true)
    assert not converge.check_node(4, good, 9, 3.0, true)  # too small
    assert not converge.check_node(3, {**good, 2: 2.5}, 9, 3.0, true)
    assert not converge.check_node(3, good, 9, 4.0, true)


# -- route ------------------------------------------------------------------


def test_route_rejects_a_path_with_a_non_edge_hop():
    line = Topology.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert route.bad_paths(line, [(0, 3, [0, 1, 2, 3])]) == 0
    assert route.bad_paths(line, [(0, 3, [0, 2, 3])]) == 1  # 0-2 is no edge
    assert route.bad_paths(line, [(0, 3, [0, 1, 2])]) == 1  # stops short
    assert route.bad_paths(line, [(0, 3, [1, 2, 3])]) == 1  # wrong source


def test_route_rejects_a_disco_later_stretch_of_3_5():
    assert route.bad_stretches("disco", [6.9], [3.0]) == 0
    assert route.bad_stretches("disco", [6.9], [3.5]) == 1
    assert route.bad_stretches("disco", [7.5], [1.0]) == 1
    assert route.bad_stretches("s4", [25.0], [3.0]) == 0  # first is unbounded
    assert route.bad_stretches("nddisco", [1.0], [3.5]) == 1


# -- churn ------------------------------------------------------------------


def test_churn_rejects_a_perturbed_signature():
    workload = churn.NODE
    sizes = {**workload.SIZES, "nodes": 64, "events": 4}
    rec = Recorder(workload.NAME)
    state = workload.setup(3, sizes, rec)
    repeat = workload.repeat(state, rec)
    assert failed_share(workload, state, repeat) == 0
    engine, reports, signature = repeat.output
    closest = list(signature[1])
    closest[0] = (closest[0] + 1) % 64
    perturbed = (signature[0], tuple(closest), *signature[2:])
    corrupted = dataclasses.replace(repeat, output=(engine, reports, perturbed))
    assert failed_share(workload, state, corrupted) > 0


# -- resolve ----------------------------------------------------------------


def test_resolve_rejects_a_lookup_count_that_does_not_conserve():
    sizes = {**resolve.SIZES, "nodes": 96, "lookups": 200, "ticks": 32}
    rec = Recorder("resolve")
    state = resolve.setup(3, sizes, rec)
    repeat = resolve.repeat(state, rec)
    assert failed_share(resolve, state, repeat) == 0
    report = repeat.output
    for broken in (
        dataclasses.replace(report, misses=report.misses + 1),
        dataclasses.replace(report, latencies=report.latencies[1:]),
        dataclasses.replace(report, shard_loads={0: report.ring_hits + 1}),
    ):
        corrupted = dataclasses.replace(repeat, output=broken)
        assert failed_share(resolve, state, corrupted) > 0


# -- suite ------------------------------------------------------------------


def test_suite_rejects_a_non_zero_exit_and_a_cold_warm_difference(tmp_path):
    docs = {"fig02-state-cdf.json": b"{}"}
    missed = suite.ChildRun(0, docs, {"cache": {"hits": 0, "misses": 4}})
    hit = suite.ChildRun(0, docs, {"cache": {"hits": 4, "misses": 0}})
    assert suite.failures(missed, docs, True, warm=False) == []
    assert suite.failures(hit, docs, True, warm=True) == []
    assert suite.failures(missed, docs, True, warm=True)  # only cold may miss
    assert suite.failures(suite.ChildRun(3, docs, hit.manifest), docs, True, warm=True)
    assert suite.failures(hit, {"x.json": b"[]"}, True, warm=True)
    assert suite.failures(hit, docs, False, warm=True)

    state = suite.State(str(tmp_path), "", str(tmp_path / "cache"), {}, docs)
    crashed = Repeat(seconds=1.0, ops=1, digest="d", output=suite.ChildRun(1, {}, {}))
    assert failed_share(suite.COLD, state, crashed) > 0


# -- the recorder -----------------------------------------------------------


def test_self_time_is_span_minus_children_and_disabled_spans_vanish():
    rec = Recorder("w")
    with rec.span("ignored"):
        pass
    assert rec.layers == {} and rec.spans == []
    rec.enabled = True
    with rec.span(TIMED) as timed:
        with rec.span("layer") as layer:
            rec.add("phase", 0.25)
    table = rec.layer_table()
    assert table["phase"]["self_s"] == 0.25
    assert table["layer"]["self_s"] == pytest.approx(layer.seconds - 0.25)
    assert table[TIMED]["self_s"] == pytest.approx(timed.seconds - layer.seconds)
    assert sum(entry["share"] for entry in table.values()) == pytest.approx(1.0)
    parents = {span["name"]: span["parent"] for span in rec.spans}
    ids = {span["name"]: span["id"] for span in rec.spans}
    assert parents == {"phase": ids["layer"], "layer": ids[TIMED], TIMED: None}


def test_spans_beyond_the_cap_live_on_as_aggregates():
    rec = Recorder("w")
    rec.enabled = True
    for _ in range(SPAN_CAP + 5):
        rec.add("hot", 0.001)
    assert len(rec.spans) == SPAN_CAP
    assert rec.count("hot") == SPAN_CAP + 5
    assert rec.total("hot") == pytest.approx(0.001 * (SPAN_CAP + 5))


# -- compare ----------------------------------------------------------------

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


def test_the_four_verdicts():
    def scaled(factor):
        return [value * factor for value in STEADY]

    assert verdict(STEADY, scaled(1.005), better="lower", bound=0.10) == "same"
    assert verdict(STEADY, scaled(1.20), better="lower", bound=0.10) == "worse"
    assert verdict(STEADY, scaled(0.80), better="lower", bound=0.10) == "better"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9, 1.5]
    assert verdict(noisy, noisy[::-1], better="lower", bound=0.10) == "unresolved"
    # Wide spread, yet every run of B beats every run of A.
    assert verdict(noisy, scaled(0.5), better="lower", bound=0.10) == "better"
    # Direction flips for a higher-is-better metric.
    assert verdict(STEADY, scaled(0.80), better="higher", bound=0.10) == "worse"
    assert verdict(STEADY, scaled(1.20), better="higher", bound=0.10) == "better"


def test_compare_sets_judges_every_workload_and_metric():
    spec = harness.load_spec()

    def result_set(factor, digest):
        block = {
            "sizes": {"nodes": 64},
            "digests": [digest],
            "end_to_end": {
                metric["name"]: {"values": [v * factor for v in STEADY]}
                for metric in spec["end_to_end"]
            },
        }
        workloads = {w["name"]: block for w in spec["workloads"]}
        return {"seconds": 12, "runs": len(STEADY), "workloads": workloads}

    rows = compare_sets(spec, result_set(1.0, "d"), result_set(1.0, "d"))
    assert len(rows) == len(spec["workloads"]) * len(spec["end_to_end"])
    assert {row["verdict"] for row in rows} == {"same"}
    assert all(row["same_digest"] for row in rows)
    rows = compare_sets(spec, result_set(1.0, "d"), result_set(1.5, "e"))
    assert {row["verdict"] for row in rows} == {"worse"}
    assert not any(row["same_digest"] for row in rows)
    # Sets measured for different lengths are refused, not judged.
    longer = {**result_set(1.0, "d"), "seconds": 60}
    with pytest.raises(ValueError, match="seconds"):
        compare_sets(spec, result_set(1.0, "d"), longer)
