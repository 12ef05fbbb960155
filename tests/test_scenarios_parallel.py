"""Determinism under sharding: parallel output is byte-identical to serial.

This is the differential test backing ``repro run --workers N``: a serial
run and a 2-worker process-pool run (scenarios *and* shards fanned out,
artifact cache shared on disk) execute the same task list, and must
produce byte-identical JSON documents and text reports.  Every sharded
scenario's document is also held to a frozen digest (:data:`GOLDEN`), so
the two runs cannot drift together.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from oracles.replay import replay_bills
from repro.core.landmarks import select_landmarks
from repro.dynamics.stream import generate_churn_workload
from repro.experiments import churn_cost
from repro.experiments.config import ExperimentScale
from repro.experiments.workloads import sweep_gnm
from repro.scenarios.engine import run_scenarios

TINY = ExperimentScale(
    comparison_nodes=64,
    large_nodes=64,
    as_level_nodes=64,
    router_level_nodes=72,
    pair_sample=40,
    messaging_sweep=(20, 24),
    scaling_sweep=(40, 48),
    seed=17,
    label="tiny-parallel",
)

# A fast subset that exercises both shard shapes (topology panels and a
# scale-dependent sweep) plus an unsharded scenario.
SUBSET = ["fig02-state-cdf", "fig09-scaling", "addr-sizes"]

#: sha256 of each sharded scenario's ``<id>.json`` at :data:`TINY`,
#: computed at commit 4f8ecdd through the hand-written serial bodies the
#: scenarios had then: for fig04 and fig05 one five-protocol
#: ``StaticSimulation`` sharing a substrate, for ablations the four studies
#: inline.  Every serial and 2-worker run below is checked against them.
GOLDEN = {
    "ablations": "57edb263483bebde297bf215958993b99bd546cbec65286a976eb54a0e508466",
    "churn-cost": "f9800dc9c82a9364c9f54927acb6eebc5d2dcbe5671372af099ad5d225a7f448",
    "fig02-state-cdf": "8c0ab4ca5791bf0af8ed99a948f5a8d85c75e3922092e1d181cdfc0db02d5ee3",
    "fig03-stretch-cdf": "fda01c70c000dfa8e6e892e355661af6438c445eed4bcaa0225cdec3a8f2d545",
    "fig04-gnm-comparison": "4695864e650aeb8d604481e77202ae9b3f9ba6b115b453cbd857e2d63cff5e77",
    "fig05-geometric-comparison": "99105b256a0fd7bf9fce506150aaf81553343a03232d6d2479f03b615b57a37f",
    "fig06-shortcutting": "c6d4f73e2987b9e68c69fbcedb952a1f9c1eb62ab8ccd500e4a9e22faa61bd0d",
    "fig08-messaging": "1ffbca11d74bbf8717062f7e778d3e2ba9d9567fc3909efc9f9c6976a033e686",
    "fig09-scaling": "b2abb5297c70874daa506b2963f7514a7449b66d57bc015439486d8b023ae2e9",
    "resolution-latency": "0cd9305b0e42d43e80c75931008dcaebc3d5c23d7be42bcfc2311ac2cffa6b28",
    "resolution-staleness": "b60d70b41bec3688dbcc2e74b2df946423e21158b3bbff82604e1cff4921709e",
    "resolution-balance": "4c947927ce0c45eb4515c5175cb5c79562ba855638ade7d2f8542efe01cd4786",
}


def assert_serial_parallel_golden(serial_dir, parallel_dir, scenario_ids):
    """Both runs wrote the same bytes, the golden ones where frozen, and
    booked the same number of tasks per scenario."""
    serial_manifest = json.loads((serial_dir / "manifest.json").read_text())
    parallel_manifest = json.loads(
        (parallel_dir / "manifest.json").read_text()
    )
    for scenario_id in scenario_ids:
        serial_bytes = (serial_dir / f"{scenario_id}.json").read_bytes()
        parallel_bytes = (parallel_dir / f"{scenario_id}.json").read_bytes()
        assert parallel_bytes == serial_bytes, scenario_id
        if scenario_id in GOLDEN:
            digest = hashlib.sha256(serial_bytes).hexdigest()
            assert digest == GOLDEN[scenario_id], scenario_id
        tasks = serial_manifest["scenarios"][scenario_id]["tasks"]
        assert parallel_manifest["scenarios"][scenario_id]["tasks"] == tasks


class TestDeterminismUnderSharding:
    def test_workers_produce_byte_identical_json_and_reports(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_scenarios(
            SUBSET, scale=TINY, workers=1, json_dir=serial_dir, cache=None
        )
        parallel = run_scenarios(
            SUBSET,
            scale=TINY,
            workers=2,
            json_dir=parallel_dir,
            cache=tmp_path / "cache",
        )
        for scenario_id in SUBSET:
            assert parallel[scenario_id].report == serial[scenario_id].report
        assert_serial_parallel_golden(serial_dir, parallel_dir, SUBSET)

    def test_protocol_shards_are_byte_identical(self, tmp_path):
        """Figs. 4/5 (per-protocol) and ablations (per-study) shards must
        reproduce the single-simulation output byte for byte."""
        subset = [
            "fig04-gnm-comparison",
            "fig05-geometric-comparison",
            "ablations",
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_scenarios(
            subset, scale=TINY, workers=1, json_dir=serial_dir, cache=None
        )
        parallel = run_scenarios(
            subset,
            scale=TINY,
            workers=2,
            json_dir=parallel_dir,
            cache=tmp_path / "cache",
        )
        for scenario_id in subset:
            assert parallel[scenario_id].report == serial[scenario_id].report
        assert_serial_parallel_golden(serial_dir, parallel_dir, subset)

    def test_remaining_sharded_scenarios_match_golden(self, tmp_path):
        """The sharded scenarios no other test here runs: topology
        columns/panels and the three resolution studies."""
        subset = [
            "fig03-stretch-cdf",
            "fig06-shortcutting",
            "resolution-latency",
            "resolution-staleness",
            "resolution-balance",
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_scenarios(
            subset, scale=TINY, workers=1, json_dir=serial_dir, cache=None
        )
        run_scenarios(
            subset,
            scale=TINY,
            workers=2,
            json_dir=parallel_dir,
            cache=tmp_path / "cache",
        )
        assert_serial_parallel_golden(serial_dir, parallel_dir, subset)

    def test_manifest_records_run_bookkeeping(self, tmp_path):
        run_scenarios(
            ["addr-sizes"],
            scale=TINY,
            workers=2,
            json_dir=tmp_path,
            cache=None,
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["workers"] == 2
        assert manifest["scale_label"] == "tiny-parallel"
        assert "addr-sizes" in manifest["scenarios"]
        # Cache off: the per-scenario counts are explicitly null.
        assert manifest["scenarios"]["addr-sizes"]["cache"] is None

    def test_manifest_records_per_scenario_cache_counts(self, tmp_path):
        run_scenarios(
            ["addr-sizes", "fig07-state-bytes"],
            scale=TINY,
            workers=1,
            json_dir=tmp_path / "json",
            cache=tmp_path / "cache",
        )
        manifest = json.loads(
            (tmp_path / "json" / "manifest.json").read_text()
        )
        per_scenario = manifest["scenarios"]
        totals = [0, 0]
        for entry in per_scenario.values():
            assert entry["cache"]["hits"] >= 0
            assert entry["cache"]["misses"] >= 0
            totals[0] += entry["cache"]["hits"]
            totals[1] += entry["cache"]["misses"]
        # Per-scenario counts must sum to the run totals, and fig07 must
        # have hit the router-level substrate addr-sizes already built.
        assert totals == [manifest["cache"]["hits"], manifest["cache"]["misses"]]
        assert manifest["cache"]["hits"] >= 1

    def test_warm_disk_cache_keeps_output_identical(self, tmp_path):
        cache_root = tmp_path / "cache"
        cold = run_scenarios(
            ["fig02-state-cdf"], scale=TINY, workers=2, cache=cache_root
        )
        warm = run_scenarios(
            ["fig02-state-cdf"], scale=TINY, workers=2, cache=cache_root
        )
        assert (
            warm["fig02-state-cdf"].report == cold["fig02-state-cdf"].report
        )


class TestChurnScenarioSharding:
    """The churn engine lifted churn-cost's serial-by-design pin: its trial
    and event-segment shards (state handoff at segment boundaries) must be
    byte-identical to the serial run for any worker count, alongside the
    fig08 convergence sweep it extends."""

    SUBSET = ["churn-cost", "fig08-messaging"]

    def test_churn_shards_byte_identical_with_cache_parity(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_scenarios(
            self.SUBSET,
            scale=TINY,
            workers=1,
            json_dir=serial_dir,
            cache=tmp_path / "cache-serial",
        )
        parallel = run_scenarios(
            self.SUBSET,
            scale=TINY,
            workers=2,
            json_dir=parallel_dir,
            cache=tmp_path / "cache-parallel",
        )
        for scenario_id in self.SUBSET:
            assert parallel[scenario_id].report == serial[scenario_id].report
        assert_serial_parallel_golden(serial_dir, parallel_dir, self.SUBSET)
        # Manifest bookkeeping: the fan-out makes the same artifact
        # requests per scenario (hit/miss totals match; the cold split is
        # schedule-dependent when two workers race the same prerequisite),
        # and against a warm cache the counts are fully deterministic and
        # identical between serial and parallel runs.
        serial_manifest = json.loads(
            (serial_dir / "manifest.json").read_text()
        )
        parallel_manifest = json.loads(
            (parallel_dir / "manifest.json").read_text()
        )
        for scenario_id in self.SUBSET:
            serial_cache = serial_manifest["scenarios"][scenario_id]["cache"]
            parallel_cache = parallel_manifest["scenarios"][scenario_id][
                "cache"
            ]
            assert sum(parallel_cache.values()) == sum(serial_cache.values())
        warm_serial_dir = tmp_path / "warm-serial"
        warm_parallel_dir = tmp_path / "warm-parallel"
        run_scenarios(
            self.SUBSET,
            scale=TINY,
            workers=1,
            json_dir=warm_serial_dir,
            cache=tmp_path / "cache-serial",
        )
        run_scenarios(
            self.SUBSET,
            scale=TINY,
            workers=2,
            json_dir=warm_parallel_dir,
            cache=tmp_path / "cache-parallel",
        )
        warm_serial = json.loads(
            (warm_serial_dir / "manifest.json").read_text()
        )
        warm_parallel = json.loads(
            (warm_parallel_dir / "manifest.json").read_text()
        )
        for scenario_id in self.SUBSET:
            assert (
                warm_parallel["scenarios"][scenario_id]["cache"]
                == warm_serial["scenarios"][scenario_id]["cache"]
            )
            assert (warm_parallel_dir / f"{scenario_id}.json").read_bytes() == (
                serial_dir / f"{scenario_id}.json"
            ).read_bytes()

    def test_event_engine_matches_replay_oracle_json(self, tmp_path):
        """The churn-cost scenario's per-event bills (event engine, sharded
        by segment over two workers) equal the replay oracle's -- per-event
        full reconvergence plus a state diff -- on the same workload, run
        unsharded."""
        run_scenarios(
            ["churn-cost"],
            scale=TINY,
            workers=2,
            json_dir=tmp_path,
            cache=tmp_path / "cache",
        )
        result = json.loads((tmp_path / "churn-cost.json").read_text())["result"]

        num_nodes = churn_cost._scenario_nodes(TINY)
        topology = sweep_gnm(num_nodes, TINY.seed)
        events = generate_churn_workload(
            topology,
            num_events=churn_cost.DEFAULT_NUM_EVENTS,
            seed=churn_cost._trial_seed(TINY, 0),
        )
        bills = replay_bills(
            topology,
            events,
            seed=TINY.seed,
            landmarks=select_landmarks(num_nodes, seed=TINY.seed),
        )
        assert result["trials"] == 1
        assert result["per_event"] == [
            dataclasses.asdict(bill) for bill in bills
        ]
