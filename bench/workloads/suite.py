"""``suite_cold`` and ``suite_warm``: the literal ``repro run`` command.

A subprocess per repeat, wall clock of the child: interpreter start,
imports, registry, the real-topology panel, the artifact store and the
reports (``scenarios.engine``/``cache``, ``experiments``, ``staticsim``).
Set-up writes the topology file and runs the command once, which fills the
cache directory and yields the documents every later child must reproduce.
``suite_cold`` then empties the cache before every child, the artifact
cache's write path; ``suite_warm`` times its read path, where validation
on attach would land.  (Set-up is the same for both: writing the file alone
takes 3 ms, too little to measure -- its median moved by 20 % between two
passes.)  ``--workers 1``: process-pool fan-out is out of scope on a
two-core box.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

from repro.graphs.generators import internet_router_level
from repro.graphs.io import write_edge_list

from bench.trace import TIMED
from bench.workloads.base import (
    Repeat,
    make_scratch,
    median_s,
    remove_scratch,
    sha256_of,
)

_SCENARIOS = ("fig02", "fig03", "fig07")
_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
_CHILD_TIMEOUT_S = 150


@dataclass
class ChildRun:
    """What one ``repro run`` child left behind."""

    returncode: int
    docs: dict  # file name -> bytes of every scenario document
    manifest: dict


@dataclass
class State:
    scratch: str
    topology_file: str
    cache_dir: str
    env: dict
    reference_docs: dict | None = None  # of the set-up run that filled the cache


def failures(
    run: ChildRun, reference_docs: dict, schema_ok: bool, warm: bool
) -> list[str]:
    """Why a child run is wrong (empty when it is right)."""
    reasons = []
    if run.returncode != 0:
        reasons.append(f"exit code {run.returncode}")
    if not run.docs or run.docs != reference_docs:
        reasons.append("documents differ from the set-up run's")
    if not schema_ok:
        reasons.append("tools/check_scenario_json.py rejected the documents")
    if warm and run.manifest.get("cache", {}).get("misses") != 0:
        reasons.append("warm run missed the cache")
    return reasons


def _disk_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


class Suite:
    """The workload over one state of the artifact cache."""

    def __init__(self, phase: str) -> None:
        self.NAME = f"suite_{phase}"
        self.SIZES = {"nodes": 384, "scale": 0.25}
        self.phase = phase

    def setup(self, seed: int, sizes: dict, rec) -> State:
        scratch = make_scratch(self.NAME)
        topology_file = os.path.join(scratch, "topology.edges")
        write_edge_list(
            internet_router_level(sizes["nodes"], seed=seed), topology_file
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(_ROOT, "src"),
            REPRO_SCALE=str(sizes["scale"]),
            TMPDIR=scratch,
        )
        env.pop("REPRO_CACHE_DIR", None)
        state = State(scratch, topology_file, os.path.join(scratch, "cache"), env)
        state.reference_docs = self._run_child(state, rec, "fill").docs
        return state

    def _run_child(self, state: State, rec, phase: str) -> ChildRun:
        """One ``repro run``; books the manifest's own timings as child spans."""
        json_dir = os.path.join(state.scratch, "json")
        shutil.rmtree(json_dir, ignore_errors=True)
        # Paths relative to the child's working directory, the scratch
        # directory: the documents quote the topology path, and its random
        # name must not reach the digest.
        command = [
            sys.executable, "-m", "repro", "run", *_SCENARIOS,
            "--topology-file", os.path.basename(state.topology_file),
            "--cache-dir", os.path.basename(state.cache_dir),
            "--json-dir", os.path.basename(json_dir),
            "--workers", "1",
        ]  # fmt: skip
        with rec.span(f"scenarios.{phase}"):
            completed = subprocess.run(
                command,
                env=state.env,
                cwd=state.scratch,
                capture_output=True,
                timeout=_CHILD_TIMEOUT_S,
            )
            manifest = {}
            if completed.returncode == 0:
                with open(os.path.join(json_dir, "manifest.json"), "rb") as handle:
                    manifest = json.load(handle)
                scenario_s = 0.0
                for scenario, entry in manifest["scenarios"].items():
                    rec.add(
                        f"scenarios.{scenario.split('-')[0]}.{phase}",
                        entry["seconds"],
                    )
                    scenario_s += entry["seconds"]
                rec.add("scenarios.engine", manifest["elapsed_s"] - scenario_s)
        docs = {}
        if os.path.isdir(json_dir):
            for name in sorted(os.listdir(json_dir)):
                if name != "manifest.json":
                    with open(os.path.join(json_dir, name), "rb") as handle:
                        docs[name] = handle.read()
        return ChildRun(completed.returncode, docs, manifest)

    def repeat(self, state: State, rec) -> Repeat:
        if self.phase == "cold":
            shutil.rmtree(state.cache_dir, ignore_errors=True)
        with rec.span(TIMED) as timed:
            run = self._run_child(state, rec, self.phase)
        return Repeat(
            seconds=timed.seconds,
            ops=1,
            digest=sha256_of(*sorted(run.docs.items())),
            output=run,
        )

    def check(self, state: State, repeat: Repeat) -> tuple[int, int]:
        checker = subprocess.run(
            [
                sys.executable,
                os.path.join(_ROOT, "tools", "check_scenario_json.py"),
                os.path.join(state.scratch, "json"),
            ],
            capture_output=True,
            timeout=_CHILD_TIMEOUT_S,
        )
        reasons = failures(
            repeat.output,
            state.reference_docs,
            checker.returncode == 0,
            warm=self.phase == "warm",
        )
        for reason in reasons:
            print(f"{self.NAME} check failed: {reason}", file=sys.stderr)
        return repeat.ops, repeat.ops if reasons else 0

    def probe(self, state: State, rec, repeat: Repeat) -> dict:
        with rec.span("cli.import") as listing:
            subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                env=state.env,
                cwd=state.scratch,
                capture_output=True,
                check=True,
                timeout=_CHILD_TIMEOUT_S,
            )
        return {"cli.import_s": listing.seconds}

    def layers(self, state: State, rec, repeat: Repeat) -> dict:
        phase = self.phase
        cache = repeat.output.manifest["cache"]
        metrics = {
            "scenarios.overhead_s": median_s(rec, f"scenarios.{phase}", "self_s"),
            "scenarios.cache.disk_mib": _disk_bytes(state.cache_dir) / 2**20,
            f"scenarios.cache.{phase}_misses": cache["misses"],
        }
        if phase == "warm":
            metrics["scenarios.cache.warm_hits"] = cache["hits"]
        for scenario in _SCENARIOS:
            metrics[f"scenarios.{scenario}_{phase}_s"] = median_s(
                rec, f"scenarios.{scenario}.{phase}"
            )
        return metrics

    def cleanup(self, state: State) -> None:
        remove_scratch(state.scratch)


COLD = Suite("cold")
WARM = Suite("warm")
