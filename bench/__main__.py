"""Command line: ``measure`` (one run), ``run`` (all workloads), ``compare``.

``measure`` is the command ``BENCHMARK.json`` names; the driver appends
``--workload W --seed N --seconds T --trace 0|1`` and reads the last line
of standard output.  ``run`` calls ``measure`` in a child process per
(workload, seed), so peak memory is per run and no heap state leaks from
one workload into the next.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench import harness
from bench.compare import compare_sets

DEFAULT_SEED = 2010  # the repository's root seed
# Runs per workload in a result set, each with another seed: what the
# spreads in the README were measured over.  With three, the quartiles
# `compare` reads are the lowest and the highest run.
RUNS = 10
DEFAULT_OUT = os.path.join("bench", "results")


def _parser(spec: dict) -> argparse.ArgumentParser:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="one run of one workload")
    measure.add_argument("--workload", required=True, choices=names)
    measure.add_argument("--seed", type=int, default=DEFAULT_SEED)
    measure.add_argument("--seconds", type=float, default=spec["run_seconds"])
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--out", default=DEFAULT_OUT, help="where trace.json goes")

    run = commands.add_parser("run", help=f"every workload, {RUNS} seeds each")
    run.add_argument("--workload", action="append", choices=names)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--trace", action="store_true", help="add a traced run")
    run.add_argument("--out", default=DEFAULT_OUT)

    compare = commands.add_parser("compare", help="judge result set B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def _export_kernel_threads() -> None:
    # One kernel thread, recorded in the host block.  With two threads on
    # the two-core sizing box, `converge` swung 24 % between 20 s windows
    # while the single-threaded calibration loop stayed within 5 %: either
    # core being taken stalls the batch, and nothing in the run can see it.
    # With one thread the same test read 3.4 % raw, 2.4 % at reference speed.
    os.environ["REPRO_KERNEL_THREADS"] = "1"


def _command_measure(args) -> int:
    result = harness.measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=args.out,
    )
    result["host"] = harness.host_block()
    print(
        f"{args.workload}: {result['repeats']} repeats, digest "
        f"{result['digest'][:16]}, failed {result['failed']}/"
        f"{result['attempted']}",
        file=sys.stderr,
    )
    print(json.dumps({"detail": result}))
    print(harness.contract_line(result, bool(args.trace)))
    return 0


def _measure_child(workload: str, seed: int, seconds: float, trace: bool, out: str):
    completed = subprocess.run(
        [
            sys.executable, "-m", "bench", "measure",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--out", out,
        ],  # fmt: skip
        cwd=harness.ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if completed.returncode != 0:
        sys.exit(f"bench: measure {workload} exited {completed.returncode}")
    return json.loads(completed.stdout.splitlines()[-2])["detail"]


def _print_row(workload, name, unit, summary) -> None:
    print(
        f"{workload:10} {name:42} {summary['value']:>14.6g} {unit:6} "
        f"q1 {summary['q1']:<12.6g} q3 {summary['q3']:<12.6g} n {summary['n']}"
    )


def _command_run(args, spec: dict) -> int:
    out = os.path.abspath(args.out)
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {
        "schema": "repro-bench-results/v1",
        "host": harness.host_block(),
        "seed": args.seed,
        "runs": RUNS,
        "seconds": seconds,
        "workloads": {},
    }
    for name in names:
        details = [
            _measure_child(name, args.seed + index, seconds, False, out)
            for index in range(RUNS)
        ]
        attempted = sum(detail["attempted"] for detail in details)
        failed = sum(detail["failed"] for detail in details)
        block = {
            "sizes": details[0]["sizes"],
            "digests": [detail["digest"] for detail in details],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            per_run = [detail["end_to_end"][metric["name"]] for detail in details]
            values = [entry["value"] for entry in per_run]
            block["end_to_end"][metric["name"]] = {
                **harness.summarize(values),
                "unit": metric["unit"],
                "values": values,
                "within_run": per_run,
            }
            _print_row(name, metric["name"], metric["unit"], block["end_to_end"][metric["name"]])
        print(
            f"{name:10} failed_share {block['failed_share']:.6g} "
            f"({failed}/{attempted})  digest {block['digests'][0][:16]}"
        )
        if args.trace:
            traced = _measure_child(name, args.seed, seconds, True, out)
            block["per_layer"] = traced["per_layer"]
            block["layers"] = traced["layers"]
            for metric, entry in traced["per_layer"].items():
                if entry["value"]:  # 0 marks a layer this workload never enters
                    summary = harness.summarize([entry["value"]])
                    _print_row(name, metric, entry["unit"], summary)
            attributed = sum(
                layer["share"]
                for layer_name, layer in traced["layers"].items()
                if layer_name != "timed"
            )
            print(f"{name:10} layers cover {attributed:.1%} of the timed section")
        results["workloads"][name] = block
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"results written to {path}")
    return 1 if any(b["failed"] for b in results["workloads"].values()) else 0


def _command_compare(args, spec: dict) -> int:
    sets = []
    for path in (args.a, args.b):
        if os.path.isdir(path):
            path = os.path.join(path, "results.json")
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    try:
        rows = compare_sets(spec, *sets)
    except ValueError as error:
        sys.exit(f"bench: {error}")
    for row in rows:
        print(
            f"{row['workload']:10} {row['metric']:14} A {row['a']:<12.6g} "
            f"B {row['b']:<12.6g} {row['unit']:4} spread {row['spread_a']:.1%}/"
            f"{row['spread_b']:.1%} bound {row['bound']:.0%}  {row['verdict']}"
            + ("" if row["same_digest"] else "  [digests differ]")
        )
    return 1 if any(r["verdict"] in ("worse", "unresolved") for r in rows) else 0


def main(argv=None) -> int:
    spec = harness.load_spec()
    args = _parser(spec).parse_args(argv)
    if args.command == "compare":
        return _command_compare(args, spec)
    harness.require_program()
    _export_kernel_threads()
    if args.command == "measure":
        return _command_measure(args)
    return _command_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
