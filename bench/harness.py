"""One measurement run of one workload: set-up, repeats, checks, metrics.

Noise rules the design.  The sizing box is a shared two-core VM whose
speed drifts: over five minutes the median of 20 s windows of one
unchanged workload ranged from 0.44 s to 0.80 s, and a fixed pure-Python
loop moved with it (its CPU time too, so it is a slower core, not a stolen
one).  No estimator over one run's repeats removes a drift that outlasts
the run, so:

* every timed section runs one discarded warm-up repeat (the first
  `resolve` in a process costs 1.5x a later one), then repeats until
  ``seconds`` have passed, and the *median* is taken;
* a fixed calibration loop (:func:`spin`) runs before and after every
  repeat and every set-up, and the end-to-end times are reported at
  reference speed: each wall clock x ``SPIN_REFERENCE_S`` / the mean of
  the two spins around it.  Over ten seeds of churn events in a noisy
  quarter of an hour that cut the spread of the run medians from 19 % to
  6 %, and of `route` in a calmer one from 9 % to 5 %.  The raw wall clock and the
  spin time are reported beside it (``work_wall_s``, ``host.spin_ms``).
  A repeat that lasts seconds (`churn_*`) spins between its pieces too.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPEATS = 3
# Set-up is repeated at least MIN_SETUPS times, and on while it is cheap:
# until an eighth of the run's measured time has gone (1.5 s of 12).  A
# 60 ms set-up (`converge`) needs more samples for a steady median than a
# 0.5 s one (`resolve`): with 9 samples at most, ten seeds of it spread by
# 14 %.
MIN_SETUPS = 5
MAX_SETUPS = 40
CHEAP_SETUP_SHARE = 0.125

_SPIN_ITERATIONS = 200_000
# What :func:`spin` takes on the sizing box in a quiet minute.  Times are
# reported as if the host ran the loop in exactly this long; the constant
# only fixes the scale, so it is never to be re-tuned.
SPIN_REFERENCE_S = 0.013


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """Exit non-zero unless the program under test is here, on its C tier.

    A silently failed compile would benchmark the pure-Python kernels, a
    different program ten times slower: refuse, naming the build error.
    """
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"bench: no program to measure: {ROOT}/src/repro is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.graphs import _ckernels

    if _ckernels.load_kernels() is None:
        reason = _ckernels.build_error() or "REPRO_NO_CKERNELS is set"
        sys.exit(f"bench: C kernel tier unavailable: {reason}")


def host_block() -> dict:
    """Host facts that date a result set (recorded in every results file)."""
    from repro.perf.kernel_bench import host_metadata

    commit = ""
    # Only where this checkout is itself a repository: git would otherwise
    # walk up and report some unrelated parent's commit.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        **host_metadata(),  # CPU model and count, Python, kernel tier and threads
        "kernel_cflags": os.environ.get("REPRO_KERNEL_CFLAGS", ""),
        "load_average": list(os.getloadavg()),
        "git_commit": commit or None,
    }


def spin() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed, right now.

    It shares no code with the program under test, so a change to the
    program cannot move it.
    """
    start = time.perf_counter()
    total = 0
    for value in range(_SPIN_ITERATIONS):
        total += value * value
    return time.perf_counter() - start


def at_reference_speed(walls: list[float], spins: list[float]) -> float:
    """Sum of ``walls``, each rescaled to a host whose spin takes
    ``SPIN_REFERENCE_S``.

    ``spins[i]`` ran just before ``walls[i]`` and ``spins[i + 1]`` just
    after; each wall is scaled by the mean of its two neighbours, so a host
    that changes speed in the middle of a run is still scaled piece by piece.
    """
    return sum(
        wall * 2.0 * SPIN_REFERENCE_S / (before + after)
        for wall, before, after in zip(walls, spins, spins[1:])
    )


def reset_peak_rss() -> None:
    """Restart this process's high-water mark, so that each repeat has its own.

    Left to run on, the mark is the worst repeat of the run, and the
    allocator makes one in a few worse: repeats of `converge` peak at 71 MiB
    or, with the heap in another state, at 77, and 5 of 20 runs held such a
    repeat.  The median over the repeats is the peak of one pass.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")  # Linux: reset the peak resident set size
    except OSError:
        pass  # the mark then runs on from the set-up


def peak_rss_mib() -> float:
    """High-water resident set of this process, since the last reset, or
    of its largest child.

    The largest child is a `suite` workload's ``repro run`` (37 MiB) --
    except in the one run per checkout that compiles the kernels, where it
    is the C compiler (42 MiB), below every in-process workload's own peak.
    """
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return usage / 1024.0  # Linux reports KiB


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def count_failed(runs: list[tuple[str, int]], reference: str, bad_digest) -> int:
    """Operations of the repeats that failed a check.

    ``runs`` holds ``(digest, ops)`` per timed repeat.  A repeat fails when
    its output digest differs from the warm-up repeat's (``reference``), or
    when it shares the digest of the output the deep check rejected
    (``bad_digest``; ``None`` when that check passed).
    """
    return sum(
        ops
        for digest, ops in runs
        if digest != reference or digest == bad_digest
    )


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict | None = None,
    out_dir: str | None = None,
) -> dict:
    """Run workload ``name`` and return its result block.

    ``sizes`` overrides entries of the workload's default size table (the
    smoke test passes toy sizes, and ``seconds=0`` for the fewest repeats).
    With ``trace`` the repeats alternate
    between a disabled and an enabled recorder, so one process yields the
    untraced median, the traced median and their ratio.
    """
    from bench.trace import Recorder
    from bench.workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name]
    sizes = {**workload.SIZES, **(sizes or {})}
    rec = Recorder(name)
    rec.enabled = trace

    setups: list[float] = []  # at reference speed
    before = spin()
    state = None
    setup_started = time.perf_counter()
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS
        and time.perf_counter() - setup_started < CHEAP_SETUP_SHARE * seconds
    ):
        if state is not None:
            workload.cleanup(state)
            # Two live states would double the set-up's peak, and the
            # states hold reference cycles only the collector frees.
            state = None
            gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed, sizes, rec)
        wall = time.perf_counter() - started
        after = spin()
        setups.append(at_reference_speed([wall], [before, after]))
        before = after

    try:
        rec.enabled = False
        last = workload.repeat(state, rec)  # warm-up, discarded
        first_repeat_s = last.seconds
        reference = last.digest
        walls: list[float] = []
        work: list[float] = []  # the walls, at reference speed
        peaks: list[float] = []
        spins = [spin()]
        runs: list[tuple[str, int]] = []
        loop_started = time.perf_counter()
        while (
            len(runs) < MIN_REPEATS
            or time.perf_counter() - loop_started < seconds
        ):
            rec.enabled = trace and len(runs) % 2 == 1
            # Free the previous output before building the next.  The
            # schemes refer to each other, so without a collection up to
            # three old outputs stayed alive and `converge` peaked at
            # 138 MiB where one pass needs 71.
            last = None
            gc.collect()
            reset_peak_rss()
            last = workload.repeat(state, rec)
            walls.append(last.seconds)
            peaks.append(peak_rss_mib())
            before = spins[-1]
            spins.append(spin())
            work.append(
                at_reference_speed(
                    last.parts or [last.seconds],
                    [before, *last.spins, spins[-1]],
                )
            )
            runs.append((last.digest, last.ops))

        checked, bad = workload.check(state, last)
        failed = count_failed(runs, reference, last.digest if bad else None)
        untraced = slice(0, None, 2 if trace else 1)
        end_to_end = {
            "work_s": summarize(work[untraced]),
            "setup_s": summarize(setups),
            "peak_rss_mib": summarize(peaks[untraced]),
        }
        result = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "sizes": sizes,
            "digest": reference,
            "repeats": len(runs),
            "ops_per_repeat": last.ops,
            "work_wall_s": statistics.median(walls[untraced]),
            "spin_ms": 1000.0 * statistics.median(spins),
            "attempted": sum(ops for _, ops in runs),
            "failed": failed,
            "checked": checked,
            "check_failures": bad,
            "end_to_end": _with_units(end_to_end, spec["end_to_end"]),
        }
        if trace:
            rec.enabled = True
            values = {entry["name"]: 0.0 for entry in spec["per_layer"]}
            produced = {
                **workload.layers(state, rec, last),
                **workload.probe(state, rec, last),
                "host.spin_ms": result["spin_ms"],
                "work_wall_s": result["work_wall_s"],
                "first_repeat_s": first_repeat_s,
                "trace_overhead": statistics.median(walls[1::2])
                / result["work_wall_s"],
            }
            unnamed = sorted(set(produced) - set(values))
            if unnamed:
                raise RuntimeError(f"metrics not in BENCHMARK.json: {unnamed}")
            values.update(produced)
            result["per_layer"] = _with_units(
                {key: {"value": value} for key, value in values.items()},
                spec["per_layer"],
            )
            result["layers"] = rec.layer_table()
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                rec.flush(os.path.join(out_dir, f"trace-{name}.json"))
        return result
    finally:
        workload.cleanup(state)


def _with_units(values: dict, entries: list[dict]) -> dict:
    units = {entry["name"]: entry["unit"] for entry in entries}
    return {
        name: {**value, "unit": units[name]} for name, value in values.items()
    }


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
    )
