"""Benchmark: the CSR kernel perf-regression harness (``repro bench``).

Runs the quick variant of the before/after suite -- the dict-based reference
engine against the flat-array CSR kernels -- and records every speedup in
``benchmark.extra_info`` so the pytest-benchmark report tracks the perf
trajectory alongside the figure benchmarks.  The assertions are canaries:
they fail loudly if the CSR engine ever regresses to (or below) the
reference engine on the workloads the protocols are built from, while
leaving headroom for machine noise.  The headline numbers live in
``BENCH_kernels.json``, produced by ``repro bench`` at full scale.
"""

from __future__ import annotations

from repro.perf.kernel_bench import BENCH_SCHEMA, bench_kernels


def test_perf_kernels_quick(benchmark, run_once):
    report = run_once(bench_kernels, quick=True)
    assert report["schema"] == BENCH_SCHEMA
    assert report["quick"] is True
    assert "c_kernels" in report

    entries = report["benchmarks"]
    expected = {
        "dijkstra_full/gnm-512",
        "dijkstra_full/geometric-512",
        "dijkstra_full/geometric-q-512",
        "k_nearest/gnm-512",
        "radius/gnm-512",
        "batched_targets/gnm-512",
        "staticsim/gnm-256",
        "staticsim/geometric-256",
        "resolution_scaling/gnm-1024",
        "resolution_scaling/gnm-4096",
        "substrate_build_threads/gnm-1024-threads-1",
        "substrate_build_threads/gnm-1024-threads-2",
        "churn_scaling/gnm-1024-events-4",
    }
    assert expected <= set(entries)

    for name, entry in entries.items():
        assert entry["before_s"] > 0 and entry["after_s"] > 0
        benchmark.extra_info[name] = entry["speedup"]

    # Canary floors, far below the committed full-scale numbers (4.7-12x
    # locally with the C tier; see BENCH_kernels.json) so noisy shared CI
    # runners and compiler-less environments cannot trip them: the
    # unit-weight workloads must stay clearly ahead of the reference
    # engine, and the weighted kernels must not collapse behind it.
    assert entries["dijkstra_full/gnm-512"]["speedup"] > 1.2
    assert entries["k_nearest/gnm-512"]["speedup"] > 1.2
    assert entries["staticsim/gnm-256"]["speedup"] > 1.2
    assert entries["dijkstra_full/geometric-512"]["speedup"] > 0.5
    assert entries["dijkstra_full/geometric-q-512"]["speedup"] > 0.5
    # Scaling family: the bisect ring must stay ahead of its brute-force
    # oracle at every curve point.  It runs ~2 orders of magnitude ahead of
    # the full-scan oracle at full scale, so 1.2 is a generous floor.
    assert entries["resolution_scaling/gnm-1024"]["speedup"] > 1.2
    assert entries["resolution_scaling/gnm-4096"]["speedup"] > 1.2
    # The churn engine must stay clearly ahead of the per-event replay
    # oracle on the scaling curve (the committed full-scale entries run
    # ~8-14x; see BENCH_kernels.json), and every in-kernel thread fan-out
    # must reproduce the serial slabs byte for byte -- a determinism
    # failure here means the batch layer's chunking drifted, which the
    # differential tests would also catch but less cheaply.
    assert entries["churn_scaling/gnm-1024-events-4"]["speedup"] > 1.2
    for name, entry in entries.items():
        if name.startswith("substrate_build_threads/"):
            assert entry["params"]["byte_identical_to_serial"] is True

    # The run's host block records the thread fan-out the batched entry
    # points resolved to, so recorded numbers stay interpretable.
    assert report["host"]["kernel_threads"] >= 1
