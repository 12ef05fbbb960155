"""Memory canaries: suite warm footprint, build peak, ingestion peak.

PR 4 closed the warm-vs-cold *object graph* gap (scheme shells rewire onto
one shared substrate on load) but left warm retained memory at cold parity
(~35.1 MB retained on five scenarios at n = 384).  The array-backed
substrate tables close that residual: slabs hold one unboxed double per
distance instead of a boxed float plus dict entry, in memory and in the
pickle alike.

The first canary runs those five scenarios warm at n = 384 under
``tracemalloc`` and fails if a regression pushes the warm retained
footprint back above the PR 4 baseline.  The ceiling is the *old* cold
baseline with the current numbers ~8% under it, so ordinary allocator
noise cannot trip it while a return of per-node object graphs will.
"""

from __future__ import annotations

import shutil
import tempfile

#: Retained KB of the PR 4 warm run at cold parity (before array-backed
#: tables: cold_end_kb 35130.0 / warm_end_kb 36377.4).  The canary asserts
#: the warm run now retains less than the *cold* side of that baseline.
PR4_COLD_PARITY_KB = 35130.0

#: The scenarios of the warm-memory canary: every table-bound figure that
#: shares one converged substrate per topology.
SUITE_IDS = (
    "fig02-state-cdf",
    "fig03-stretch-cdf",
    "fig07-state-bytes",
    "fig10-congestion-as",
    "addr-sizes",
)


def suite_scale(n: int):
    """The canary's experiment scale for ``n``-node topologies."""
    from repro.experiments.config import ExperimentScale

    return ExperimentScale(
        comparison_nodes=n,
        large_nodes=n,
        as_level_nodes=n,
        router_level_nodes=n + n // 4,
        pair_sample=150,
        messaging_sweep=(48, 64),
        scaling_sweep=(n // 2, 3 * n // 4, n),
        seed=2010,
        label="bench-suite",
    )


def traced_suite_run(root: str, *, n: int) -> tuple[int, int]:
    """Run the suite against cache ``root`` under ``tracemalloc``.

    Returns ``(retained_bytes, peak_bytes)`` measured with the run's cache
    still alive.  Against a populated root this is a fully warm run.
    """
    import gc
    import tracemalloc

    from repro.scenarios.cache import ArtifactCache
    from repro.scenarios.engine import run_scenarios

    cache = ArtifactCache(root)
    tracemalloc.start()
    try:
        run_scenarios(SUITE_IDS, scale=suite_scale(n), workers=1, cache=cache)
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        del cache


def test_warm_retained_memory_below_pr4_baseline(benchmark, run_once):
    def measure() -> tuple[float, float]:
        from repro.scenarios.cache import ArtifactCache
        from repro.scenarios.engine import run_scenarios

        root = tempfile.mkdtemp(prefix="repro-memcanary-")
        try:
            # Populate the disk cache (cold), then trace a fully warm run.
            run_scenarios(
                SUITE_IDS,
                scale=suite_scale(384),
                workers=1,
                cache=ArtifactCache(root),
            )
            warm_end, warm_peak = traced_suite_run(root, n=384)
            return warm_end / 1024.0, warm_peak / 1024.0
        finally:
            shutil.rmtree(root, ignore_errors=True)

    warm_end_kb, warm_peak_kb = run_once(measure)
    benchmark.extra_info["warm_end_kb"] = round(warm_end_kb, 1)
    benchmark.extra_info["warm_peak_kb"] = round(warm_peak_kb, 1)
    assert warm_end_kb < PR4_COLD_PARITY_KB, (
        f"warm retained {warm_end_kb:.0f} KB regressed above the PR 4 "
        f"cold-parity baseline ({PR4_COLD_PARITY_KB:.0f} KB)"
    )


#: Build-time peak ceiling for the slab-direct substrate build, as a
#: multiple of the finished slab payload.  The builder writes kernel rows
#: straight into the preallocated slabs, so its transient overhead is a
#: few scratch rows plus the address accumulators -- measured ~1.26x at
#: n = 2^15 on both kernel tiers.  The dict-mediated path it replaced
#: peaked at several times the slab payload (per-node dict pairs plus
#: boxed floats for every vicinity entry); a return of per-node
#: intermediates trips this immediately, allocator noise cannot.
BUILD_PEAK_SLAB_RATIO = 1.6


def test_substrate_build_peak_memory_stays_slab_bound(benchmark, run_once):
    """Peak traced memory of a 2^15-node slab-direct build stays near the
    slab payload itself -- the canary for dict intermediates creeping back
    into the build path."""
    import gc
    import tracemalloc

    from repro.core.landmarks import select_landmarks
    from repro.core.substrate_build import build_substrate_tables
    from repro.graphs.generators import gnm_random_graph

    n = 32768  # 2^15

    def measure() -> tuple[int, int]:
        topology = gnm_random_graph(n, seed=3, average_degree=8.0)
        landmarks = select_landmarks(n, seed=1)
        topology.csr()  # snapshot outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            tables = build_substrate_tables(topology, landmarks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return tables.slab_bytes(), peak

    slab_bytes, peak_bytes = run_once(measure)
    benchmark.extra_info["slab_mb"] = round(slab_bytes / 1024**2, 1)
    benchmark.extra_info["build_peak_mb"] = round(peak_bytes / 1024**2, 1)
    assert peak_bytes < slab_bytes * BUILD_PEAK_SLAB_RATIO, (
        f"substrate build peaked at {peak_bytes / 1024**2:.0f} MiB for "
        f"{slab_bytes / 1024**2:.0f} MiB of slabs "
        f"(> {BUILD_PEAK_SLAB_RATIO}x): dict intermediates are back?"
    )


#: Ingestion peak ceiling as a multiple of the finished Topology slab
#: payload (the ISSUE acceptance bound).  Streaming ingestion holds the
#: canonical edge arrays, O(n) dedup scratch, and the CSR slabs -- no
#: per-edge Python objects -- measured ~1.33x on a 2^20-edge G(n,m) edge
#: list.  The dict-mediated path it replaced allocated per-node adjacency
#: dicts plus boxed floats for every arc (many times the payload); a
#: return of per-edge objects trips this immediately.
INGEST_PEAK_SLAB_RATIO = 2.0


def test_ingestion_peak_memory_stays_slab_bound(
    benchmark, run_once, tmp_path
):
    """Peak traced memory of streaming a >=10^6-edge edge list into a
    Topology stays under twice the finished slab payload."""
    import gc
    import tracemalloc

    from repro.graphs.generators import gnm_random_graph
    from repro.graphs.ingest import ingest_file
    from repro.graphs.io import write_edge_list

    n = 262144  # average degree 8 -> ~2^20 edges

    def measure() -> tuple[int, int, int]:
        path = tmp_path / "big.edges"
        topology = gnm_random_graph(n, seed=3, average_degree=8.0)
        edges = topology.num_edges
        write_edge_list(topology, path)
        del topology
        gc.collect()
        tracemalloc.start()
        try:
            ingested = ingest_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ingested.num_edges == edges
        return edges, ingested.slab_bytes(), peak

    edges, slab_bytes, peak_bytes = run_once(measure)
    assert edges >= 10**6
    benchmark.extra_info["edges"] = edges
    benchmark.extra_info["slab_mb"] = round(slab_bytes / 1024**2, 1)
    benchmark.extra_info["ingest_peak_mb"] = round(peak_bytes / 1024**2, 1)
    assert peak_bytes < slab_bytes * INGEST_PEAK_SLAB_RATIO, (
        f"ingestion peaked at {peak_bytes / 1024**2:.0f} MiB for "
        f"{slab_bytes / 1024**2:.0f} MiB of CSR slabs "
        f"(> {INGEST_PEAK_SLAB_RATIO}x): per-edge objects are back?"
    )


#: Kernel memory curve: peak traced bytes per node for one full SPT on
#: the auto-selected kernel, and the growth factor between successive
#: curve points.  The CSR slabs plus the search arena are all O(n + m),
#: so quadrupling n must not grow the peak by more than ~5x; a dense
#: matrix or per-pair cache creeping into the kernels trips the growth
#: assert long before it exhausts memory.
KERNEL_PEAK_GROWTH_LIMIT = 5.5


def test_kernel_memory_curve_stays_linear(benchmark, run_once):
    import gc
    import tracemalloc

    from repro.graphs.generators import gnm_random_graph

    def peak_for(n: int) -> int:
        topology = gnm_random_graph(n, seed=3, average_degree=8.0)
        gc.collect()
        tracemalloc.start()
        try:
            csr = topology.csr()
            csr.spt_rows(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def measure() -> tuple[int, int]:
        return peak_for(4096), peak_for(16384)

    small_peak, large_peak = run_once(measure)
    benchmark.extra_info["peak_kb_4096"] = round(small_peak / 1024.0, 1)
    benchmark.extra_info["peak_kb_16384"] = round(large_peak / 1024.0, 1)
    growth = large_peak / small_peak
    assert growth < KERNEL_PEAK_GROWTH_LIMIT, (
        f"kernel peak grew {growth:.1f}x for 4x the nodes -- "
        "superlinear kernel memory?"
    )
