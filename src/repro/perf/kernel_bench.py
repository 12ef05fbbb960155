"""Before/after benchmarks for the CSR shortest-path kernels.

Every benchmark times the same workload twice:

* **before** -- the dict-based reference engine
  (:mod:`repro.graphs._reference_paths`), run through the public API with
  ``use_engine("reference")``; the end-to-end benchmarks additionally pass
  ``share_substrate=False`` so the "before" side reproduces the seed
  implementation exactly (S4 rebuilding the landmark trees NDDisco already
  computed).
* **after** -- the CSR engine (:mod:`repro.graphs.csr`) exactly as the
  library runs by default: kernel auto-selected from the weight profile
  (BFS / Dial bucket queue / indexed 4-ary heap) and the C tier active
  whenever a C compiler is available.

Both engines return bit-identical results (enforced by the differential
tests in ``tests/``), so the ratio is a pure performance number.  Timings
are best-of-N wall clock; graphs use the experiments' canonical
``average_degree=8.0``.

The kernel microbenchmarks cover the paper's topology matrix -- G(n,m),
geometric (irregular float latencies), quantized geometric (bucket-queue
eligible), and the synthetic router-level / AS-level Internet maps -- so a
regression in any kernel shows up in the family that exercises it.  The
``kernel_scaling/*`` family adds per-kernel n-curves (Python tier vs C
tier at n = 2^10 .. 2^17) and the ``ingest/*`` family times streaming
file-to-CSR ingestion against the dict-mediated read path and a warm
content-addressed artifact attach.  ``substrate_build_threads/*`` sweeps
the in-kernel pthread fan-out of the batched entry points against the
pinned serial per-source loop (every entry byte-compared against the
serial slabs), and ``churn_scaling/*`` extends the churn engine's
event-vs-replay comparison to an n-curve.  Passing ``kernel=`` ("heap",
"bucket", or "bfs") forces that kernel on the CSR side wherever the
weight profile allows it, which is how ``repro bench --kernel`` A/Bs
the kernels on the same workload.

``repro bench`` runs :func:`bench_kernels` and writes
``BENCH_kernels.json``; see the "Performance architecture" section of
``ROADMAP.md`` for how to read the file.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Callable

from repro.core.vicinity import vicinity_size
from repro.graphs import _reference_paths as reference
from repro.graphs.csr import CSRGraph
from repro.graphs.engine import use_engine
from repro.graphs.generators import (
    geometric_random_graph,
    gnm_random_graph,
    internet_as_level,
    internet_router_level,
)
from repro.graphs.sampling import sample_pairs
from repro.graphs.topology import Topology
from repro.staticsim.simulation import StaticSimulation

__all__ = ["BENCH_SCHEMA", "bench_kernels", "host_metadata", "write_bench_json"]

BENCH_SCHEMA = "repro-bench-kernels/v3"

#: Power-of-two latency quantum for the bucket-queue benchmark family.
BENCH_LATENCY_QUANTUM = 0.25


def _cpu_model() -> str:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def host_metadata() -> dict:
    """Host facts that make committed benchmark numbers interpretable.

    Recorded in every ``BENCH_kernels.json`` so numbers measured on
    different machines (CPU model, core count, Python build, kernel tier)
    can be compared with eyes open rather than assumed equivalent.
    ``kernel_threads`` is the resolved in-kernel thread fan-out the run's
    batched entry points used (``REPRO_KERNEL_THREADS``, else the CPU
    count); ``repro bench compare`` flags runs whose counts differ, since
    the threaded families are then not like-for-like.
    """
    from repro.graphs import _ckernels
    from repro.graphs.csr import kernel_threads

    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "kernel_tier": "c" if _ckernels.load_kernels() is not None else "python",
        "kernel_threads": kernel_threads(),
        "kernel_threads_env": os.environ.get("REPRO_KERNEL_THREADS") or None,
    }


def _best_of(function: Callable[[], None], repeats: int) -> float:
    """Best-of-N wall-clock seconds for one call of ``function``."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(
    name: str,
    params: dict,
    before: Callable[[], None],
    after: Callable[[], None],
    *,
    repeats: int,
    results: dict[str, dict],
) -> None:
    before_s = _best_of(before, repeats)
    after_s = _best_of(after, repeats)
    results[name] = {
        "params": params,
        "before_s": round(before_s, 6),
        "after_s": round(after_s, 6),
        "speedup": round(before_s / after_s, 3) if after_s > 0 else math.inf,
    }


def _fresh(topology: Topology) -> Topology:
    """Copy ``topology`` so CSR snapshot build cost lands inside the timer."""
    return topology.copy()


def _csr_for(topology: Topology, kernel: str | None) -> CSRGraph:
    """CSR snapshot honoring a forced kernel where the profile allows it."""
    if kernel is None:
        return topology.csr()
    try:
        return CSRGraph.from_topology(topology, kernel=kernel)
    except ValueError:
        # The forced kernel is not applicable to this family (e.g. bucket
        # on irregular floats); fall back to auto selection so the matrix
        # stays complete.
        return topology.csr()


def bench_kernels(
    *,
    quick: bool = False,
    workers: int | None = None,
    kernel: str | None = None,
) -> dict:
    """Run every kernel and end-to-end benchmark; return the report dict.

    Parameters
    ----------
    quick:
        Shrink every workload (used by CI smoke runs and the pytest
        benchmark); the numbers are then only a canary, not the headline.
    workers:
        If given and > 1, adds the ``/workers-N`` variant of the scenario
        suite (the scenario engine's process pool).
    kernel:
        Force ``"heap"``, ``"bucket"``, or ``"bfs"`` on the CSR side
        wherever the weight profile permits (A/B harness for the kernels);
        default auto-selects per family.  The override applies to the
        kernel microbenchmarks only: the end-to-end ``staticsim/*`` cases
        build their snapshots inside ``StaticSimulation`` via
        ``Topology.csr()`` (always auto-selected), so they are skipped in an
        A/B run rather than silently reporting auto-kernel numbers.
    """
    results: dict[str, dict] = {}

    n_full = 512 if quick else 4096
    sources = list(range(0, n_full, max(1, n_full // (4 if quick else 8))))
    repeats = 2 if quick else 3

    # -- full single-source Dijkstra across the topology matrix ----------
    families = {
        "gnm": gnm_random_graph(n_full, seed=3, average_degree=8.0),
        "geometric": geometric_random_graph(
            n_full, seed=3, average_degree=8.0
        ),
        "geometric-q": geometric_random_graph(
            n_full,
            seed=3,
            average_degree=8.0,
            latency_quantum=BENCH_LATENCY_QUANTUM,
        ),
    }
    if not quick:
        families["router-level"] = internet_router_level(n_full, seed=3)
        families["as-level"] = internet_as_level(n_full, seed=3)

    csrs = {name: _csr_for(topo, kernel) for name, topo in families.items()}
    for family, topo in families.items():
        csr = csrs[family]
        _entry(
            f"dijkstra_full/{family}-{n_full}",
            {
                "family": family,
                "n": n_full,
                "sources": len(sources),
                "unit_weights": topo.weight_profile().unit,
                "kernel": csr.kernel,
                "tier": csr.tier,
            },
            lambda topo=topo: [reference.dijkstra(topo, s) for s in sources],
            lambda csr=csr: [csr.dijkstra(s) for s in sources],
            repeats=repeats,
            results=results,
        )

    # -- truncated and bounded kernels ----------------------------------
    k = vicinity_size(n_full)
    k_sources = range(64 if quick else 256)
    for family in ("gnm", "geometric") if not quick else ("gnm",):
        topo = families[family]
        csr = csrs[family]
        _entry(
            f"k_nearest/{family}-{n_full}",
            {
                "family": family,
                "n": n_full,
                "k": k,
                "sources": len(k_sources),
                "kernel": csr.kernel,
                "tier": csr.tier,
            },
            lambda topo=topo: [
                reference.dijkstra_k_nearest(topo, s, k) for s in k_sources
            ],
            lambda csr=csr: csr.batched_k_nearest(k, k_sources),
            repeats=repeats,
            results=results,
        )

    for family, radius in (("gnm", 3.0), ("geometric-q", 30.0)):
        if quick and family != "gnm":
            continue
        topo = families[family]
        csr = csrs[family]
        _entry(
            f"radius/{family}-{n_full}",
            {
                "family": family,
                "n": n_full,
                "radius": radius,
                "sources": len(k_sources),
                "kernel": csr.kernel,
                "tier": csr.tier,
            },
            lambda topo=topo, radius=radius: [
                reference.dijkstra_radius(topo, s, radius) for s in k_sources
            ],
            lambda csr=csr, radius=radius: csr.batched_radius(
                [radius] * len(k_sources), k_sources
            ),
            repeats=repeats,
            results=results,
        )

    gnm = families["gnm"]
    pairs = sample_pairs(gnm, 100 if quick else 500, seed=11)
    _entry(
        f"batched_targets/gnm-{n_full}",
        {
            "family": "gnm",
            "n": n_full,
            "pairs": len(pairs),
            "kernel": csrs["gnm"].kernel,
            "tier": csrs["gnm"].tier,
        },
        lambda: reference.all_pairs_sampled_distances(gnm, pairs),
        lambda: csrs["gnm"].batched_target_distances(pairs),
        repeats=repeats,
        results=results,
    )

    # -- unit-weight BFS vs the Dial bucket queue ------------------------
    # Both kernels are exact on unit weights and bit-identical (pinned by
    # tests/test_graphs_ingest.py); auto-selection prefers BFS, and this
    # entry records what that preference is worth on the same workload.
    if kernel is None:
        bucket_csr = CSRGraph.from_topology(gnm, kernel="bucket")
        bfs_csr = CSRGraph.from_topology(gnm, kernel="bfs")
        _entry(
            f"kernel_bfs/gnm-{n_full}",
            {
                "family": "gnm",
                "n": n_full,
                "sources": len(sources),
                "tier": bfs_csr.tier,
                "comparison": "Dial bucket queue vs level-ordered BFS "
                "on the same unit-weight graph (full SPTs)",
            },
            lambda: [bucket_csr.dijkstra(s) for s in sources],
            lambda: [bfs_csr.dijkstra(s) for s in sources],
            repeats=repeats,
            results=results,
        )

    _kernel_scaling_case(results, quick=quick, kernel=kernel)

    # -- end-to-end converged-state construction ------------------------
    # "before" = reference engine + no substrate sharing: exactly the work
    # the seed implementation performed.  "after" = the library's default
    # path, including the (freshly timed) CSR snapshot build.
    def staticsim_case(name: str, topology: Topology, *, repeats: int) -> None:
        def before() -> None:
            with use_engine("reference"):
                StaticSimulation(
                    _fresh(topology),
                    ("nd-disco", "s4"),
                    seed=1,
                    share_substrate=False,
                )

        def after() -> None:
            StaticSimulation(_fresh(topology), ("nd-disco", "s4"), seed=1)

        _entry(
            name,
            {
                "family": topology.name,
                "n": topology.num_nodes,
                "protocols": ["nd-disco", "s4"],
            },
            before,
            after,
            repeats=repeats,
            results=results,
        )

    if kernel is None:
        n_sim = 256 if quick else 2048
        staticsim_case(
            f"staticsim/gnm-{n_sim}",
            gnm_random_graph(n_sim, seed=3, average_degree=8.0),
            repeats=2 if quick else 3,
        )
        staticsim_case(
            f"staticsim/geometric-{256 if quick else 1024}",
            geometric_random_graph(
                256 if quick else 1024, seed=3, average_degree=8.0
            ),
            repeats=2,
        )
        _ingest_case(results, quick=quick)
        _substrate_build_case(results, quick=quick)
        _substrate_build_threads_case(results, quick=quick)
        _resolution_scaling_case(results, quick=quick)
        _churn_case(results, quick=quick, repeats=2)
        _churn_scaling_case(results, quick=quick)
        _scenario_suite_case(
            results, quick=quick, workers=workers, repeats=1 if quick else 2
        )

    from repro.graphs import _ckernels

    return {
        "schema": BENCH_SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "kernel_override": kernel,
        "c_kernels": _ckernels.load_kernels() is not None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": host_metadata(),
        "benchmarks": results,
    }


#: The scenario subset of the ``scenario_suite*`` benchmarks: the five
#: quick-scale scenarios sharing the most prerequisites (see
#: :func:`_scenario_suite_case`).
SUITE_IDS = (
    "fig02-state-cdf",
    "fig03-stretch-cdf",
    "fig07-state-bytes",
    "fig10-congestion-as",
    "addr-sizes",
)


def suite_scale(n: int, *, quick: bool = False):
    """The ``scenario_suite*`` benchmark scale for ``n``-node topologies."""
    from repro.experiments.config import ExperimentScale

    return ExperimentScale(
        comparison_nodes=n,
        large_nodes=n,
        as_level_nodes=n,
        router_level_nodes=n + n // 4,
        pair_sample=60 if quick else 150,
        messaging_sweep=(24, 32) if quick else (48, 64),
        scaling_sweep=(n // 2, n) if quick else (n // 2, 3 * n // 4, n),
        seed=2010,
        label="bench-suite",
    )


def traced_suite_run(root: str, *, n: int = 384, quick: bool = False) -> tuple[int, int]:
    """Run the benchmark suite against ``root`` under ``tracemalloc``.

    Returns ``(retained_bytes, peak_bytes)`` measured with the run's cache
    still alive -- the number the ``scenario_suite_warm`` params record
    and the warm-memory canary asserts on.  Against a populated root this
    is a fully warm run; against an empty one, a cold run.
    """
    import gc
    import tracemalloc

    from repro.scenarios.cache import ArtifactCache
    from repro.scenarios.engine import run_scenarios

    cache = ArtifactCache(root)
    tracemalloc.start()
    try:
        run_scenarios(
            SUITE_IDS, scale=suite_scale(n, quick=quick), workers=1, cache=cache
        )
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        return current, peak
    finally:
        tracemalloc.stop()
        del cache


def _kernel_scaling_case(
    results: dict[str, dict], *, quick: bool, kernel: str | None
) -> None:
    """Per-kernel scaling curves: Python tier vs C tier across sizes.

    One curve per kernel, each on the family whose weight profile selects
    it -- ``dijkstra_full`` on geometric (indexed 4-ary heap),
    ``k_nearest`` on G(n,m) (unit-weight BFS), ``radius`` on quantized
    geometric (Dial bucket queue) -- at n = 2^10 .. 2^17 (full mode; the
    quick run truncates the curve).  Both sides run the same kernel
    algorithm, so each entry isolates what the C tier is worth at that
    size; without a C compiler both sides coincide and the curve is a
    pure canary.  Source counts shrink with n to keep the Python tier's
    wall clock bounded; the per-size ``sources`` param records them.
    """
    sizes = [1024, 4096] if quick else [2**p for p in range(10, 18, 2)] + [2**17]
    for n in sizes:
        topo_heap = geometric_random_graph(n, seed=3, average_degree=8.0)
        topo_bfs = gnm_random_graph(n, seed=3, average_degree=8.0)
        topo_bucket = geometric_random_graph(
            n, seed=3, average_degree=8.0,
            latency_quantum=BENCH_LATENCY_QUANTUM,
        )
        full_sources = list(range(0, n, max(1, n // 2 if n >= 65536 else n // 4)))
        trunc_sources = range(16 if quick else 64)
        k = vicinity_size(n)
        cases = (
            ("dijkstra_full", topo_heap,
             lambda csr, sources=full_sources: [
                 csr.dijkstra(s) for s in sources
             ],
             {"sources": len(full_sources)}),
            ("k_nearest", topo_bfs,
             lambda csr, k=k, sources=trunc_sources: csr.batched_k_nearest(
                 k, sources
             ),
             {"k": k, "sources": len(trunc_sources)}),
            ("radius", topo_bucket,
             lambda csr, sources=trunc_sources: csr.batched_radius(
                 [30.0] * len(sources), sources
             ),
             {"radius": 30.0, "sources": len(trunc_sources)}),
        )
        for op, topo, workload, extra in cases:
            csr_c = _csr_for(topo, kernel)
            try:
                csr_py = CSRGraph.from_topology(
                    topo, kernel=csr_c.kernel, use_c=False
                )
            except ValueError:  # pragma: no cover - kernels match profile
                csr_py = CSRGraph.from_topology(topo, use_c=False)
            _entry(
                f"kernel_scaling/{op}-{n}",
                {
                    "family": topo.name,
                    "n": n,
                    "kernel": csr_c.kernel,
                    "tier_before": csr_py.tier,
                    "tier_after": csr_c.tier,
                    "comparison": "same kernel, Python tier vs C tier",
                    **extra,
                },
                lambda csr=csr_py, workload=workload: workload(csr),
                lambda csr=csr_c, workload=workload: workload(csr),
                repeats=1 if n >= 16384 else (2 if quick else 3),
                results=results,
            )


def _ingest_case(results: dict[str, dict], *, quick: bool) -> None:
    """Streaming file-to-CSR ingestion vs the dict-mediated read path.

    The workload is an on-disk edge list brought up to a ready-to-search
    CSR snapshot:

    * **before** -- ``read_edge_list``: parse into a dict-backed
      :class:`Topology` (per-node adjacency dicts, per-edge weight dict),
      then ``.csr()`` re-walks the dicts into slabs;
    * **after** -- :func:`repro.graphs.ingest.ingest_file` with the CSR
      backend: the same lines streamed straight into flat edge arrays,
      deduplicated and scattered into CSR slabs by the C kernels, with no
      per-edge Python objects; ``.csr()`` on the result is a zero-copy
      view of the slabs.

    Both sides produce byte-identical topologies (pinned by
    ``tests/test_graphs_ingest.py``), so the ratio is a pure performance
    number.  The ``artifact-warm`` entry re-ingests the largest tier
    against a populated on-disk artifact cache (fresh memory cache each
    call), timing the content-addressed attach path that ``repro run
    --topology-file`` hits on every run after the first.
    """
    import shutil
    import tempfile

    from repro.graphs.ingest import ingest_file, ingest_topology
    from repro.graphs.io import read_edge_list, write_edge_list
    from repro.scenarios.cache import ArtifactCache, activated

    sizes = [1024] if quick else [4096, 32768, 131072]
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-ingest-")
    try:
        largest = sizes[-1]
        largest_path = None
        for n in sizes:
            topology = gnm_random_graph(n, seed=3, average_degree=8.0)
            path = os.path.join(tmpdir, f"gnm-{n}.edges")
            write_edge_list(topology, path)
            if n == largest:
                largest_path = path
            _entry(
                f"ingest/edge-list-{n}",
                {
                    "family": "gnm",
                    "n": n,
                    "edges": topology.num_edges,
                    "comparison": "read_edge_list into dict Topology + "
                    "dict->CSR snapshot vs streaming ingest_file straight "
                    "to CSRTopology slabs",
                },
                lambda path=path: read_edge_list(path).csr(),
                lambda path=path: ingest_file(path, backend="csr").csr(),
                repeats=1 if n >= 32768 else (2 if quick else 3),
                results=results,
            )

        root = os.path.join(tmpdir, "cache")
        with activated(ArtifactCache(root)):
            ingest_topology(largest_path)  # populate, outside the timers

        def warm() -> None:
            with activated(ArtifactCache(root)):
                ingest_topology(largest_path)

        _entry(
            f"ingest/artifact-warm-{largest}",
            {
                "family": "gnm",
                "n": largest,
                "comparison": "cold streaming parse vs warm "
                "content-addressed artifact attach (fresh memory cache "
                "per call, keyed by file digest + format + params)",
            },
            lambda: ingest_file(largest_path, backend="csr"),
            warm,
            repeats=2,
            results=results,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _substrate_build_case(results: dict[str, dict], *, quick: bool) -> None:
    """Slab-direct substrate construction vs the dict-mediated path.

    The workload is one converged NDDisco substrate on a G(n,m) topology:
    landmark SPT rows, closest-landmark rows, the vicinity CSR, and the
    label-encoded address payloads.

    * **before** -- the historical component-wise build: dense SPT rows
      collected per landmark, per-node ``VicinityTable`` dicts from
      ``compute_vicinities``, then one ``SubstrateTables.from_components``
      pass boxing everything back out of the dicts into slabs;
    * **after** -- :func:`repro.core.substrate_build.build_substrate_tables`
      writing the same kernel results straight into the preallocated
      row-major slabs (no per-node dict intermediates).

    Both sides produce byte-identical slabs (``tests/test_substrate_build.py``),
    so the ratio is a pure performance number.  The CSR snapshot is built
    outside the timers -- both sides run on the same kernels; only the
    assembly strategy differs.

    The scaling tail (n = 2^16 and 2^17, full mode only) drops the dict
    side -- at those sizes it is pure waiting -- and instead A/Bs slab
    placement: RAM arrays ("before") vs anonymous mmap ("after"), pinning
    the cost of going out-of-core at ~parity.
    """
    from repro.addressing.labels import LabelCodec
    from repro.core.landmarks import (
        closest_landmarks,
        landmark_spts,
        select_landmarks,
    )
    from repro.core.substrate_build import build_substrate_tables
    from repro.core.tables import SubstrateTables
    from repro.core.vicinity import compute_vicinities

    sizes = [1024] if quick else [1024, 2048, 4096, 8192, 16384, 32768]
    for n in sizes:
        topology = gnm_random_graph(n, seed=3, average_degree=8.0)
        landmarks = select_landmarks(n, seed=1)
        codec = LabelCodec(topology)
        csr = topology.csr()  # shared by both sides, outside the timers

        def before(
            topology=topology, landmarks=landmarks, codec=codec, n=n
        ) -> None:
            spts = landmark_spts(topology, landmarks)
            closest = closest_landmarks(spts, n)
            vicinities = compute_vicinities(topology)
            SubstrateTables.from_components(
                n, spts, closest, vicinities, codec
            )

        def after(topology=topology, landmarks=landmarks, codec=codec) -> None:
            build_substrate_tables(topology, landmarks, codec=codec)

        _entry(
            f"substrate_build/gnm-{n}",
            {
                "family": "gnm",
                "n": n,
                "landmarks": len(landmarks),
                "vicinity_k": vicinity_size(n),
                "kernel": csr.kernel,
                "tier": csr.tier,
                "comparison": "component-wise dict-mediated build + "
                "from_components vs slab-direct build",
            },
            before,
            after,
            repeats=1 if n >= 16384 else (2 if quick else 3),
            results=results,
        )

    if quick:
        return

    # -- scaling tail: slab placement A/B at sizes the dict path cannot --
    for n in (65536, 131072):
        topology = gnm_random_graph(n, seed=3, average_degree=8.0)
        landmarks = select_landmarks(n, seed=1)
        codec = LabelCodec(topology)
        csr = topology.csr()
        _entry(
            f"substrate_build/gnm-{n}-mmap",
            {
                "family": "gnm",
                "n": n,
                "landmarks": len(landmarks),
                "vicinity_k": vicinity_size(n),
                "kernel": csr.kernel,
                "tier": csr.tier,
                "comparison": "slab-direct build, RAM arrays vs anonymous "
                "mmap placement (out-of-core parity; the dict path is "
                "omitted at this size)",
            },
            lambda topology=topology, landmarks=landmarks, codec=codec: (
                build_substrate_tables(topology, landmarks, codec=codec)
            ),
            lambda topology=topology, landmarks=landmarks, codec=codec: (
                build_substrate_tables(
                    topology, landmarks, codec=codec, storage="mmap"
                )
            ),
            repeats=1,
            results=results,
        )


def _substrate_build_threads_case(
    results: dict[str, dict], *, quick: bool
) -> None:
    """In-kernel thread fan-out vs the pinned serial per-source loop.

    The workload is the slab-direct NDDisco substrate build at the largest
    ``substrate_build/*`` size, repeated across thread counts:

    * **before** -- ``threads=0``: the historical serial per-source Python
      loop over the same C kernels (the differential anchor every other
      path is tested against);
    * **after** -- ``threads=T``: the batched C entry points
      (``spt_rows_batch`` / ``k_nearest_batch``) looping sources inside
      the kernel, fanned over ``T`` in-kernel pthreads with the GIL
      released for the whole call.

    Every entry's slabs are compared byte-for-byte against the serial
    build (``byte_identical_to_serial`` in params) -- thread fan-out is
    a pure scheduling change, never a results change.  On a machine
    without a C compiler the threaded path falls back to the serial loop
    and the entries degenerate to a canary at ~1x.  Thread counts beyond
    the CPU count are recorded anyway: oversubscription must still be
    byte-identical, and the curve shows where the machine stops paying.
    """
    from repro.addressing.labels import LabelCodec
    from repro.core.landmarks import select_landmarks
    from repro.core.substrate_build import build_substrate_tables

    n = 1024 if quick else 32768
    thread_counts = (1, 2) if quick else (1, 2, 4, 8)
    topology = gnm_random_graph(n, seed=3, average_degree=8.0)
    landmarks = select_landmarks(n, seed=1)
    codec = LabelCodec(topology)
    csr = topology.csr()  # shared by every side, outside the timers

    serial_start = time.perf_counter()
    serial = build_substrate_tables(
        topology, landmarks, codec=codec, threads=0
    )
    serial_s = time.perf_counter() - serial_start
    serial_slabs = {
        name: memoryview(slab).cast("B")
        for name, _, slab in serial.slab_items()
    }

    for threads in thread_counts:
        start = time.perf_counter()
        tables = build_substrate_tables(
            topology, landmarks, codec=codec, threads=threads
        )
        threaded_s = time.perf_counter() - start
        identical = all(
            serial_slabs[name] == memoryview(slab).cast("B")
            for name, _, slab in tables.slab_items()
        ) and len(serial_slabs) == len(tables.slab_items())
        del tables
        results[f"substrate_build_threads/gnm-{n}-threads-{threads}"] = {
            "params": {
                "family": "gnm",
                "n": n,
                "landmarks": len(landmarks),
                "vicinity_k": vicinity_size(n),
                "kernel": csr.kernel,
                "tier": csr.tier,
                "threads": threads,
                "byte_identical_to_serial": identical,
                "comparison": "pinned serial per-source loop (threads=0) "
                "vs in-kernel batched entry points fanned over "
                f"{threads} pthread(s)",
            },
            "before_s": round(serial_s, 6),
            "after_s": round(threaded_s, 6),
            "speedup": round(serial_s / threaded_s, 3)
            if threaded_s > 0
            else math.inf,
        }


def _churn_scaling_case(results: dict[str, dict], *, quick: bool) -> None:
    """Churn-engine n-curve: event-driven maintenance vs the replay oracle.

    The ``churn/*`` family pins the engine at one Fig. 8-scale size; this
    family extends it to an n-curve (n = 2^10 .. 2^15 in full mode) so a
    complexity regression in the incremental repair paths -- a repair
    quietly reconverging the world, a diff walking state it did not touch
    -- bends the curve instead of hiding at one point.  Per size:

    * **before** -- the replay oracle: rebuild a fully reconverged
      :class:`NDDiscoRouting` after every event and diff the states
      (:func:`~repro.dynamics.maintenance.maintenance_cost`);
    * **after** -- one :class:`~repro.dynamics.engine.ChurnEngine`
      convergence plus incremental per-event repairs (the one-time
      convergence stays inside the timer, so the ratio is end-to-end
      honest).

    Both sides produce bit-identical per-event bills (pinned by
    ``tests/test_dynamics_incremental.py``).  Event counts shrink with n
    to bound the replay side's wall clock -- the oracle pays a full
    reconvergence plus a full-state diff per event -- and the ``events``
    param records them.
    """
    from repro.core.landmarks import select_landmarks
    from repro.core.nddisco import NDDiscoRouting
    from repro.dynamics import (
        ChurnEngine,
        events_from_workload,
        generate_churn_workload,
        maintenance_cost,
    )
    from repro.dynamics.churn import apply_event

    seed = 3
    sizes = [1024] if quick else [2**p for p in range(10, 16)]
    for n in sizes:
        num_events = 4 if quick else (8 if n <= 4096 else (4 if n <= 16384 else 2))
        topology = gnm_random_graph(n, seed=seed, average_degree=8.0)
        landmarks = select_landmarks(n, seed=seed)
        workload = generate_churn_workload(
            topology, num_events=num_events, seed=seed + 17
        )
        events = events_from_workload(workload.events)

        def before(topology=topology, landmarks=landmarks, workload=workload) -> None:
            current = topology
            state = NDDiscoRouting(current, seed=seed, landmarks=landmarks)
            for event in workload.events:
                current = apply_event(current, event)
                next_state = NDDiscoRouting(
                    current, seed=seed, landmarks=landmarks
                )
                maintenance_cost(state, next_state)
                state = next_state

        def after(topology=topology, landmarks=landmarks, events=events) -> None:
            engine = ChurnEngine(topology, seed=seed, landmarks=landmarks)
            engine.run(events)

        _entry(
            f"churn_scaling/gnm-{n}-events-{num_events}",
            {
                "family": "gnm",
                "n": n,
                "events": num_events,
                "landmarks": len(landmarks),
                "comparison": "per-event full reconvergence + state diff "
                "(replay oracle) vs event-driven incremental engine "
                "(including its one-time convergence), one size per entry",
            },
            before,
            after,
            repeats=1 if n >= 8192 else 2,
            results=results,
        )


def _resolution_scaling_case(results: dict[str, dict], *, quick: bool) -> None:
    """Resolution-placement n-curve: full-scan oracle vs the service ring.

    The workload is replica-set placement for every one of n flat names
    on the landmark shard set Disco would use at that scale
    (``select_landmarks``, so the shard count grows ~sqrt(n)), with 4
    virtual nodes per shard and r=2:

    * **before** -- :func:`repro.resolution.service.naive_successors` per
      name: recompute and sort every ring point, walk clockwise -- the
      brute-force oracle the differential suite pins the service against;
    * **after** -- one immutable :class:`VNodeRing` build plus a bisect
      ``successors`` call per name (the build is inside the timer, so the
      entry is the end-to-end cost of serving the batch from scratch).

    Both sides produce identical replica sets (pinned by
    ``tests/test_resolution_service.py``).  Lookup counts shrink with n
    to bound the quadratic oracle's wall clock; the ``lookups`` param
    records them.  Name hashes are precomputed outside the timers --
    both sides consume the same keys.
    """
    from repro.core.landmarks import select_landmarks
    from repro.naming import name_for_node
    from repro.resolution.service import VNodeRing, naive_successors

    virtual_nodes = 4
    replicas = 2
    sizes = [1024, 4096] if quick else [2**p for p in range(10, 16)]
    for n in sizes:
        shards = sorted(select_landmarks(n, seed=3))
        lookups = 2048 if n <= 8192 else (1024 if n == 16384 else 512)
        keys = [name_for_node(node).hash_value for node in range(lookups)]

        def before(shards=shards, keys=keys) -> None:
            for key in keys:
                naive_successors(
                    shards, key, replicas, virtual_nodes=virtual_nodes
                )

        def after(shards=shards, keys=keys) -> None:
            ring = VNodeRing(shards, virtual_nodes=virtual_nodes)
            for key in keys:
                ring.successors(key, replicas)

        _entry(
            f"resolution_scaling/gnm-{n}",
            {
                "family": "gnm",
                "n": n,
                "shards": len(shards),
                "virtual_nodes": virtual_nodes,
                "replicas": replicas,
                "lookups": lookups,
                "comparison": "per-lookup full-scan placement oracle vs "
                "one VNodeRing build + bisect successors per lookup",
            },
            before,
            after,
            repeats=1 if n >= 16384 else (2 if quick else 3),
            results=results,
        )


def _churn_case(results: dict[str, dict], *, quick: bool, repeats: int) -> None:
    """Event-driven churn maintenance vs the per-event replay oracle.

    The workload is the churn-cost scenario's core loop at Fig. 8 scale:
    a connectivity-preserving edge-churn stream on the comparison G(n,m)
    topology, with a per-event maintenance bill for each event:

    * **before** -- the replay oracle: rebuild a fully reconverged
      :class:`NDDiscoRouting` after every event and diff the two states
      (:func:`~repro.dynamics.maintenance.maintenance_cost`), exactly what
      the seed-era serial scenario did;
    * **after** -- the event-driven :class:`~repro.dynamics.engine.ChurnEngine`:
      converge once, then repair landmark SPT rows, vicinities, closest
      folds and addresses incrementally per event (timer includes the
      one-time convergence, so the ratio is end-to-end honest).

    Both sides produce bit-identical per-event bills (pinned by the
    differential tests in ``tests/test_dynamics_incremental.py``), so the
    ratio is a pure performance number.  Two event counts form the
    event-rate scaling curve: the replay side scales linearly with events
    while the engine amortizes its single convergence, so the speedup
    grows with the event rate.
    """
    from repro.core.landmarks import select_landmarks
    from repro.core.nddisco import NDDiscoRouting
    from repro.dynamics import (
        ChurnEngine,
        events_from_workload,
        generate_churn_workload,
        maintenance_cost,
    )
    from repro.dynamics.churn import apply_event

    n = 96 if quick else 256
    event_counts = (4, 8) if quick else (8, 32)
    seed = 3
    topology = gnm_random_graph(n, seed=seed, average_degree=8.0)
    landmarks = select_landmarks(n, seed=seed)

    for num_events in event_counts:
        workload = generate_churn_workload(
            topology, num_events=num_events, seed=seed + 17
        )
        events = events_from_workload(workload.events)

        def before(workload=workload) -> None:
            current = topology
            state = NDDiscoRouting(current, seed=seed, landmarks=landmarks)
            for event in workload.events:
                current = apply_event(current, event)
                next_state = NDDiscoRouting(
                    current, seed=seed, landmarks=landmarks
                )
                maintenance_cost(state, next_state)
                state = next_state

        def after(events=events) -> None:
            engine = ChurnEngine(topology, seed=seed, landmarks=landmarks)
            engine.run(events)

        _entry(
            f"churn/gnm-{n}-events-{num_events}",
            {
                "family": "gnm",
                "n": n,
                "events": num_events,
                "landmarks": len(landmarks),
                "comparison": "per-event full reconvergence + state diff "
                "(replay oracle) vs event-driven incremental engine "
                "(including its one-time convergence)",
            },
            before,
            after,
            repeats=repeats,
            results=results,
        )

    # -- steady-state throughput -------------------------------------------
    # Both sides start from a converged state built OUTSIDE the timer (the
    # replay oracle reuses one prebuilt NDDiscoRouting; the engine side
    # draws from a pool of prebuilt engines, one per timed call, since a
    # run mutates its engine).  What remains inside the timer is exactly
    # the sustained per-event maintenance work, so before_s/after_s are
    # the steady-state costs of absorbing the same event stream and the
    # derived events_per_s_* params are the throughput numbers the
    # engine's >= 10x acceptance is judged on.
    num_events = event_counts[-1]
    workload = generate_churn_workload(
        topology, num_events=num_events, seed=seed + 17
    )
    events = events_from_workload(workload.events)
    base_state = NDDiscoRouting(topology, seed=seed, landmarks=landmarks)
    pool = [
        ChurnEngine(topology, seed=seed, landmarks=landmarks)
        for _ in range(repeats)
    ]

    def steady_before() -> None:
        current = topology
        state = base_state
        for event in workload.events:
            current = apply_event(current, event)
            next_state = NDDiscoRouting(
                current, seed=seed, landmarks=landmarks
            )
            maintenance_cost(state, next_state)
            state = next_state

    def steady_after() -> None:
        pool.pop().run(events)

    name = f"churn/gnm-{n}-steady-{num_events}"
    _entry(
        name,
        {
            "family": "gnm",
            "n": n,
            "events": num_events,
            "landmarks": len(landmarks),
            "comparison": "sustained per-event maintenance from a prebuilt "
            "converged state: replay oracle (rebuild + diff per event) vs "
            "event-driven incremental engine",
        },
        steady_before,
        steady_after,
        repeats=repeats,
        results=results,
    )
    entry = results[name]
    entry["params"]["events_per_s_before"] = round(
        num_events / entry["before_s"], 1
    )
    entry["params"]["events_per_s_after"] = round(
        num_events / entry["after_s"], 1
    )


def _scenario_suite_case(
    results: dict[str, dict], *, quick: bool, workers: int | None, repeats: int
) -> None:
    """End-to-end scenario-engine suite: caching (and fan-out) vs cold serial.

    The workload is the quick-scale scenario subset that shares the most
    prerequisites: Figs. 2 and 3 measure the same three converged substrates
    (large-geometric, AS-level, router-level) from different angles, Fig. 7
    and the address study share the router-level NDDisco, and Fig. 10
    shares the AS-level Disco/S4:

    * **before** -- the scenario engine run serially with caching disabled,
      which performs exactly the work the pre-engine experiment layer did
      (every scenario rebuilds its own prerequisites);
    * **after** -- the same scenarios with a fresh in-memory artifact cache,
      so shared topologies and converged ``StaticSimulation`` substrates are
      built once (the ``/workers-N`` variant adds the process-pool fan-out
      on top, sharing one on-disk cache between workers).
    """
    import shutil
    import tempfile

    from repro.scenarios.cache import ArtifactCache
    from repro.scenarios.engine import run_scenarios

    ids = SUITE_IDS
    n = 96 if quick else 384
    scale = suite_scale(n, quick=quick)
    name = f"scenario_suite/quick5-{n}"
    params = {
        "scenarios": list(ids),
        "n": n,
        "comparison": "no-cache serial vs cached serial (same engine)",
    }
    _entry(
        name,
        params,
        lambda: run_scenarios(ids, scale=scale, workers=1, cache=None),
        lambda: run_scenarios(
            ids, scale=scale, workers=1, cache=ArtifactCache()
        ),
        repeats=repeats,
        results=results,
    )

    # -- warm vs cold disk cache ----------------------------------------
    # "before" = a cold run populating a fresh on-disk cache root;
    # "after" = the same suite against the populated root with a fresh
    # process-level memory cache, so every prerequisite is a disk hit and
    # every scheme shell rewires onto the shared substrate artifacts.
    # Memory for both sides (measured on separate, untimed runs so
    # tracemalloc overhead stays out of the wall-clock numbers) lands in
    # params: ``*_end_kb`` is the retained footprint with the run's cache
    # still alive -- substrate rewire-on-load is what keeps the warm
    # number at cold parity instead of one substrate copy per scheme --
    # while ``*_peak_kb`` additionally includes transient build /
    # unpickle allocations.
    def run_with_root(root: str) -> None:
        run_scenarios(ids, scale=scale, workers=1, cache=ArtifactCache(root))

    def traced_run(root: str) -> tuple[int, int]:
        return traced_suite_run(root, n=n, quick=quick)

    warm_root = tempfile.mkdtemp(prefix="repro-bench-warmcache-")
    cold_roots: list[str] = []
    try:
        cold_best = math.inf
        for _ in range(repeats):
            cold_root = tempfile.mkdtemp(prefix="repro-bench-coldcache-")
            cold_roots.append(cold_root)
            start = time.perf_counter()
            run_with_root(cold_root)
            cold_best = min(cold_best, time.perf_counter() - start)
        run_with_root(warm_root)  # populate
        warm_best = _best_of(lambda: run_with_root(warm_root), repeats)
        cold_end, cold_peak = traced_run(
            tempfile.mkdtemp(dir=cold_roots[0], prefix="traced-")
        )
        warm_end, warm_peak = traced_run(warm_root)
        results[f"scenario_suite_warm/quick5-{n}"] = {
            "params": {
                **params,
                "comparison": "cold disk cache (populating) vs warm disk "
                "cache (fresh memory cache, substrate rewire on load)",
                "cold_end_kb": round(cold_end / 1024.0, 1),
                "warm_end_kb": round(warm_end / 1024.0, 1),
                "cold_peak_kb": round(cold_peak / 1024.0, 1),
                "warm_peak_kb": round(warm_peak / 1024.0, 1),
            },
            "before_s": round(cold_best, 6),
            "after_s": round(warm_best, 6),
            "speedup": round(cold_best / warm_best, 3)
            if warm_best > 0
            else math.inf,
        }
    finally:
        shutil.rmtree(warm_root, ignore_errors=True)
        for root in cold_roots:
            shutil.rmtree(root, ignore_errors=True)

    if workers and workers > 1:

        def run_parallel_cold() -> None:
            # Fresh cache root per repeat: measures within-run dedup plus
            # the fan-out, not a warm disk cache from the previous repeat.
            cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
            try:
                run_scenarios(
                    ids, scale=scale, workers=workers, cache=cache_root
                )
            finally:
                shutil.rmtree(cache_root, ignore_errors=True)

        after_parallel = _best_of(run_parallel_cold, repeats)
        results[name + f"/workers-{workers}"] = {
            "params": {**params, "workers": workers},
            "before_s": results[name]["before_s"],
            "after_s": round(after_parallel, 6),
            "speedup": round(results[name]["before_s"] / after_parallel, 3),
        }


def write_bench_json(report: dict, path: str) -> None:
    """Write a :func:`bench_kernels` report to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
