"""Slab-direct, multi-core substrate construction.

:func:`build_substrate_tables` produces the same :class:`SubstrateTables`
that :meth:`SubstrateTables.from_components` assembles from dict-shaped
kernel outputs -- bit-identical, slab for slab -- but writes the kernel
results *straight into* preallocated row-major slabs:

* **Landmark SPT rows** -- each landmark's dense distance / parent rows are
  copied from the search arena into their slab rows with two C-level slice
  assignments (:meth:`CSRGraph.spt_rows_into`); no ``2n`` boxed floats per
  landmark.
* **Closest-landmark rows** -- folded incrementally per SPT row by the
  ``closest_update`` C helper (ascending landmark order, strict ``<``, best
  distance seeded at ``+inf`` -- provably the same tie-break as the
  reference sweep in :func:`repro.core.landmarks.closest_landmarks`).
* **Vicinity CSR** -- per-node truncated searches gathered directly into
  the member / distance / parent slabs (:meth:`CSRGraph.k_nearest_into`);
  the per-node dict pairs and :class:`VicinityTable` objects of the
  component-wise path are never materialized.
* **Address payloads** -- explicit-route paths walked directly over the
  parent slab and encoded into the address slabs.

A worker fan-out layers on top (``workers=N``): landmark SPTs and per-node
vicinity searches partition contiguously over a :class:`SharedCSR`
publication, workers return flat typed rows (raw bytes over the pipe, no
dict pickling), and the parent performs one deterministic merge -- chunk
results are consumed in task order and written into disjoint slab ranges,
so any worker count produces byte-identical slabs.

Slabs can outgrow RAM: ``storage`` selects where the big slabs live (RAM
arrays, anonymous mmap, or a file-backed slab directory -- see
:class:`repro.core.tables.SlabArena`), and ``vicinity_storage`` overrides
the choice for the vicinity slabs so e.g. a million-node build can put the
SPT slabs on disk and keep the vicinity slabs in anonymous mmap.

:meth:`SubstrateTables.from_components` over the public component
functions stays as this layer's reference (the schemes take it for injected
vicinities and under ``use_engine("reference")``);
``tests/test_substrate_build.py`` asserts all slabs byte-identical across
that reference, the slab-direct serial path, a 2-worker build, and an mmap
re-attach.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from math import inf
from typing import Callable, Iterable, Sequence

from repro.core.tables import NodeSearchTables, SlabArena, SubstrateTables
from repro.core.vicinity import vicinity_size as default_vicinity_size
from repro.graphs import _ckernels
from repro.graphs.csr import (
    _chunks,
    _k_nearest_flat_chunk,
    _pool_args,
    _publish_csr,
    kernel_threads,
)
from repro.graphs.topology import Topology

__all__ = [
    "apply_maintenance",
    "build_substrate_tables",
    "build_ball_tables",
    "cluster_sizes_from_members",
]


def _progress(callback: Callable[[str], None] | None, message: str) -> None:
    if callback is not None:
        callback(message)


def _record(stats: dict | None, key: str, value) -> None:
    if stats is not None:
        stats[key] = value


def _closest_update(
    clib, n: int, dist_row, landmark: int, best_dist, best_landmark, p_best
) -> None:
    """Fold one SPT distance row into the running closest-landmark rows."""
    if clib is not None:
        p_row = (ctypes.c_double * n).from_buffer(dist_row)
        clib.closest_update(n, p_row, landmark, p_best[0], p_best[1])
        return
    for node in range(n):
        d = dist_row[node]
        if d < best_dist[node]:
            best_dist[node] = d
            best_landmark[node] = landmark


def _spt_rows_chunk(sources: list[int]) -> tuple[array, array]:
    """Worker: dense SPT rows for a chunk of landmarks, as two flat arrays."""
    from repro.graphs import csr as csr_module

    graph = csr_module._WORKER_CSR
    assert graph is not None
    n = graph.num_nodes
    dist = array("d", bytes(8 * n * len(sources)))
    parent = array("q", bytes(8 * n * len(sources)))
    dist_mv = memoryview(dist)
    parent_mv = memoryview(parent)
    for index, source in enumerate(sources):
        graph.spt_rows_into(
            source,
            dist_mv[index * n : (index + 1) * n],
            parent_mv[index * n : (index + 1) * n],
        )
    return dist, parent


def build_substrate_tables(
    topology: Topology,
    landmarks: Iterable[int],
    *,
    codec: "object | None" = None,
    size: int | None = None,
    vicinity_scale: float = 1.0,
    include_vicinity: bool = True,
    workers: int | None = None,
    threads: int | None = None,
    storage: "str | None" = None,
    vicinity_storage: "str | None" = None,
    persist: bool = True,
    stats: dict | None = None,
    progress: Callable[[str], None] | None = None,
) -> SubstrateTables:
    """Build converged :class:`SubstrateTables` slab-direct.

    Parameters
    ----------
    topology:
        The network (CSR engine; the reference engine keeps using the
        component-wise ``from_components`` path).
    landmarks:
        The landmark node ids (any iterable; processed in ascending order).
    codec:
        Optional :class:`~repro.addressing.labels.LabelCodec`; enables the
        address payload slabs, exactly as in ``from_components``.
    size / vicinity_scale:
        Vicinity sizing (explicit size wins; default is the paper's
        ``ceil(scale * sqrt(n ln n))``).
    include_vicinity:
        ``False`` builds landmark-only tables (S4's own substrate build).
    workers:
        Opt-in process fan-out for the SPT and vicinity phases; results
        are byte-identical for any worker count.  When given (> 1), it
        takes precedence over ``threads`` -- the ``SharedCSR`` pool is
        kept as the differential oracle for the deterministic merge.
    threads:
        In-kernel thread fan-out for the SPT and vicinity phases -- the
        default parallel path on the C tier.  Each phase is one batched C
        call (``spt_rows_batch`` / ``k_nearest_batch``) fanned over POSIX
        threads with per-thread scratch arenas; ``None`` resolves via
        :func:`repro.graphs.csr.kernel_threads` (``REPRO_KERNEL_THREADS``,
        then the CPU count), ``0`` forces the historical per-source serial
        loop.  Results are byte-identical for every width.
    storage / vicinity_storage:
        Slab placement (see :class:`~repro.core.tables.SlabArena`):
        ``None``/``"array"`` for RAM arrays, ``"mmap"`` for anonymous mmap,
        or a directory path for file-backed slabs.  ``vicinity_storage``
        overrides ``storage`` for the vicinity slabs.
    persist:
        When a directory arena is in play, finish it into a complete
        mmap-attachable slab artifact (write the manifest plus any slabs
        living outside the directory).  Pass ``False`` when slabs are
        deliberately split across media (e.g. SPT slabs on a small disk,
        vicinity in anonymous mmap) and copying the off-disk slabs in
        would not fit.
    stats / progress:
        Optional instrumentation: ``stats`` (a dict) receives per-phase
        wall-clock seconds and slab byte counts; ``progress`` receives
        one human-readable line per phase.
    """
    n = topology.num_nodes
    ordered = sorted(set(landmarks))
    if not ordered:
        raise ValueError("at least one landmark is required")
    if ordered[0] < 0 or ordered[-1] >= n:
        raise ValueError(f"landmark ids must be in [0, {n}); got {ordered[0]}, {ordered[-1]}")
    num_landmarks = len(ordered)
    worker_count = max(1, workers or 1)
    clib = _ckernels.load_kernels()
    csr = topology.csr()
    # The in-kernel batch drivers are the default fan-out on the C tier;
    # an explicit worker pool takes precedence (it is the differential
    # oracle for the deterministic merge), and threads=0 pins the
    # historical per-source serial loop.
    batch_tier = csr.tier == "c" and threads != 0 and worker_count <= 1
    _record(
        stats, "kernel_threads", kernel_threads(threads) if batch_tier else 0
    )

    arena = SlabArena(storage)
    vicinity_arena = (
        arena
        if vicinity_storage is None or vicinity_storage == storage
        else SlabArena(vicinity_storage)
    )

    # -- landmark SPT rows + closest-landmark fold --------------------------
    started = time.perf_counter()
    landmark_ids = array("q", ordered)
    spt_dist = arena.alloc("spt_dist", "d", num_landmarks * n)
    spt_parent = arena.alloc("spt_parent", "q", num_landmarks * n)
    spt_dist_mv = memoryview(spt_dist)
    spt_parent_mv = memoryview(spt_parent)
    closest_dist = array("d", [inf]) * n
    closest = array("q", [-1]) * n
    p_best = (
        (
            (ctypes.c_double * n).from_buffer(closest_dist),
            (ctypes.c_int64 * n).from_buffer(closest),
        )
        if clib is not None and not batch_tier
        else (None, None)
    )

    def fold_row(index: int, landmark: int) -> None:
        _closest_update(
            clib,
            n,
            spt_dist_mv[index * n : (index + 1) * n],
            landmark,
            closest_dist,
            closest,
            p_best,
        )

    if worker_count > 1 and num_landmarks >= 2 * worker_count:
        from multiprocessing import Pool

        chunks = _chunks(ordered, worker_count * 4)
        shared = _publish_csr(topology, None)
        initializer, initargs = _pool_args(topology, None, shared)
        try:
            with Pool(
                worker_count, initializer=initializer, initargs=initargs
            ) as pool:
                index = 0
                # imap preserves task order: chunk c's rows land at row
                # index sum(len(chunks[:c])) regardless of which worker
                # finished first, and the closest fold consumes rows in
                # ascending landmark order -- the deterministic merge.
                for chunk, (dist_block, parent_block) in zip(
                    chunks, pool.imap(_spt_rows_chunk, chunks)
                ):
                    start = index * n
                    end = start + len(chunk) * n
                    spt_dist_mv[start:end] = memoryview(dist_block)
                    spt_parent_mv[start:end] = memoryview(parent_block)
                    for landmark in chunk:
                        fold_row(index, landmark)
                        index += 1
        finally:
            if shared is not None:
                shared.close()
    elif batch_tier:
        # One C call for the whole phase: the landmark loop, the fill
        # repair, and the ascending closest fold all run in-kernel, fanned
        # over the batch threads (byte-identical for every width).
        csr.spt_rows_batch_into(
            landmark_ids,
            spt_dist,
            spt_parent,
            closest_dist=closest_dist,
            closest_landmark=closest,
            threads=threads,
        )
    else:
        for index, landmark in enumerate(ordered):
            csr.spt_rows_into(
                landmark,
                spt_dist_mv[index * n : (index + 1) * n],
                spt_parent_mv[index * n : (index + 1) * n],
            )
            fold_row(index, landmark)
    p_best = None
    elapsed = time.perf_counter() - started
    _record(stats, "spt_seconds", elapsed)
    _progress(
        progress,
        f"landmark SPTs: {num_landmarks} trees x {n} nodes in {elapsed:.1f}s",
    )

    # -- address payloads ---------------------------------------------------
    started = time.perf_counter()
    addr_offsets = array("q", [0])
    addr_path = array("q")
    addr_labels = array("q")
    addr_bits = array("q")
    if codec is not None:
        landmark_pos = {landmark: i for i, landmark in enumerate(ordered)}
        encode_path = codec.encode_path
        path_bits = codec.path_bits
        position = 0
        for node in range(n):
            landmark = closest[node]
            base = landmark_pos[landmark] * n
            path = [node]
            current = node
            steps = 0
            while current != landmark:
                parent = spt_parent_mv[base + current]
                if parent < 0 or steps > n:
                    raise ValueError(
                        f"node {node} not reachable from root {landmark}"
                    )
                path.append(parent)
                current = parent
                steps += 1
            path.reverse()
            addr_path.extend(path)
            addr_labels.extend(encode_path(path))
            addr_labels.append(-1)  # row terminator keeps rows aligned
            addr_bits.append(path_bits(path))
            position += len(path)
            addr_offsets.append(position)
    elapsed = time.perf_counter() - started
    _record(stats, "address_seconds", elapsed)
    if codec is not None:
        _progress(progress, f"addresses: {n} routes in {elapsed:.1f}s")

    # -- vicinity CSR -------------------------------------------------------
    vicinity = None
    if include_vicinity:
        started = time.perf_counter()
        if size is None:
            size = default_vicinity_size(n, scale=vicinity_scale)
        capacity = n * min(size, n)
        offsets = array("q", [0])
        members = vicinity_arena.alloc("vicinity.members", "q", capacity)
        dists = vicinity_arena.alloc("vicinity.dists", "d", capacity)
        parents = vicinity_arena.alloc("vicinity.parents", "q", capacity)
        if worker_count > 1 and n >= 4 * worker_count:
            from multiprocessing import Pool

            members_mv = memoryview(members)
            dists_mv = memoryview(dists)
            parents_mv = memoryview(parents)
            node_chunks = _chunks(list(range(n)), worker_count * 4)
            tasks = [(size, chunk) for chunk in node_chunks]
            shared = _publish_csr(topology, None)
            initializer, initargs = _pool_args(topology, None, shared)
            try:
                with Pool(
                    worker_count, initializer=initializer, initargs=initargs
                ) as pool:
                    position = 0
                    for c_off, c_mem, c_d, c_p in pool.imap(
                        _k_nearest_flat_chunk, tasks
                    ):
                        end = position + len(c_mem)
                        members_mv[position:end] = memoryview(c_mem)
                        dists_mv[position:end] = memoryview(c_d)
                        parents_mv[position:end] = memoryview(c_p)
                        offsets.extend(
                            [position + offset for offset in c_off[1:]]
                        )
                        position = end
            finally:
                if shared is not None:
                    shared.close()
            members_mv.release()
            dists_mv.release()
            parents_mv.release()
        elif batch_tier:
            # One C call for all n searches; source i provisionally owns
            # slab range i * min(size, n) -- exactly this preallocated
            # capacity -- and rows compact left after the thread join,
            # reproducing the serial append layout byte for byte.
            position = csr.k_nearest_batch_into(
                size, range(n), members, dists, parents, offsets,
                threads=threads,
            )
        else:
            position = csr.k_nearest_into(
                size, range(n), members, dists, parents, offsets
            )
        if position < capacity:
            # Disconnected components settled fewer than ``size`` nodes;
            # shrink the preallocated slabs to the actual fill.
            if isinstance(members, memoryview):
                members.release()
                dists.release()
                parents.release()
            members = vicinity_arena.trim("vicinity.members", position)
            dists = vicinity_arena.trim("vicinity.dists", position)
            parents = vicinity_arena.trim("vicinity.parents", position)
        vicinity = NodeSearchTables(n, offsets, members, dists, parents)
        elapsed = time.perf_counter() - started
        _record(stats, "vicinity_seconds", elapsed)
        _progress(
            progress,
            f"vicinities: {n} searches (k={size}) in {elapsed:.1f}s",
        )

    tables = SubstrateTables(
        n,
        landmark_ids,
        spt_dist,
        spt_parent,
        closest,
        closest_dist,
        vicinity,
        addr_offsets,
        addr_path,
        addr_labels,
        addr_bits,
    )
    if persist and (arena.mode == "dir" or vicinity_arena.mode == "dir"):
        # Complete the slab directory: the big slabs already live there as
        # final .bin files, so only the remaining slabs and the manifest are
        # written -- the directory is now mmap-attachable.  Slabs parked in
        # a *different* arena (e.g. vicinity in anonymous mmap, or a second
        # directory) are not skipped: save_slabs copies them into the
        # artifact root so the directory is self-contained.
        arena.flush()
        vicinity_arena.flush()
        root = arena.root if arena.mode == "dir" else vicinity_arena.root
        skip = arena.file_slabs if arena.mode == "dir" else set()
        if vicinity_arena is not arena and vicinity_arena.root == root:
            skip |= vicinity_arena.file_slabs
        tables.save_slabs(root, skip=skip)
    _record(stats, "slab_bytes", tables.slab_bytes())
    return tables


def apply_maintenance(
    tables: SubstrateTables, engine, *, codec: "object | None" = None
) -> "object":
    """Catch a :class:`SubstrateTables` snapshot up with a churn engine.

    Consumes the engine's accumulated dirty sets
    (:meth:`~repro.dynamics.engine.ChurnEngine.take_dirty`) and patches
    only the touched slab entries: SPT rows, closest-landmark rows,
    vicinity rows (rebuilt, untouched rows copied wholesale), and -- when a
    ``codec`` built on the *mutated* topology is given -- the address
    payload slabs.  The patched slabs are bit-identical to rebuilding the
    tables from scratch on the engine's current topology, provided that
    topology is connected (the dense slab rows cannot represent
    unreachable nodes); the churn differential tests pin exactly this.

    Returns the consumed :class:`~repro.dynamics.engine.DirtyState` so
    callers can account for the patch volume.
    """
    dirty = engine.take_dirty()
    for landmark in sorted(dirty.rows):
        nodes = dirty.rows[landmark]
        dist_row, parent_row = engine.landmark_row(landmark)
        tables.patch_spt_row(landmark, sorted(nodes), dist_row, parent_row)
    if dirty.closest:
        closest_row, closest_dist_row = engine.closest_landmark_rows
        tables.patch_closest(
            sorted(dirty.closest), closest_row, closest_dist_row
        )
    if dirty.vicinities and tables.vicinity is not None:
        updates = {
            node: engine.vicinity_row(node) for node in dirty.vicinities
        }
        tables.replace_vicinity(tables.vicinity.with_rows(updates))
    if codec is not None and len(tables.addr_offsets) == tables.num_nodes + 1:
        tables.patch_addresses(sorted(dirty.addresses), codec)
    return dirty


def build_ball_tables(
    topology: Topology,
    radii: Sequence[float],
    *,
    workers: int | None = None,
    threads: int | None = None,
) -> NodeSearchTables:
    """S4 reverse clusters ("balls") as one flat :class:`NodeSearchTables`.

    ``radii[v]`` bounds node ``v``'s search (strict boundary, the S4
    cluster definition); rows are gathered flat -- no per-node dicts, and
    with ``workers > 1`` no dict pickling over the pool pipe.  Without a
    worker pool the batch goes down in one ``radius_batch`` kernel call,
    fanned over ``threads`` in-kernel threads (``0`` pins the serial
    loop).  Contents are bit-identical to
    ``NodeSearchTables.from_searches(parallel_radius(...))`` either way.
    """
    from repro.graphs.csr import parallel_radius_flat

    worker_count = max(1, workers or 1)
    if worker_count > 1:
        offsets, members, dists, parents = parallel_radius_flat(
            topology, radii, workers=worker_count
        )
    else:
        offsets, members, dists, parents = topology.csr().radius_batch_flat(
            radii, threads=threads
        )
    return NodeSearchTables(topology.num_nodes, offsets, members, dists, parents)


def cluster_sizes_from_members(members, num_nodes: int) -> array:
    """Per-node S4 cluster sizes from a flat ball-members slab.

    ``cluster_size(w)`` counts the nodes whose ball contains ``w``,
    excluding ``w``'s own ball membership of itself: every row starts with
    its owner, so the count is the member bincount minus one.
    """
    counts = array("q", bytes(8 * num_nodes))
    clib = _ckernels.load_kernels()
    total = len(members)
    if clib is not None and total:
        p_members = (ctypes.c_int64 * total).from_buffer(memoryview(members))
        p_counts = (ctypes.c_int64 * num_nodes).from_buffer(counts)
        clib.bincount_i64(p_members, total, p_counts)
    else:
        for member in members:
            counts[member] += 1
    for node in range(num_nodes):
        counts[node] -= 1
    return counts
