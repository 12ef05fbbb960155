"""Slab-direct, multi-core substrate construction.

:func:`build_substrate_tables` writes the kernel results *straight into*
the preallocated row-major slabs of a :class:`SubstrateTables`:

* **Landmark SPT rows** -- every landmark's dense distance / parent rows
  land in their slab rows from one call
  (:meth:`CSRGraph.spt_rows_batch_into`); no ``2n`` boxed floats per
  landmark.
* **Closest-landmark rows** -- folded in the same call (ascending landmark
  order, strict ``<``, best distance seeded at ``+inf``: the smaller
  landmark id wins ties).  A node a landmark does not reach holds ``inf``
  / ``-1`` in that landmark's rows, and ``-1`` / ``inf`` as its closest
  landmark when none does: the schemes reject disconnected graphs, the
  churn engine lives on them.
* **Vicinity CSR** -- per-node truncated searches gathered directly into
  the member / distance / parent slabs
  (:meth:`CSRGraph.k_nearest_batch_into`); no per-node dict pairs are
  materialized.
* **Address payloads** -- explicit-route paths walked directly over the
  parent slab and encoded into the address slabs.

Both search phases fan out over in-kernel threads (``threads=N``), the only
kernel-level parallelism: each source owns a disjoint slab range, so any
width produces byte-identical slabs.  On the C tier each phase is one
batched kernel call; the per-source loop is the pure-Python tier's, and a
C call that could not allocate degrades to it (one ``RuntimeWarning``).

This is the one convergence path: the schemes adopt its result through
their ``from_tables`` (``NDDiscoRouting`` / ``S4Routing``), and
:class:`~repro.dynamics.engine.ChurnEngine` repairs it in place per event
(``codec=None``; the engine keeps addresses in its own shape).

Slabs can outgrow RAM: ``storage`` selects where the big slabs live (RAM
arrays, anonymous mmap, or a file-backed slab directory -- see
:class:`repro.core.tables.SlabArena`), and ``vicinity_storage`` overrides
the choice for the vicinity slabs so e.g. a million-node build can put the
SPT slabs on disk and keep the vicinity slabs in anonymous mmap.

The dict-shaped component-wise build this replaced is the layer's test
oracle (``tests/oracles/component_build.py``);
``tests/test_substrate_build.py`` asserts all slabs byte-identical across
that reference, threaded builds, and an mmap re-attach.
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
from repro.graphs.csr import kernel_threads
from repro.graphs.topology import Topology

__all__ = [
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


def build_substrate_tables(
    topology: Topology,
    landmarks: Iterable[int],
    *,
    codec: "object | None" = None,
    size: int | None = None,
    vicinity_scale: float = 1.0,
    include_vicinity: bool = True,
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
        The network.
    landmarks:
        The landmark node ids (any iterable; processed in ascending order).
    codec:
        Optional :class:`~repro.addressing.labels.LabelCodec`; enables the
        address payload slabs.
    size / vicinity_scale:
        Vicinity sizing (explicit size wins; default is the paper's
        ``ceil(scale * sqrt(n ln n))``).
    include_vicinity:
        ``False`` builds landmark-only tables (S4's own substrate build).
    threads:
        In-kernel thread fan-out for the SPT and vicinity phases.  On the
        C tier each phase is one batched C call (``spt_rows_batch`` /
        ``k_nearest_batch``) fanned over POSIX threads with per-thread
        scratch arenas; ``None`` resolves via
        :func:`repro.graphs.csr.kernel_threads` (``REPRO_KERNEL_THREADS``,
        then the CPU count); anything but a positive integer raises.  The
        pure-Python tier runs a per-source loop.  Results are
        byte-identical for every width.
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
    csr = topology.csr()
    width = kernel_threads(threads)
    _record(stats, "kernel_threads", width if csr.tier == "c" else 0)

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
    spt_parent_mv = memoryview(spt_parent)
    closest_dist = array("d", [inf]) * n
    closest = array("q", [-1]) * n
    # The landmark loop, the fill repair and the ascending closest fold,
    # fanned over the batch threads (byte-identical for every width).
    csr.spt_rows_batch_into(
        landmark_ids,
        spt_dist,
        spt_parent,
        fill=inf,
        closest_dist=closest_dist,
        closest_landmark=closest,
        threads=width,
    )
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
            if landmark < 0:
                raise ValueError(
                    f"node {node} reaches no landmark: the topology is not "
                    "connected"
                )
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
        # All n searches; source i provisionally owns slab range
        # i * min(size, n) -- exactly this preallocated capacity -- and
        # rows compact left after the thread join, reproducing the serial
        # append layout byte for byte.
        position = csr.k_nearest_batch_into(
            size, range(n), members, dists, parents, offsets, threads=width
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


def build_ball_tables(
    topology: Topology,
    radii: Sequence[float],
    *,
    threads: int | None = None,
) -> NodeSearchTables:
    """S4 reverse clusters ("balls") as one flat :class:`NodeSearchTables`.

    ``radii[v]`` bounds node ``v``'s search (strict boundary, the S4
    cluster definition); rows are gathered flat -- no per-node dicts.  The
    batch goes down in one ``radius_batch`` kernel call, fanned over
    ``threads`` in-kernel threads.  Row ``v`` holds the nodes within
    ``radii[v]`` of ``v`` in settle order, ``v`` first.
    """
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
