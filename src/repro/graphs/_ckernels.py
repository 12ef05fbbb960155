"""On-demand compiler/loader for the C shortest-path kernels.

``_kernels.c`` (shipped next to this module) implements the indexed 4-ary
heap, the Dial bucket queue, and the unit-weight level-ordered BFS at C
speed, behind batched entry points only, plus the churn engine's per-event
passes, Disco's overlay finger draws, ND-Disco's landmark relays and the
accounting of a measurement batch's routes.  This module compiles it with
the system C compiler the first time it is needed and memoizes the loaded
``ctypes`` library; everything degrades gracefully:

* no compiler, a failed compile, or a failed load -> :func:`load_kernels`
  returns ``None`` and :mod:`repro.graphs.csr` silently uses its one
  pure-Python search, the lazy-``heapq`` Dijkstra, whatever the weight
  profile (bit-identical results, just slower), and the churn passes their
  Python twins;
* ``REPRO_NO_CKERNELS=1`` in the environment forces the pure-Python tier
  (used by the test suite to cover both tiers);
* the shared object is cached under ``_build/`` beside this file, keyed by
  a hash of the C source and of ``REPRO_KERNEL_CFLAGS`` (so sanitizer and
  plain builds never collide), falling back to a per-user directory under
  the temp directory when the package directory is not writable; a cached
  object is loaded only when it and its directory belong to this user and
  no one else can write them.

The build is a single translation unit with no Python.h dependency, so it
needs only a C compiler, not Python development headers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile

__all__ = [
    "load_kernels",
    "build_error",
    "buffer_arg",
    "check_status",
    "NO_SCRATCH_WARNING",
]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
#: Where the shared object is cached, unless it is not writable.
_BUILD_DIR = os.path.join(os.path.dirname(_SOURCE), "_build")

_lib: ctypes.CDLL | None = None
_attempted = False
_build_error: str | None = None

_I64 = ctypes.c_int64
_PI64 = ctypes.POINTER(ctypes.c_int64)
_PDBL = ctypes.POINTER(ctypes.c_double)
_PU64 = ctypes.POINTER(ctypes.c_uint64)

# The batched entry points share a common prefix: graph slabs, kernel
# selector (0 heap / 1 dial / 2 bfs) with the dial parameters, and the
# source array.  Each thread builds its own scratch arena in C.
_BATCH_COMMON = [
    _I64,                    # n
    _PI64, _PI64, _PDBL,     # offsets, neighbors, weights
    _I64,                    # kernel id
    ctypes.c_double, _I64,   # quantum, num_slots
    _PI64, _I64,             # sources, num_sources
]

_SPT_BATCH_ARGTYPES = _BATCH_COMMON + [
    _PDBL, _PI64,            # dist_out, parent_out (num_sources * n rows)
    ctypes.c_double,         # fill
    _PDBL, _PI64,            # best_dist, best_landmark (NULL: no fold)
    _I64,                    # threads
]

_KNEAREST_BATCH_ARGTYPES = _BATCH_COMMON + [
    _I64,                    # k
    _PI64, _PDBL, _PI64,     # members, dists, parents
    _PI64,                   # row_ends
    _I64,                    # threads
]

_RADIUS_BATCH_ARGTYPES = _BATCH_COMMON + [
    _PDBL, _I64,             # radii, radius_mode
    _PI64,                   # row_ends
    ctypes.POINTER(_PI64), ctypes.POINTER(_PDBL), ctypes.POINTER(_PI64),
    _I64,                    # threads
]

_TARGET_BATCH_ARGTYPES = _BATCH_COMMON + [
    _PI64, _PI64,            # tgt_offsets, tgt_nodes
    _PDBL,                   # dist_out (aligned with tgt_nodes)
    _I64,                    # threads
]

# The churn layer: one call per event and pass, serial, over the engine's
# flat slabs (see the "churn layer" section of _kernels.c).
_REPAIR_ROWS_ARGTYPES = [
    _I64,                    # n
    _PI64, _PI64, _PDBL,     # offsets, neighbors, weights (mutated graph)
    _PI64, _I64,             # roots, num_rows
    _PDBL, _PI64,            # dist, parent slabs (num_rows * n)
    _I64, _PI64, _I64,       # mode, ids, num_ids
    _PI64, _PI64, _PI64,     # rows, dist_ends, parent_ends (num_rows each)
    ctypes.POINTER(_PI64), ctypes.POINTER(_PI64),  # malloc'd id lists
]

_CLOSEST_REFOLD_ARGTYPES = [
    _I64,                    # n
    _PI64, _PI64,            # offsets, neighbors (mutated graph)
    _PI64, _I64,             # roots, num_rows
    _PDBL, _PI64,            # dist, parent slabs
    _PI64, _I64,             # rows, num_changed (repair_rows' output ...)
    _PI64, _PI64, _I64,      # dist_ends, dist_changed, dist_total
    _PI64, _PI64, _I64,      # parent_ends, parent_changed, parent_total
    _PI64, _PDBL,            # closest, closest_dist (n each)
    _PI64,                   # changed (n slots)
]

_VICINITY_CANDIDATES_ARGTYPES = [
    _I64,                    # n
    _PDBL, _PDBL,            # row_u, row_v (NULL: one endpoint)
    _PDBL,                   # radius
    _PI64, _I64,             # arcs (2 * num_arcs ids), num_arcs
    _PDBL,                   # weights (num_arcs; NULL: the arcs worsen)
    _I64,                    # stride
    _PI64, _PDBL, _PI64,     # stored members, dists, parents (n * stride)
    _PI64,                   # lengths (n)
    _PI64,                   # out (n slots)
]

_VICINITY_REPAIR_ARGTYPES = [
    _I64,                    # n
    _PI64, _PI64, _PDBL,     # offsets, neighbors, weights (mutated graph)
    _PI64, _I64,             # sources, num_sources
    _PI64, _I64,             # candidates, num_candidates
    _I64,                    # stride
    _PI64, _PDBL, _PI64,     # stored members, dists, parents (n * stride)
    _PI64,                   # lengths (n)
    _PI64, _PDBL, _PI64,     # out members, dists, parents (rows * stride)
]

_VICINITY_COMMIT_ARGTYPES = [
    _I64, _I64,              # n, stride
    _PI64, _I64,             # candidates, num_candidates
    _PI64,                   # offsets (num_candidates + 1)
    _PI64, _PDBL, _PI64, _I64,  # fresh members, dists, parents, total
    _PI64, _PDBL, _PI64,     # stored members, dists, parents (n * stride)
    _PI64, _PDBL,            # lengths, radius (n each)
    _PI64, _PI64,            # changed (num_candidates slots), billed (1)
]

# The overlay layer: Disco's finger draws, one call per overlay build.
_OVERLAY_FINGERS_ARGTYPES = [
    _I64, _I64,              # n, num_fingers
    _PI64, _PU64, _PI64,     # ring order, sorted hashes, position
    _PI64, _PU64,            # prefix bits, random.Random seeds
    _PI64,                   # fingers (n * num_fingers, -1 padded)
]

# The routing layer: ND-Disco's landmark relays, one call per measurement
# batch (see the "routing layer" section of _kernels.c).
_RELAY_ROUTES_ARGTYPES = [
    _I64,                    # n
    _PI64, _PI64, _PDBL,     # offsets, neighbors, weights
    _PI64, _I64,             # landmark ids, count
    _PI64, _PI64,            # spt_parent (|L| * n), closest (n)
    _PI64, _PI64,            # vicinity offsets, lengths (NULL: packed)
    _PI64, _PI64, _I64,      # vicinity members, parents, their length
    _I64, _I64,              # per_hop (0 none / 1 to-destination), reverse
    _PI64, _I64,             # pairs (2 * num_pairs ids), num_pairs
    _PI64, _PI64,            # route_ends, status (num_pairs each)
    ctypes.POINTER(_PI64),   # malloc'd routes
]

# ... and the accounting of a measurement batch's routes, one call per batch.
_ROUTE_WALKS_ARGTYPES = [
    _I64,                    # n
    _PI64, _PI64, _PDBL,     # offsets, neighbors, weights
    _PI64, _PI64, _I64,      # nodes, route_ends, num_routes
    _PDBL, _PI64,            # lengths, status (num_routes each)
    ctypes.POINTER(_PI64),   # malloc'd (lo, hi, count) triples
]

#: The warning of a batched call that could not allocate, before its caller
#: takes the Python tier instead (format with the entry point's name).
NO_SCRATCH_WARNING = (
    "{} could not allocate its scratch; running the Python tier "
    "instead (same output, slower)"
)

_CTYPES = {"q": ctypes.c_int64, "Q": ctypes.c_uint64, "d": ctypes.c_double}


def buffer_arg(
    buffer, typecode: str, length: int, name: str, *, base: int | None = None
):
    """``buffer`` as a ctypes array argument, after checking what C cannot.

    The C entry points index their buffers by ``n``, row counts and strides
    they are *told*; a short buffer or one of the wrong item type is an
    out-of-bounds access there, not an exception.  This raises ``TypeError``
    unless ``buffer`` is a writable, contiguous, one-dimensional buffer of
    ``typecode`` (``'q'``, ``'Q'`` or ``'d'``) items and ``ValueError``
    unless it holds exactly ``length`` of them -- or, with ``base``, at least
    ``length`` of them from position ``base`` on, where the returned array
    then starts.  Returns ``None`` (a NULL pointer) for ``length == 0``.
    """
    try:
        view = memoryview(buffer)
    except TypeError:
        raise TypeError(f"{name} must be a buffer, got {type(buffer).__name__}")
    if view.format != typecode or view.ndim != 1 or not view.c_contiguous:
        raise TypeError(
            f"{name} must be a contiguous buffer of {typecode!r} items, "
            f"got format {view.format!r}"
        )
    if view.readonly:
        raise TypeError(f"{name} must be writable")
    if base is None:
        if len(view) != length:
            raise ValueError(
                f"{name} must hold exactly {length} entries, got {len(view)}"
            )
        base = 0
    elif base < 0 or len(view) < base + length:
        raise ValueError(
            f"{name} must hold at least {length} entries from position "
            f"{base} on, got {len(view)}"
        )
    if not length:
        return None
    return (_CTYPES[typecode] * length).from_buffer(view, 8 * base)


def check_status(status: int, name: str) -> None:
    """Raise for the negative status codes the churn entry points share."""
    if status == -1:
        raise MemoryError(f"{name} could not allocate its scratch")
    if status < 0:
        raise ValueError(f"{name} was given an id or offset out of range")


def _compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _private(path: str) -> bool:
    """Whether ``path`` belongs to this user, is not a symlink, and is
    writable by no one else (so no other user can have planted it)."""
    info = os.lstat(path)
    return (
        not stat.S_ISLNK(info.st_mode)
        and info.st_uid == os.getuid()
        and not info.st_mode & 0o022
    )


def _compile(source_path: str) -> str | None:
    """Compile ``_kernels.c``; return the cached .so path or ``None``."""
    global _build_error
    cc = _compiler()
    if cc is None:
        _build_error = "no C compiler found (cc/gcc/clang)"
        return None
    # REPRO_KERNEL_CFLAGS appends extra flags (e.g. -fsanitize=thread for
    # the CI data-race leg); they join the cache key so instrumented and
    # plain builds never collide.
    extra_flags = os.environ.get("REPRO_KERNEL_CFLAGS", "").split()
    with open(source_path, "rb") as handle:
        hasher = hashlib.sha256(handle.read())
    hasher.update(" ".join(extra_flags).encode())
    digest = hasher.hexdigest()[:16]
    tag = f"_kernels-{digest}-{sys.implementation.cache_tag}.so"
    # Only a directory and an object that no other user can write are
    # trusted: under the shared temp directory another user could plant
    # an object at this predictable name.
    user_dir = os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )
    for directory in (_BUILD_DIR, user_dir):
        target = os.path.join(directory, tag)
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            if not _private(directory):
                _build_error = f"{directory} is not private to this user"
                continue
            if os.path.exists(target) and _private(target):
                return target
            # Compile to a unique temp name, then atomically rename, so
            # concurrent builders (e.g. multiprocessing workers on a cold
            # cache) never load a half-written object.
            fd, scratch = tempfile.mkstemp(
                suffix=".so", prefix="_kernels-", dir=directory
            )
            os.close(fd)
            # -ffp-contract=off: a + b * c must round twice, as in the
            # Python twins, on targets whose baseline has a fused multiply-add.
            command = [
                cc, "-O3", "-fPIC", "-shared", "-pthread",
                "-ffp-contract=off",
                *extra_flags,
                "-o", scratch, source_path,
            ]
            try:
                completed = subprocess.run(
                    command, capture_output=True, text=True, timeout=120
                )
            except subprocess.SubprocessError as error:
                # Covers a hung or crashing compiler (TimeoutExpired etc.):
                # degrade to the pure-Python tier instead of propagating.
                os.unlink(scratch)
                _build_error = f"{cc} failed: {error}"
                return None
            if completed.returncode != 0:
                os.unlink(scratch)
                _build_error = (
                    f"{cc} failed: {completed.stderr.strip()[:500]}"
                )
                return None
            os.chmod(scratch, 0o755)
            os.replace(scratch, target)
            return target
        except OSError as error:
            _build_error = f"build failed in {directory}: {error}"
            continue
    return None


def load_kernels() -> ctypes.CDLL | None:
    """Return the compiled kernel library, building it on first use.

    Memoized (including negative results); returns ``None`` whenever the C
    tier is unavailable or disabled via ``REPRO_NO_CKERNELS=1``.
    """
    global _lib, _attempted, _build_error
    if os.environ.get("REPRO_NO_CKERNELS"):
        return None
    if _attempted:
        return _lib
    _attempted = True
    try:
        if not os.path.exists(_SOURCE):
            _build_error = f"missing source {_SOURCE}"
            return None
        so_path = _compile(_SOURCE)
        if so_path is None:
            return None
        lib = ctypes.CDLL(so_path)
        lib.bincount_i64.restype = None
        lib.bincount_i64.argtypes = [_PI64, _I64, _PI64]
        lib.csr_fill.restype = None
        lib.csr_fill.argtypes = [_I64, _PI64, _PI64, _PDBL, _PI64, _PI64, _PDBL]
        lib.dedup_edges.restype = _I64
        lib.dedup_edges.argtypes = [
            _I64, _I64, _PI64, _PI64, _PDBL, _PI64, _PI64, _PI64, _PI64,
        ]
        lib.spt_rows_batch.restype = _I64
        lib.spt_rows_batch.argtypes = _SPT_BATCH_ARGTYPES
        lib.k_nearest_batch.restype = _I64
        lib.k_nearest_batch.argtypes = _KNEAREST_BATCH_ARGTYPES
        lib.radius_batch.restype = _I64
        lib.radius_batch.argtypes = _RADIUS_BATCH_ARGTYPES
        lib.target_distances_batch.restype = _I64
        lib.target_distances_batch.argtypes = _TARGET_BATCH_ARGTYPES
        lib.buffer_free.restype = None
        lib.buffer_free.argtypes = [ctypes.c_void_p]
        lib.repair_rows.restype = _I64
        lib.repair_rows.argtypes = _REPAIR_ROWS_ARGTYPES
        lib.closest_refold.restype = _I64
        lib.closest_refold.argtypes = _CLOSEST_REFOLD_ARGTYPES
        lib.vicinity_candidates.restype = _I64
        lib.vicinity_candidates.argtypes = _VICINITY_CANDIDATES_ARGTYPES
        lib.vicinity_repair.restype = _I64
        lib.vicinity_repair.argtypes = _VICINITY_REPAIR_ARGTYPES
        lib.vicinity_commit.restype = _I64
        lib.vicinity_commit.argtypes = _VICINITY_COMMIT_ARGTYPES
        lib.shift_offsets.restype = None
        lib.shift_offsets.argtypes = [_PI64, _I64, _I64, _I64]
        lib.overlay_fingers.restype = _I64
        lib.overlay_fingers.argtypes = _OVERLAY_FINGERS_ARGTYPES
        lib.relay_routes.restype = _I64
        lib.relay_routes.argtypes = _RELAY_ROUTES_ARGTYPES
        lib.route_walks.restype = _I64
        lib.route_walks.argtypes = _ROUTE_WALKS_ARGTYPES
        _lib = lib
    except OSError as error:  # pragma: no cover - load failure is env-specific
        _build_error = f"load failed: {error}"
        _lib = None
    return _lib


def build_error() -> str | None:
    """Why the C tier is unavailable (``None`` when it loaded or not tried)."""
    return _build_error
