"""Content-addressed artifact store for the scenario engine.

Running the full evaluation rebuilds the same expensive prerequisites over
and over: the ``(family, n, seed)`` topologies, and -- far more costly --
the converged state that several figures measure from different angles.
This module deduplicates both.  The store keeps *state*, never a scheme
object, in three kinds, each a raw slab directory ``<kind>/<key>.slabs/``
(:mod:`repro.utils.slab_dir`):

* **topology** -- a :class:`~repro.graphs.topology.Topology`, keyed by its
  *construction inputs* (generator family, node count, seed, structural
  parameters), so any two scenarios that ask for "the comparison G(n,m)
  graph" get one build;
* **tables** -- the converged landmark substrate
  (:class:`~repro.core.tables.SubstrateTables`) that ND-Disco adopts, Disco
  embeds and S4 adopts, keyed by what shapes it: the topology's *content*
  (:meth:`Topology.content_key`), the landmark set and
  ``include_vicinity``;
* **vrr** -- VRR's converged routing table
  (:class:`~repro.protocols.vrr.RingTable`), keyed by the topology content
  and the seed.

A load attaches the directory by ``mmap`` through the kind's checked
reader (:meth:`Topology.from_slab_dir
<repro.graphs.topology.Topology.from_slab_dir>`,
:meth:`SubstrateTables.from_mmap
<repro.core.tables.SubstrateTables.from_mmap>`,
:meth:`RingTable.from_slab_dir <repro.protocols.vrr.RingTable.from_slab_dir>`),
so every process that loads one -- the workers of a parallel run included
-- shares the same page-cache pages.  A directory that fails its reader's
checks is a miss, and the rebuild replaces it.

Schemes are rebuilt over that state in the process that needs them,
each with its defaults, through their attach calls
(``NDDiscoRouting.from_tables``, ``S4Routing.from_tables``,
``DiscoRouting(topology, seed=, nddisco=)`` over that ND-Disco,
``VirtualRingRouting.from_table``; path-vector is rebuilt whole), and
:func:`cached_scheme` memoizes each in memory only, keyed by
:func:`scheme_key` over the topology content and the seed.  Memo lookups count as neither hits nor misses: the
counters describe the store.

A :class:`~repro.graphs.topology.Topology` is immutable, so a content key
never goes stale: an edited graph is a new topology (frozen from a
``TopologyBuilder``) under a key of its own.

Artifacts live in memory for the current process and -- when a cache
directory is configured -- on disk, each with a ``<key>.slabs.meta.json``
sidecar recording its byte count and last-hit timestamp (see
:mod:`repro.scenarios.lifecycle` for the ops layer built on them), so
repeated ``repro run`` invocations and the worker processes of a parallel
run share one build.  Artifacts are deterministic functions of their key,
which is what makes cache hits invisible in the output: serial, parallel,
cold- and warm-cache runs all print byte-identical reports.

The active cache is process-global (set by the engine around a run);
:func:`active_cache` returns ``None`` outside one, and every cache-aware
call site falls back to building directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

__all__ = [
    "ARTIFACT_SCHEMA",
    "KINDS",
    "ArtifactCache",
    "Uncacheable",
    "active_cache",
    "activated",
    "cache_key",
    "cached_scheme",
    "cached_state",
    "canonical_value",
    "scheme_key",
]

#: Version salt baked into every key: the artifact-layout revision (bump on
#: layout changes) plus the package version, so version bumps retire stale
#: artifacts wholesale.  Keys cover *inputs*, not code -- after changing an
#: algorithm without bumping either, run ``repro cache clear`` to force
#: cold builds.  v3: array-backed substrate tables externalized into their
#: own artifact kind.  v4: large tables artifacts stored as raw slab
#: directories.  v5 -- v10: layouts of the stored scheme shells.  v11:
#: every topology and tables artifact is a slab directory, at every size.
#: v12: the store keeps state only -- ``topology``, ``tables`` (keyed by
#: topology content, landmarks, ``include_vicinity``) and ``vrr`` slab
#: directories; no substrate or scheme is stored.  v13: tables carry no
#: address slabs (``repro-tables-slabs/v2``).
ARTIFACT_SCHEMA = "repro-artifacts/v13"

#: The on-disk artifact kinds, in display order; each is a directory of
#: ``<key>.slabs`` slab directories.
KINDS = ("topology", "tables", "vrr")


T = TypeVar("T")


def cache_key(kind: str, *parts: object) -> str:
    """SHA-256 hex key over ``kind`` and the canonical repr of ``parts``.

    Parts must have deterministic ``repr`` (ints, floats, strings, bools,
    ``None``, and nested tuples/lists thereof) -- the standard inputs a
    generator or scheme constructor takes.
    """
    from repro import __version__

    digest = hashlib.sha256()
    digest.update(f"{ARTIFACT_SCHEMA}|repro-{__version__}|".encode())
    digest.update(kind.encode())
    for part in parts:
        digest.update(b"|")
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _attach(kind: str, path: str):
    """The kind's checked slab-directory reader applied to ``path``."""
    if kind == "topology":
        from repro.graphs.topology import Topology

        return Topology.from_slab_dir(path)
    if kind == "tables":
        from repro.core.tables import SubstrateTables

        return SubstrateTables.from_mmap(path)
    from repro.protocols.vrr import RingTable

    return RingTable.from_slab_dir(path)


class ArtifactCache:
    """The ``topology`` / ``tables`` / ``vrr`` store plus the scheme memo.

    Parameters
    ----------
    root:
        Directory for the on-disk layer (created on demand); ``None``
        keeps the cache memory-only.  Disk writes are atomic (a scratch
        directory renamed into place), so concurrent workers sharing one
        root can only ever observe complete artifacts.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = os.fspath(root) if root is not None else None
        self._memory: dict[str, object] = {}
        #: Keys whose sidecar last-hit stamp was already bumped this process.
        self._touched: set[str] = set()
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, key: str, build: Callable[[], T]) -> T:
        """Return the ``kind`` artifact for ``key``, building and storing
        it on a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached  # type: ignore[return-value]
        artifact = self._load_slab_dir(kind, key)
        if artifact is None:
            self.misses += 1
            artifact = build()
            self._store_slab_dir(kind, key, artifact)
        else:
            self.hits += 1
        self._memory[key] = artifact
        return artifact  # type: ignore[return-value]

    def memo(self, key: str, build: Callable[[], T]) -> T:
        """``build()`` once per process for ``key``: memory only, and
        counted as neither a hit nor a miss."""
        cached = self._memory.get(key)
        if cached is None:
            cached = self._memory[key] = build()
        return cached  # type: ignore[return-value]

    def topology(self, parts: tuple, build: Callable[[], T]) -> T:
        """Topology keyed by construction inputs (family, n, seed, ...)."""
        return self.get("topology", cache_key("topology", *parts), build)

    # -- disk layer -------------------------------------------------------

    def _slab_dir_path(self, kind: str, key: str) -> str | None:
        if self.root is None:
            return None
        return os.path.join(self.root, kind, f"{key}.slabs")

    def _load_slab_dir(self, kind: str, key: str) -> object | None:
        path = self._slab_dir_path(kind, key)
        if path is None or not os.path.isdir(path):
            return None
        try:
            artifact = _attach(kind, path)
        except (OSError, ValueError, KeyError):
            # A missing or short slab file, an unreadable manifest, or
            # counts / ids / offsets that fail the reader's checks: a miss,
            # and the rebuild replaces the directory.
            return None
        self._touch_meta(path, key)
        return artifact

    def _store_slab_dir(self, kind: str, key: str, artifact) -> None:
        """Write one artifact as an atomic raw slab directory.

        A directory already at the target failed to attach (a load that
        found a good one would have hit), so it is moved aside and
        replaced: ``os.replace`` cannot overwrite a non-empty directory.
        """
        target = self._slab_dir_path(kind, key)
        if target is None:
            return
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=directory, suffix=".tmp")
        stale = None
        try:
            artifact.save_slabs(scratch)
            if os.path.isdir(target):
                stale = tempfile.mkdtemp(dir=directory, suffix=".tmp")
                os.replace(target, stale)
            # Directory rename is atomic; a concurrent writer that won the
            # race leaves its equal copy in place and we discard ours.
            os.replace(scratch, target)
        except OSError:
            if not os.path.isdir(target):
                return
        finally:
            for leftover in (scratch, stale):
                if leftover is not None:
                    shutil.rmtree(leftover, ignore_errors=True)
        now = round(time.time(), 3)
        self._write_meta(
            target,
            {
                "schema": ARTIFACT_SCHEMA,
                "kind": kind,
                "key": key,
                "bytes": artifact.slab_bytes(),
                "created": now,
                "last_hit": now,
            },
        )
        self._touched.add(key)

    @staticmethod
    def _atomic_write(path: str, payload: bytes, directory: str) -> None:
        """Best-effort atomic file write: a failure leaves ``path`` as it was."""
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_path, path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    # -- sidecar metadata (consumed by repro.scenarios.lifecycle) ---------

    @staticmethod
    def meta_path(path: str) -> str:
        """The sidecar metadata path of an artifact's slab directory."""
        return path + ".meta.json"

    def _write_meta(self, path: str, meta: dict) -> None:
        payload = (json.dumps(meta, sort_keys=True) + "\n").encode()
        directory = os.path.dirname(path)
        self._atomic_write(self.meta_path(path), payload, directory)

    def _touch_meta(self, path: str, key: str) -> None:
        """Bump the last-hit stamp, at most once per key per process.

        Best-effort and atomic (rewrite + replace): eviction ordering
        degrades gracefully if a stamp is lost, it never corrupts.
        """
        if key in self._touched:
            return
        self._touched.add(key)
        meta_path = self.meta_path(path)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return
        meta["last_hit"] = round(time.time(), 3)
        self._write_meta(path, meta)


class Uncacheable(Exception):
    """A constructor argument has no canonical form; skip caching."""


def canonical_value(value: object) -> object:
    """Canonicalize a constructor argument for key hashing.

    Primitives pass through, enums collapse to their name, sequences
    recurse, and sets sort (landmark sets are unordered).  Anything else
    -- an arbitrary object whose identity may matter -- raises
    :class:`Uncacheable`, and the caller builds without caching rather
    than risking a wrong hit.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    import enum

    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(canonical_value(item) for item in value))
    raise Uncacheable(repr(type(value)))


def _content_key(kind: str, topology, label: str, params: dict) -> str | None:
    """``kind``'s key over the topology content, ``label`` and every
    canonicalizable parameter but ``threads``, or ``None`` when one is
    not canonicalizable."""
    params.pop("threads", None)
    try:
        canonical = canonical_value(sorted(params.items()))
    except Uncacheable:
        return None
    return cache_key(kind, topology.content_key(), label, canonical)


def scheme_key(topology, scheme_name: str, **params: object) -> str | None:
    """The memo key of a converged routing scheme, or ``None``.

    The key covers the topology *content* (``Topology.content_key()``)
    plus every canonicalizable constructor parameter but ``threads``, which
    parallelizes a build without changing the converged state (the
    slab-direct build is byte-identical at every width).  Returns ``None``
    when any parameter is uncacheable.
    """
    return _content_key("scheme", topology, scheme_name, params)


def cached_scheme(
    topology,
    scheme_name: str,
    build: Callable[[], T],
    **params: object,
) -> T:
    """Build (or recall) a converged scheme through the active cache's memo.

    ``params`` must be the full set of inputs that shape the scheme (the
    seed, whether S4 shares ND-Disco's tables, ...).  With no active cache, or with an
    uncacheable parameter, this is ``build()``.  The memo lives in memory
    only: ``build`` is expected to attach the scheme to state fetched with
    :func:`cached_state`.  Memoized objects are shared -- callers must
    treat them as immutable.
    """
    cache = active_cache()
    if cache is None:
        return build()
    key = scheme_key(topology, scheme_name, **params)
    if key is None:
        return build()
    return cache.memo(key, build)


def cached_state(
    topology, kind: str, build: Callable[[], T], **params: object
) -> T:
    """Build (or fetch) the converged ``kind`` state (``"tables"`` or
    ``"vrr"``) of ``topology`` through the active cache's store.

    ``params`` must be exactly the inputs that shape the slabs, and
    nothing else: two calls whose states are equal should share a key.
    With no active cache, or with an uncacheable parameter, this is
    ``build()``.  Cached state is shared -- callers must not write it.
    """
    cache = active_cache()
    if cache is None:
        return build()
    key = _content_key(kind, topology, kind, params)
    if key is None:
        return build()
    return cache.get(kind, key, build)


_ACTIVE: ArtifactCache | None = None


def active_cache() -> ArtifactCache | None:
    """The cache the current scenario run installed, or ``None``."""
    return _ACTIVE


@contextmanager
def activated(cache: ArtifactCache | None) -> Iterator[ArtifactCache | None]:
    """Install ``cache`` as the process-global active cache for a block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous
