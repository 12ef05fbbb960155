"""Content-addressed artifact store for the scenario engine.

Running the full evaluation rebuilds the same expensive prerequisites over
and over: the ``(family, n, seed)`` topologies, and -- far more costly --
the converged routing substrates (:class:`NDDiscoRouting` and friends) that
several figures measure from different angles.  This module deduplicates
both, and persists the shared landmark substrate **once** instead of
embedding a private copy in every scheme that uses it.

Four artifact kinds:

* **Topologies** are keyed by their *construction inputs* (generator
  family, node count, seed, structural parameters, plus a schema-version
  salt), so any two scenarios that ask for "the comparison G(n,m) graph"
  get one build.
* **Substrates** -- the converged ND-Disco landmark substrate (landmark
  SPT rows, closest-landmark rows, addresses, names, codec) that Disco
  embeds and S4 borrows -- are keyed by the topology's *content*
  (:meth:`Topology.content_key`) plus every constructor input that shapes
  the converged state.  A substrate is pickled once, with its topology
  externalized to the topology artifact when one exists.
* **Schemes** (Disco, S4, VRR, ...) are stored as **lightweight shells**:
  their pickles cut the object graph at every registered substrate
  component (the substrate object itself, its tables, per-node
  addresses, names, codec, topology) and record a
  ``(kind, key, path)`` persistent reference instead.  On unpickle the
  reference is resolved through the cache, so every warm-loaded scheme
  reattaches to the *same* substrate object graph -- a fully warm run
  holds exactly one substrate in memory, just like a cold run whose
  schemes shared it at build time.
* **Tables** -- the substrate's flat slab payload
  (:class:`~repro.core.tables.SubstrateTables`) -- are externalized from
  the substrate pickle into their own artifact (key derived from the
  substrate key), serialized as raw typed buffers.  Because the slabs are
  plain bytes, the scenario engine can also *publish* them to shared
  memory before a parallel run: workers then resolve the tables reference
  by attaching a zero-copy view instead of unpickling a private copy
  (see :attr:`ArtifactCache.shared_tables`).

On-disk payloads are zlib-compressed behind a magic prefix
(:data:`COMPRESS_MAGIC`), the one framing the store reads: a payload
without it is a miss and gets rebuilt.  Each sidecar records both the
stored and the raw byte count so ``repro cache stats`` can report the
compression ratio.

A :class:`~repro.graphs.topology.Topology` is immutable, so a content key
never goes stale: scheme and substrate keys cover ``content_key()``, and an
edited graph is a new topology (frozen from a ``TopologyBuilder``) under a
key of its own.

Both layers live in memory for the current process and -- when a cache
directory is configured -- as pickles on disk (plus a ``<key>.meta.json``
sidecar per artifact recording byte counts and last-hit timestamps; see
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
import io
import json
import os
import pickle
import tempfile
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, TypeVar

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "COMPRESS_MAGIC",
    "SLAB_ARTIFACT_THRESHOLD",
    "SUBSTRATE_SCHEMES",
    "Uncacheable",
    "active_cache",
    "activated",
    "cache_key",
    "cached_scheme",
    "canonical_value",
    "load_tables_artifact",
    "scheme_key",
    "tables_key",
]

#: Version salt baked into every key: the artifact-layout revision (bump on
#: layout changes) plus the package version, so version bumps retire stale
#: artifacts wholesale.  Keys cover *inputs*, not code -- after changing an
#: algorithm without bumping either, run ``repro cache clear`` to force
#: cold builds.  v3: array-backed substrate tables externalized into their
#: own artifact kind.  v4: large tables artifacts stored as raw slab
#: directories (``<key>.slabs/``, :data:`repro.core.tables.SLAB_SCHEMA`)
#: that loads attach with ``mmap`` instead of unpickling.  v5: Disco
#: shells pickle an overlay whose ring is flat arrays, not per-node dicts.
#: v6: ND-Disco and S4 shells pickle their resolution database's ring as
#: a :class:`~repro.naming.VNodeRing`.  v7: topologies pickle as the one
#: array-backed :class:`~repro.graphs.topology.Topology`.  v8: schemes hold
#: the tables object and no slab views, so shells carry no ``spt`` /
#: ``closest`` / ``vicinities`` references.  v9: the label codec keeps no
#: per-node neighbour lists, the sloppy grouping no names or estimates,
#: and a path-vector shell no flag for a mode nothing set.
ARTIFACT_SCHEMA = "repro-artifacts/v9"

#: Tables artifacts at or above this many slab bytes are stored as a raw
#: slab directory instead of a compressed pickle.  A slab directory loads
#: by ``mmap`` attach: no unpickle copy, lazy paging, and every process
#: that attaches shares the same page-cache pages -- which is what makes
#: larger-than-RAM substrates usable from a warm cache.  Below the
#: threshold the zlib pickle wins (compression, single file).
SLAB_ARTIFACT_THRESHOLD = 64 * 1024 * 1024

#: Framing prefix of every on-disk artifact payload (zlib-compressed
#: pickle).  A payload without it is a miss, rebuilt and overwritten.
COMPRESS_MAGIC = b"RPZC"

#: Scheme names whose converged object *is* the shared landmark substrate.
#: These are stored under the ``substrate`` kind and their components are
#: registered for shell externalization.
SUBSTRATE_SCHEMES = frozenset({"nd-disco", "nddisco"})


def _schema_salt() -> str:
    try:
        from repro import __version__
    except Exception:  # pragma: no cover - partial-install fallback
        __version__ = "unknown"
    return f"{ARTIFACT_SCHEMA}|repro-{__version__}"

T = TypeVar("T")


def cache_key(kind: str, *parts: object) -> str:
    """SHA-256 hex key over ``kind`` and the canonical repr of ``parts``.

    Parts must have deterministic ``repr`` (ints, floats, strings, bools,
    ``None``, and nested tuples/lists thereof) -- the standard inputs a
    generator or scheme constructor takes.
    """
    digest = hashlib.sha256()
    digest.update(_schema_salt().encode())
    digest.update(b"|")
    digest.update(kind.encode())
    for part in parts:
        digest.update(b"|")
        digest.update(repr(part).encode())
    return digest.hexdigest()


class _ArtifactMissing(Exception):
    """A persistent reference points at an artifact that is not available.

    Raised inside ``persistent_load`` while unpickling a scheme shell whose
    substrate (or topology) artifact was evicted; the surrounding load
    treats it as a cache miss and rebuilds.
    """


@dataclass(frozen=True)
class _SharedRef:
    """One registered shared object: where its canonical copy lives."""

    kind: str
    key: str
    path: tuple


def _substrate_components(substrate) -> Iterator[tuple[tuple, object]]:
    """Yield ``(path, object)`` for every shareable substrate component.

    The paths mirror :func:`_resolve_substrate_path`.  Components are the
    objects sibling schemes reference directly (S4 copies list *entries*,
    not the substrate itself): every per-node :class:`Address`, the names,
    the label codec, and the topology.  The slabs are not among them:
    schemes hold the tables object, registered as its own artifact.
    """
    yield (), substrate
    yield ("topology",), substrate.topology
    addresses = substrate.addresses
    yield ("addresses",), addresses
    for node, address in enumerate(addresses):
        yield ("address", node), address
    names = substrate.names
    yield ("names",), names
    for node, name in enumerate(names):
        yield ("name", node), name
    yield ("codec",), substrate.codec


def _resolve_substrate_path(substrate, path: tuple):
    """Navigate a :func:`_substrate_components` path on a loaded substrate."""
    if not path:
        return substrate
    head = path[0]
    if head == "topology":
        return substrate.topology
    if head == "addresses":
        return substrate.addresses
    if head == "address":
        return substrate.addresses[path[1]]
    if head == "names":
        return substrate.names
    if head == "name":
        return substrate.names[path[1]]
    if head == "codec":
        return substrate.codec
    raise _ArtifactMissing(f"unknown substrate path {path!r}")


class _ShellPickler(pickle.Pickler):
    """Pickler that externalizes registered shared objects.

    Any object present in the cache's shared-object registry (and whose
    topology content guard still holds) is replaced by a persistent
    ``(kind, key, path)`` reference.  ``skip`` suppresses references into
    the artifact currently being stored, so a substrate's own pickle never
    references itself (its *tables* reference, stored under a different
    kind/key, survives).
    """

    def __init__(self, buffer, shared, *, skip: tuple[str, str] | None = None):
        super().__init__(buffer, protocol=4)
        self._shared = shared
        self._skip = skip

    def persistent_id(self, obj):
        ref = self._shared.get(id(obj))
        if ref is None or (ref.kind, ref.key) == self._skip:
            return None
        return (ref.kind, ref.key, ref.path)


class _ShellUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent references through an ArtifactCache."""

    def __init__(self, buffer, cache: "ArtifactCache"):
        super().__init__(buffer)
        self._cache = cache

    def persistent_load(self, pid):
        kind, key, path = pid
        root = self._cache._load_artifact(kind, key)
        if kind == "substrate":
            return _resolve_substrate_path(root, path)
        if path:
            raise _ArtifactMissing(f"unexpected path {path!r} for {kind}")
        return root


class ArtifactCache:
    """Four-kind (topology / substrate / tables / scheme) artifact store.

    Parameters
    ----------
    root:
        Directory for the on-disk layer (created on demand); ``None``
        keeps the cache memory-only.  Disk writes are atomic
        (temp file + ``os.replace``), so concurrent workers sharing one
        root can only ever observe complete artifacts.
    shared_tables:
        Optional ``tables_key -> SharedTablesHandle`` map of substrate
        tables a parent process published to shared memory.  When a
        substrate load resolves its tables reference, a published key is
        attached zero-copy instead of read from disk -- this is how pool
        workers avoid unpickling a private slab copy each.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        shared_tables: "Mapping[str, object] | None" = None,
    ) -> None:
        self.root = os.fspath(root) if root is not None else None
        self.shared_tables = dict(shared_tables or {})
        self._memory: dict[str, object] = {}
        #: id(object) -> _SharedRef for every registered shared component.
        #: Roots are pinned by ``_memory``, so registered ids stay live.
        self._shared: dict[int, _SharedRef] = {}
        #: Keys whose sidecar last-hit stamp was already bumped this process.
        self._touched: set[str] = set()
        self.hits = 0
        self.misses = 0

    # -- generic keyed artifacts -----------------------------------------

    def get(self, kind: str, key: str, build: Callable[[], T]) -> T:
        """Return the artifact for ``key``, building and storing on miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached  # type: ignore[return-value]
        artifact = self._load_disk(kind, key)
        if artifact is None:
            self.misses += 1
            artifact = build()
            self._register(kind, key, artifact)
            if kind == "substrate":
                # Externalize the substrate's slab payload into its own
                # artifact *before* the substrate pickle is written, so
                # the shell pickler replaces the tables object with a
                # reference and the slabs persist exactly once.
                self._store_tables(key, artifact)
            if kind == "topology" and self._store_topology_slabs(
                key, artifact
            ):
                pass  # the slab directory is the single on-disk copy
            else:
                self._store_disk(kind, key, artifact)
        else:
            self.hits += 1
            self._register(kind, key, artifact)
        self._memory[key] = artifact
        return artifact  # type: ignore[return-value]

    def _store_tables(self, substrate_key: str, substrate: object) -> None:
        """Persist a substrate's :class:`SubstrateTables` as raw buffers.

        Small payloads go through the compressed-pickle path; payloads at
        or above :data:`SLAB_ARTIFACT_THRESHOLD` are written as a raw slab
        directory (``<key>.slabs/``) so later loads mmap-attach instead of
        materializing an unpickle copy.
        """
        tables = substrate.tables
        if id(tables) not in self._shared:
            return
        derived = tables_key(substrate_key)
        self._memory[derived] = tables
        try:
            big = tables.slab_bytes() >= SLAB_ARTIFACT_THRESHOLD
        except Exception:
            big = False
        if big:
            self._store_slab_dir(derived, tables)
        else:
            self._store_disk("tables", derived, tables)

    def _store_topology_slabs(self, key: str, topology: object) -> bool:
        """Persist a big topology as a raw slab directory.

        :class:`~repro.graphs.topology.Topology` artifacts at or above
        :data:`SLAB_ARTIFACT_THRESHOLD` skip the pickle layer
        entirely: the slab directory is the single on-disk copy and later
        loads mmap-attach it.  Returns True when the slab directory is
        (or already was) in place; False sends the artifact down the
        ordinary pickle path.
        """
        if self.root is None:
            return False
        try:
            big = topology.slab_bytes() >= SLAB_ARTIFACT_THRESHOLD
        except Exception:
            return False
        if not big:
            return False
        self._store_slab_dir(key, topology, kind="topology")
        target = self._slab_dir_path(key, "topology")
        return target is not None and os.path.isdir(target)

    def _slab_dir_path(self, key: str, kind: str = "tables") -> str | None:
        if self.root is None:
            return None
        return os.path.join(self.root, kind, f"{key}.slabs")

    def _store_slab_dir(
        self, key: str, artifact: object, *, kind: str = "tables"
    ) -> None:
        """Write one slab-backed artifact as an atomic raw slab directory."""
        target = self._slab_dir_path(key, kind)
        if target is None or os.path.isdir(target):
            return
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=directory, suffix=".tmp")
        try:
            artifact.save_slabs(scratch)
            # Directory rename is atomic; a concurrent writer that won the
            # race leaves the target in place and we discard our copy.
            os.replace(scratch, target)
        except Exception:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)
            if not os.path.isdir(target):
                return
        size = artifact.slab_bytes()
        now = round(time.time(), 3)
        self._write_meta(
            target,
            {
                "schema": ARTIFACT_SCHEMA,
                "format": "slabs",
                "kind": kind,
                "key": key,
                "bytes": size,
                "raw_bytes": size,
                "created": now,
                "last_hit": now,
            },
        )
        self._touched.add(key)

    def topology(self, parts: tuple, build: Callable[[], T]) -> T:
        """Topology keyed by construction inputs (family, n, seed, ...)."""
        return self.get("topology", cache_key("topology", *parts), build)

    def substrate(self, key: str, build: Callable[[], T]) -> T:
        """Converged landmark substrate keyed by topology content + options."""
        return self.get("substrate", key, build)

    def scheme(self, key: str, build: Callable[[], T]) -> T:
        """Converged routing scheme keyed by topology content + options."""
        return self.get("scheme", key, build)

    # -- shared-object registry ------------------------------------------

    def _register(self, kind: str, key: str, artifact: object) -> None:
        """Register the shareable object graph of a topology/substrate.

        Scheme shells pickled later cut their object graph at these ids.
        """
        try:
            if kind == "topology":
                self._shared[id(artifact)] = _SharedRef("topology", key, ())
            elif kind == "substrate":
                for path, obj in _substrate_components(artifact):
                    self._shared.setdefault(
                        id(obj), _SharedRef("substrate", key, path)
                    )
                # The slab payload lives under its own kind/key so the
                # substrate's pickle externalizes it (and parallel runs
                # can swap in a shared-memory attachment).
                self._shared.setdefault(
                    id(artifact.tables),
                    _SharedRef("tables", tables_key(key), ()),
                )
            # kind == "tables" registers nothing by itself: the owning
            # substrate's registration (above) covers it.
        except Exception:
            # A partially built or exotic artifact simply is not shared.
            return

    def _load_artifact(self, kind: str, key: str):
        """Memory-then-disk load for persistent-reference resolution.

        Unlike :meth:`get` there is no builder: a missing artifact raises
        :class:`_ArtifactMissing`, which the enclosing shell load treats
        as a cache miss.  ``tables`` artifacts published to shared memory
        by a parent process are attached zero-copy instead of being read
        from disk.
        """
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        artifact = None
        if kind == "tables" and key in self.shared_tables:
            try:
                from repro.core.tables import SubstrateTables

                artifact = SubstrateTables.from_shared(
                    self.shared_tables[key]
                )
            except Exception:
                artifact = None  # vanished segment: fall back to disk
            else:
                # A shared-memory hit is still a use of the on-disk
                # artifact: bump its sidecar so LRU pruning never ranks
                # the store's hottest tables as its coldest.
                path = self._path(kind, key)
                if path is not None:
                    self._touch_meta(path, key)
        if artifact is None:
            artifact = self._load_disk(kind, key)
        if artifact is None:
            raise _ArtifactMissing(f"{kind} artifact {key} unavailable")
        self._register(kind, key, artifact)
        self._memory[key] = artifact
        return artifact

    # -- disk layer -------------------------------------------------------

    def _path(self, kind: str, key: str) -> str | None:
        if self.root is None:
            return None
        return os.path.join(self.root, kind, f"{key}.pkl")

    def _load_disk(self, kind: str, key: str) -> object | None:
        if kind in ("tables", "topology"):
            slab_dir = self._slab_dir_path(key, kind)
            if slab_dir is not None and os.path.isdir(slab_dir):
                try:
                    if kind == "tables":
                        from repro.core.tables import SubstrateTables

                        artifact: object = SubstrateTables.from_mmap(
                            slab_dir
                        )
                    else:
                        from repro.graphs.topology import Topology

                        artifact = Topology.from_slab_dir(slab_dir)
                except Exception:
                    pass  # incomplete/corrupt directory: try the pickle
                else:
                    self._touch_meta(slab_dir, key)
                    return artifact
        path = self._path(kind, key)
        if path is None or not os.path.exists(path):
            return None
        try:
            data = _read_payload(path)
            artifact = _ShellUnpickler(io.BytesIO(data), self).load()
        except Exception:
            # An unframed, truncated, version-skewed, or dangling-reference
            # artifact (e.g. its substrate was evicted) is treated as a
            # miss; the rebuild overwrites it atomically.
            return None
        self._touch_meta(path, key)
        return artifact

    def _store_disk(self, kind: str, key: str, artifact: object) -> None:
        path = self._path(kind, key)
        if path is None:
            return
        try:
            buffer = io.BytesIO()
            _ShellPickler(
                buffer,
                self._shared,
                # A substrate may reference the topology and tables
                # artifacts but never itself; plain artifacts (topologies)
                # have nothing registered pointing at other artifacts
                # anyway.
                skip=(kind, key),
            ).dump(artifact)
            raw = buffer.getvalue()
        except Exception:
            return  # unpicklable artifacts stay memory-only
        payload = COMPRESS_MAGIC + zlib.compress(raw, 6)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        if not self._atomic_write(path, payload, directory):
            return
        now = round(time.time(), 3)
        self._write_meta(
            path,
            {
                "schema": ARTIFACT_SCHEMA,
                "kind": kind,
                "key": key,
                "bytes": len(payload),
                "raw_bytes": len(raw),
                "created": now,
                "last_hit": now,
            },
        )
        self._touched.add(key)

    @staticmethod
    def _atomic_write(path: str, payload: bytes, directory: str) -> bool:
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_path, path)
            return True
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return False

    # -- sidecar metadata (consumed by repro.scenarios.lifecycle) ---------

    @staticmethod
    def meta_path(path: str) -> str:
        """The sidecar metadata path for an artifact pickle path."""
        return path[: -len(".pkl")] + ".meta.json" if path.endswith(".pkl") else path + ".meta.json"

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


def tables_key(substrate_key: str) -> str:
    """The derived artifact key of a substrate's externalized tables.

    Deterministic per substrate key, and distinct from it, so the two
    artifacts can never collide in the memory layer or on disk.
    """
    return cache_key("tables", substrate_key)


def load_tables_artifact(path: str):
    """Load one on-disk ``tables`` artifact.

    A ``<key>.slabs`` directory attaches by mmap
    (:meth:`~repro.core.tables.SubstrateTables.from_mmap`); a ``.pkl``
    payload is plain-unpickled.  Used by the scenario engine's parent
    process to publish already-cached substrate tables into shared memory
    before a parallel run.  Raises on unframed, unreadable or corrupt
    payloads; callers treat that as "skip this one".
    """
    if os.path.isdir(path):
        from repro.core.tables import SubstrateTables

        return SubstrateTables.from_mmap(path)
    return pickle.loads(_read_payload(path))


def _read_payload(path: str) -> bytes:
    """The raw pickle of one on-disk artifact; ``ValueError`` if unframed."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(COMPRESS_MAGIC):
        raise ValueError(f"{path}: no {COMPRESS_MAGIC!r} framing")
    return zlib.decompress(data[len(COMPRESS_MAGIC) :])


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


def scheme_key(topology, scheme_name: str, **params: object) -> str | None:
    """Content-addressed key for a converged routing scheme, or ``None``.

    The key covers the topology *content* (``Topology.content_key()``)
    plus every canonicalizable
    constructor parameter.  Build-mechanics parameters are excluded, at
    the top level and inside the nested ``nddisco_options`` term that
    Disco's and S4's keys carry: ``threads`` parallelizes the build and
    the ``storage`` family places the slabs in RAM / mmap / a directory,
    but neither changes the converged state (the slab-direct build is
    byte-identical across all of them).  Returns ``None`` when any
    parameter is uncacheable.
    Substrate-carrying schemes (:data:`SUBSTRATE_SCHEMES`) key under the
    ``substrate`` kind so the two artifact namespaces can never collide.
    """
    excluded = ("threads", "storage", "vicinity_storage", "persist_storage")
    if "nddisco_options" in params:
        params["nddisco_options"] = tuple(
            (name, value)
            for name, value in params["nddisco_options"]
            if name not in excluded
        )
    try:
        canonical = tuple(
            (name, canonical_value(value))
            for name, value in sorted(params.items())
            if name not in excluded
        )
    except Uncacheable:
        return None
    kind = "substrate" if scheme_name in SUBSTRATE_SCHEMES else "scheme"
    return cache_key(kind, topology.content_key(), scheme_name, canonical)


def cached_scheme(
    topology,
    scheme_name: str,
    build: Callable[[], T],
    **params: object,
) -> T:
    """Build (or fetch) a converged scheme through the active cache.

    ``params`` must be the full set of constructor inputs that shape the
    converged state (seed, shortcut mode, landmark set, ...).  With no
    active cache, or with an uncacheable parameter, this is ``build()``.
    Substrate-carrying schemes (ND-Disco) are stored as ``substrate``
    artifacts and their components registered for shell externalization;
    everything else is stored as a lightweight scheme shell.  Cached
    objects are shared -- callers must treat them as immutable.
    """
    cache = active_cache()
    if cache is None:
        return build()
    key = scheme_key(topology, scheme_name, **params)
    if key is None:
        return build()
    if scheme_name in SUBSTRATE_SCHEMES:
        return cache.substrate(key, build)
    return cache.scheme(key, build)


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
