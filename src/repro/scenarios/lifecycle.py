"""Cache lifecycle operations: manifest, stats, clear, and pruning.

The artifact store (:mod:`repro.scenarios.cache`) writes one
``.meta.json`` sidecar next to every ``<key>.pkl`` or ``<key>.slabs/`` it
stores, recording the artifact kind, payload byte count, creation time,
and last-hit time.  The sidecars *are* the cache manifest: they are written
and bumped atomically per artifact, so concurrent workers never contend
on one shared file.  This module aggregates them into the operator-facing
views behind ``repro cache {stats,ls,clear,prune}``:

* :func:`scan` lists every artifact with its metadata (synthesizing
  metadata from ``os.stat`` for a pickle whose sidecar is missing, e.g.
  after a crashed writer);
* :func:`cache_stats` aggregates totals per kind;
* :func:`write_manifest` materializes the aggregate view as
  ``<root>/manifest.json`` (a generated summary -- the sidecars stay
  authoritative);
* :func:`clear` removes every artifact;
* :func:`prune` applies the eviction policy.

Eviction policy
---------------
``prune(root, max_bytes=..., max_age_s=...)`` first drops artifacts whose
last hit is older than ``max_age_s``, then -- while the summed pickle
payload still exceeds ``max_bytes`` -- evicts in least-recently-hit order
(ties broken by creation time, then key, so the order is deterministic).
Eviction is exact with respect to the budget: it removes the minimal
prefix of that order whose removal brings the total to ``max_bytes`` or
below, and artifacts that fit stay untouched.  Budgets count pickle
payload bytes (sidecars are excluded; they are a few hundred bytes each).

Concurrency: eviction only ever unlinks complete artifacts (``*.tmp``
spool files of in-flight writers are ignored), deletes the pickle before
its sidecar (a reader observing the gap treats the artifact as a miss and
rebuilds), and tolerates files disappearing underneath it -- so it is
safe to run against a root that live workers are reading and writing.
Note that scheme shells reference their substrate artifact by key:
evicting a substrate silently demotes the shells that point at it to
misses (they rebuild on next use), which is correct, just slower.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from repro.scenarios.cache import ARTIFACT_SCHEMA, ArtifactCache

__all__ = [
    "ArtifactInfo",
    "PruneReport",
    "cache_stats",
    "clear",
    "prune",
    "scan",
    "write_manifest",
]

#: Artifact kind subdirectories, in display order.
KINDS = ("topology", "substrate", "tables", "scheme")


@dataclass(frozen=True)
class ArtifactInfo:
    """One on-disk artifact and its manifest metadata.

    ``bytes`` is the stored (compressed) payload size -- what eviction
    budgets count; ``raw_bytes`` is the uncompressed pickle size (equal to
    ``bytes`` for artifacts written before compression framing).
    """

    kind: str
    key: str
    path: str
    bytes: int
    created: float
    last_hit: float
    raw_bytes: int = 0

    @property
    def age_s(self) -> float:
        """Seconds since the last hit (or creation, if never hit)."""
        return max(0.0, time.time() - self.last_hit)


@dataclass(frozen=True)
class PruneReport:
    """What one :func:`prune` call removed and what remains."""

    removed: tuple[ArtifactInfo, ...]
    kept: tuple[ArtifactInfo, ...]

    @property
    def removed_bytes(self) -> int:
        return sum(info.bytes for info in self.removed)

    @property
    def kept_bytes(self) -> int:
        return sum(info.bytes for info in self.kept)


def _dir_bytes(path: str) -> int:
    """Summed file sizes of a slab directory (best-effort)."""
    total = 0
    try:
        with os.scandir(path) as entries:
            for entry in entries:
                try:
                    if entry.is_file(follow_symlinks=False):
                        total += entry.stat(follow_symlinks=False).st_size
                except OSError:
                    continue
    except OSError:
        return 0
    return total


def _read_meta(meta_path: str) -> dict | None:
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def scan(root: str | os.PathLike) -> list[ArtifactInfo]:
    """Every complete artifact under ``root``, sidecar metadata attached.

    Pickles without a readable sidecar fall back to ``os.stat`` (size;
    mtime for both timestamps).  ``*.tmp`` spool files and unknown
    filenames are ignored.  Artifacts vanishing mid-scan are skipped.
    """
    root = os.fspath(root)
    found: list[ArtifactInfo] = []
    for kind in KINDS:
        directory = os.path.join(root, kind)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for name in names:
            path = os.path.join(directory, name)
            if name.endswith(".pkl"):
                key = name[: -len(".pkl")]
            elif name.endswith(".slabs") and os.path.isdir(path):
                # Raw slab directory (every topology and tables artifact,
                # mmap-attached on load); its payload size is the sum of
                # the slab files.
                key = name[: -len(".slabs")]
            else:
                continue
            meta = _read_meta(ArtifactCache.meta_path(path))
            try:
                stat = os.stat(path)
            except OSError:
                continue  # vanished mid-scan (concurrent prune/clear)
            default_bytes = (
                _dir_bytes(path) if name.endswith(".slabs") else stat.st_size
            )
            if meta is None:
                meta = {
                    "bytes": default_bytes,
                    "created": stat.st_mtime,
                    "last_hit": stat.st_mtime,
                }
            stored = int(meta.get("bytes", default_bytes))
            found.append(
                ArtifactInfo(
                    kind=kind,
                    key=key,
                    path=path,
                    bytes=stored,
                    created=float(meta.get("created", stat.st_mtime)),
                    last_hit=float(meta.get("last_hit", stat.st_mtime)),
                    raw_bytes=int(meta.get("raw_bytes", stored)),
                )
            )
    return found


def cache_stats(root: str | os.PathLike) -> dict:
    """Aggregate totals for ``root``: per-kind and overall counts/bytes."""
    return _aggregate(root, scan(root))


def _aggregate(root: str | os.PathLike, artifacts: list[ArtifactInfo]) -> dict:
    kinds = {}
    for kind in KINDS:
        of_kind = [info for info in artifacts if info.kind == kind]
        kinds[kind] = {
            "count": len(of_kind),
            "bytes": sum(info.bytes for info in of_kind),
            "raw_bytes": sum(info.raw_bytes for info in of_kind),
        }
    total_bytes = sum(info.bytes for info in artifacts)
    total_raw = sum(info.raw_bytes for info in artifacts)
    return {
        "schema": ARTIFACT_SCHEMA,
        "root": os.fspath(root),
        "count": len(artifacts),
        "bytes": total_bytes,
        "raw_bytes": total_raw,
        # Stored / raw: < 1.0 once compressed artifacts dominate.
        "compression_ratio": (
            round(total_bytes / total_raw, 4) if total_raw else None
        ),
        "kinds": kinds,
        "oldest_hit": min(
            (info.last_hit for info in artifacts), default=None
        ),
        "newest_hit": max(
            (info.last_hit for info in artifacts), default=None
        ),
    }


def write_manifest(root: str | os.PathLike) -> str:
    """Materialize the aggregate manifest as ``<root>/manifest.json``.

    A generated summary view (stats plus the per-artifact table); the
    per-artifact sidecars remain the source of truth.  Written atomically;
    returns the manifest path.
    """
    root = os.fspath(root)
    artifacts = scan(root)
    stats = _aggregate(root, artifacts)
    stats["artifacts"] = [
        {
            "kind": info.kind,
            "key": info.key,
            "bytes": info.bytes,
            "created": info.created,
            "last_hit": info.last_hit,
        }
        for info in artifacts
    ]
    path = os.path.join(root, "manifest.json")
    os.makedirs(root, exist_ok=True)
    payload = (json.dumps(stats, indent=2, sort_keys=True) + "\n").encode()
    ArtifactCache._atomic_write(path, payload, root)
    return path


def _remove(info: ArtifactInfo) -> bool:
    """Remove one artifact (payload first, then sidecar); False if gone.

    The payload is either a pickle file or a ``.slabs`` directory.
    """
    removed = False
    for path in (info.path, ArtifactCache.meta_path(info.path)):
        try:
            if os.path.isdir(path):
                import shutil

                shutil.rmtree(path)
            else:
                os.unlink(path)
            removed = True
        except FileNotFoundError:
            continue
        except OSError:
            continue
    return removed


def _sweep_orphan_sidecars(root: str | os.PathLike) -> None:
    """Unlink ``*.meta.json`` sidecars whose pickle is gone.

    Orphans appear when a writer crashes between the two unlinks of
    :func:`_remove`, or when a concurrent reader's last-hit bump
    re-creates a sidecar just evicted.  They carry no payload; sweeping
    them keeps ``clear``/``prune`` able to return a root to empty.
    """
    root = os.fspath(root)
    for kind in KINDS:
        directory = os.path.join(root, kind)
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for name in names:
            if not name.endswith(".meta.json"):
                continue
            stem = name[: -len(".meta.json")]
            if stem.endswith(".slabs"):
                # Sidecar of a slab directory: orphaned only when the
                # directory itself is gone.
                payload_path = os.path.join(directory, stem)
            else:
                payload_path = os.path.join(directory, stem + ".pkl")
            if os.path.exists(payload_path):
                continue
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                continue


def clear(root: str | os.PathLike) -> PruneReport:
    """Remove every artifact under ``root``; returns what was removed."""
    removed = tuple(info for info in scan(root) if _remove(info))
    _sweep_orphan_sidecars(root)
    return PruneReport(removed=removed, kept=())


def prune(
    root: str | os.PathLike,
    *,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> PruneReport:
    """Apply the eviction policy (see the module docstring) to ``root``.

    At least one of ``max_bytes`` / ``max_age_s`` should be given; with
    neither, this is a no-op scan.  ``now`` overrides the clock (tests).
    With ``dry_run`` nothing is unlinked: the report lists what *would*
    be evicted, and the store is untouched.
    """
    now = time.time() if now is None else now
    artifacts = scan(root)
    removed: list[ArtifactInfo] = []
    kept: list[ArtifactInfo] = []

    if max_age_s is not None:
        for info in artifacts:
            if now - info.last_hit > max_age_s:
                removed.append(info)
            else:
                kept.append(info)
    else:
        kept = list(artifacts)

    if max_bytes is not None:
        total = sum(info.bytes for info in kept)
        # Least-recently-hit first; deterministic tie-break.
        kept.sort(key=lambda info: (info.last_hit, info.created, info.key))
        survivors: list[ArtifactInfo] = []
        for index, info in enumerate(kept):
            if total > max_bytes:
                removed.append(info)
                total -= info.bytes
            else:
                survivors.extend(kept[index:])
                break
        kept = survivors

    if dry_run:
        return PruneReport(removed=tuple(removed), kept=tuple(kept))
    removed = [info for info in removed if _remove(info)]
    if removed:
        _sweep_orphan_sidecars(root)
    return PruneReport(removed=tuple(removed), kept=tuple(kept))
