"""Cache lifecycle operations: manifest, stats, clear, and pruning.

The artifact store (:mod:`repro.scenarios.cache`) writes one
``<key>.slabs.meta.json`` sidecar next to every ``<key>.slabs`` directory
it stores, recording the artifact kind, payload byte count, creation time,
and last-hit time.  The sidecars *are* the cache manifest: they are written
and bumped atomically per artifact, so concurrent workers never contend
on one shared file.  This module aggregates them into the operator-facing
views behind ``repro cache {stats,ls,clear,prune}``:

* :func:`scan` lists every artifact with its metadata (synthesizing
  metadata from the slab files for a directory whose sidecar is missing,
  e.g. after a crashed writer);
* :func:`cache_stats` aggregates totals per kind;
* :func:`write_manifest` materializes the aggregate view as
  ``<root>/manifest.json`` (a generated summary -- the sidecars stay
  authoritative);
* :func:`clear` removes every artifact;
* :func:`prune` applies the eviction policy.

Eviction policy
---------------
``prune(root, max_bytes=..., max_age_s=...)`` first drops artifacts whose
last hit is older than ``max_age_s``, then -- while the summed artifact
bytes still exceed ``max_bytes`` -- evicts in least-recently-hit order
(ties broken by creation time, then key, so the order is deterministic).
Eviction is exact with respect to the budget: it removes the minimal
prefix of that order whose removal brings the total to ``max_bytes`` or
below, and artifacts that fit stay untouched.  Budgets count slab payload
bytes (sidecars and manifests are excluded; they are a few hundred bytes
each).

Concurrency: eviction only ever removes complete artifacts (``*.tmp``
spool entries of in-flight writers are ignored), deletes the slab
directory before its sidecar (a reader observing the gap treats the
artifact as a miss and rebuilds), and tolerates files disappearing
underneath it -- so it is safe to run against a root that live workers are
reading and writing.

Roots written before ``repro-artifacts/v12`` also hold pickled artifacts
(``substrate/`` and ``scheme/`` directories, ``<key>.pkl`` files) that no
reader loads any more; :func:`clear` and :func:`prune` delete them.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass

from repro.scenarios.cache import ARTIFACT_SCHEMA, KINDS, ArtifactCache

__all__ = [
    "ArtifactInfo",
    "PruneReport",
    "cache_stats",
    "clear",
    "prune",
    "scan",
    "write_manifest",
]

#: Kind subdirectories of roots written before v12, whose pickles no
#: reader loads.
_RETIRED_KINDS = ("substrate", "scheme")


@dataclass(frozen=True)
class ArtifactInfo:
    """One on-disk artifact and its manifest metadata.

    ``bytes`` is the slab payload size -- what eviction budgets count.
    """

    kind: str
    key: str
    path: str
    bytes: int
    created: float
    last_hit: float

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
    """Summed ``.bin`` slab file sizes of a slab directory (best-effort)."""
    total = 0
    try:
        with os.scandir(path) as entries:
            for entry in entries:
                try:
                    if entry.name.endswith(".bin"):
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

    Slab directories without a readable sidecar fall back to the summed
    slab file sizes and the directory's mtime.  ``*.tmp`` spool entries and
    unknown filenames are ignored.  Artifacts vanishing mid-scan are
    skipped.
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
            if not name.endswith(".slabs") or not os.path.isdir(path):
                continue
            meta = _read_meta(ArtifactCache.meta_path(path))
            try:
                stat = os.stat(path)
            except OSError:
                continue  # vanished mid-scan (concurrent prune/clear)
            if meta is None:
                meta = {"created": stat.st_mtime, "last_hit": stat.st_mtime}
            found.append(
                ArtifactInfo(
                    kind=kind,
                    key=name[: -len(".slabs")],
                    path=path,
                    bytes=int(meta.get("bytes", _dir_bytes(path))),
                    created=float(meta.get("created", stat.st_mtime)),
                    last_hit=float(meta.get("last_hit", stat.st_mtime)),
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
        }
    return {
        "schema": ARTIFACT_SCHEMA,
        "root": os.fspath(root),
        "count": len(artifacts),
        "bytes": sum(info.bytes for info in artifacts),
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
    """Remove one artifact (slab directory first, then sidecar); False if
    both were gone."""
    removed = False
    for path in (info.path, ArtifactCache.meta_path(info.path)):
        try:
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.unlink(path)
            removed = True
        except OSError:
            continue
    return removed


def _sweep(root: str | os.PathLike) -> None:
    """Delete what no reader loads: orphaned sidecars and pre-v12 pickles.

    Orphaned ``*.meta.json`` sidecars appear when a writer crashes between
    the two removals of :func:`_remove`, or when a concurrent reader's
    last-hit bump re-creates a sidecar just evicted.  Pickles are what
    roots written before v12 hold: whole ``substrate/`` and ``scheme/``
    directories, and ``<key>.pkl`` files with their sidecars.  None of it
    carries a live payload; sweeping it keeps ``clear``/``prune`` able to
    return a root to empty.
    """
    root = os.fspath(root)
    for kind in _RETIRED_KINDS:
        shutil.rmtree(os.path.join(root, kind), ignore_errors=True)
    for kind in KINDS:
        directory = os.path.join(root, kind)
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for name in names:
            if name.endswith(".meta.json"):
                stem = name[: -len(".meta.json")]
                if stem.endswith(".slabs") and os.path.exists(
                    os.path.join(directory, stem)
                ):
                    continue
            elif not name.endswith(".pkl"):
                continue
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                continue


def clear(root: str | os.PathLike) -> PruneReport:
    """Remove every artifact under ``root``; returns what was removed."""
    removed = tuple(info for info in scan(root) if _remove(info))
    _sweep(root)
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
    _sweep(root)
    return PruneReport(removed=tuple(removed), kept=tuple(kept))
