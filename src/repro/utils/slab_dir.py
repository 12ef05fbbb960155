"""One on-disk slab format: raw slab files plus a JSON manifest.

A slab directory holds one ``<name>.bin`` file per slab -- the slab's
little-endian 8-byte items, nothing else -- and a ``manifest.json`` naming
the format's schema, a few scalar fields of the format's own, and one
``[name, typecode, count]`` row per slab.  Topologies
(:meth:`repro.graphs.topology.Topology.save_slabs`), substrate tables
(:meth:`repro.core.tables.SubstrateTables.save_slabs`) and VRR's converged
table (:class:`repro.protocols.vrr.RingTable`) all go through
:func:`write_slab_dir` and :func:`read_slab_dir`; each format checks the
slab contents it reads.
"""

from __future__ import annotations

import json
import mmap
import os
from typing import Iterable

from repro.errors import InputError

__all__ = ["read_slab_dir", "write_slab_dir"]


def write_slab_dir(
    path: "str | os.PathLike",
    schema: str,
    slabs: Iterable[tuple[str, str, object]],
    *,
    skip: "set[str] | None" = None,
    **fields: object,
) -> str:
    """Write ``(name, typecode, buffer)`` slabs and their manifest to ``path``.

    ``fields`` go into the manifest between the schema and the slab rows.
    ``skip`` names slabs whose ``.bin`` files already hold their final
    content (a build that packed them in place).  Each file, the manifest
    last, is written beside its target and renamed over it.  Returns the
    directory path.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    slabs = list(slabs)
    for name, _typecode, slab in slabs:
        if skip and name in skip:
            continue
        target = os.path.join(path, f"{name}.bin")
        with open(target + ".tmp", "wb") as handle:
            # write() consumes the buffer directly -- no bytes copy, so
            # slabs larger than RAM stream straight from their mmap.
            handle.write(memoryview(slab))
        os.replace(target + ".tmp", target)
    manifest = {
        "schema": schema,
        **fields,
        "slots": [[name, typecode, len(slab)] for name, typecode, slab in slabs],
    }
    target = os.path.join(path, "manifest.json")
    with open(target + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    os.replace(target + ".tmp", target)
    return path


def read_slab_dir(
    path: "str | os.PathLike", schema: str
) -> tuple[dict, dict[str, memoryview]]:
    """The manifest and one typed view per slab of a :func:`write_slab_dir`
    directory.

    Each view is a ``memoryview`` cast over a private copy-on-write
    (``ACCESS_COPY``) ``mmap`` of its file: writable, as the C kernels'
    ``ctypes`` arguments must be (``from_buffer``), yet no write ever
    reaches the file, and as long as nothing writes, every attacher shares
    the page cache.  A view keeps its mapping alive as long as it lives.
    Attaching is O(number of slabs); the contents are the caller's to
    check.  Raises
    :class:`~repro.errors.InputError` for a manifest of another schema or a
    file whose size is not the manifest's count of items, and ``OSError``
    for a missing file.
    """
    path = os.fspath(path)
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or manifest.get("schema") != schema:
        raise InputError(f"{path}: not a {schema} slab directory")
    views = {
        name: _map_slab(os.path.join(path, f"{name}.bin"), typecode, count)
        for name, typecode, count in manifest["slots"]
    }
    return manifest, views


def _map_slab(path: str, typecode: str, count: int) -> memoryview:
    if count == 0:
        return memoryview(bytearray()).cast(typecode)
    expected = 8 * count
    size = os.path.getsize(path)
    if size != expected:
        raise InputError(
            f"slab file {path} holds {size} bytes, manifest expects {expected}"
        )
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), expected, access=mmap.ACCESS_COPY)
    return memoryview(mapped).cast(typecode)
