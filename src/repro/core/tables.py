"""Flat array-backed routing-scheme state (the substrate tables layer).

The converged landmark substrate that NDDisco builds (and Disco embeds and
S4 adopts) was historically held as per-node Python object graphs:
``dict[int, list[float]]`` landmark tables, one ``dict`` pair per vicinity,
one boxed float per distance.  This module stores the same state as
row-major typed slabs -- ``array('d')`` / ``array('q')`` -- exactly like the
CSR snapshot did for the graph itself in PR 1:

* **Landmark SPT slabs** -- distances and parents for every landmark,
  ``|L| x n`` row-major (row order = ascending landmark id).
* **Closest-landmark rows** -- per-node closest landmark and its distance.
* **Vicinity table** (:class:`NodeSearchTables`) -- CSR-style offsets over
  a flat member slab, with aligned distance and parent slabs, members kept
  in Dijkstra settle order so iteration matches the historical dicts.

No address is stored: node ``v``'s address is ``closest[v]`` and that
landmark's SPT path down to ``v`` (:meth:`SubstrateTables.spt_path`), and
its label bits are derived from the parent slab and the degrees
(:func:`repro.addressing.labels.address_bits`).

Every reader reads rows: a vicinity or ball row is
:meth:`NodeSearchTables.row` (or :meth:`NodeSearchTables.path_from_owner`
for a path along it), a landmark's is a slice of the SPT slabs
(:meth:`SubstrateTables.spt_distance` / :meth:`~SubstrateTables.spt_path`
for one entry), and the schemes hold this object, never a slab of it.  One
builder fills the slabs, the slab-direct
:func:`repro.core.substrate_build.build_substrate_tables`.

The same class is the churn engine's live state
(:mod:`repro.dynamics.engine`): the engine converges through the production
builder, puts the vicinity rows at a fixed stride
(:meth:`NodeSearchTables.strided`) so a row can be rewritten in place,
repairs the slabs per event through writable handles it keeps to itself, and
hands readers :meth:`SubstrateTables.read_only` views of the same memory.

Because the slabs are plain buffers they persist as one raw slab directory
(:meth:`SubstrateTables.save_slabs`, :mod:`repro.utils.slab_dir`) that
:meth:`SubstrateTables.from_mmap` attaches by ``mmap`` after checking every
id slab's range: the artifact store keeps every substrate's tables in that
form, so pool workers share one page-cache copy.
"""

from __future__ import annotations

import mmap as _mmap
import os
from array import array
from operator import gt, sub
from typing import Mapping, Sequence

from repro.graphs.csr import tree_path
from repro.utils.slab_dir import read_slab_dir, write_slab_dir

__all__ = [
    "NodeSearchTables",
    "SlabArena",
    "SubstrateTables",
    "SLAB_SCHEMA",
]

#: On-disk raw-slab layout version (``save_slabs`` / ``from_mmap``): a
#: directory holding ``manifest.json`` plus one little-endian 8-byte-item
#: ``<slab name>.bin`` file per slab.
SLAB_SCHEMA = "repro-tables-slabs/v2"


class NodeSearchTables:
    """Per-node truncated-search results as CSR slabs.

    One row per node, members in settle order (``members[offset[v]]`` is
    ``v`` itself, with parent -1).  Backs both the NDDisco vicinities and
    the S4 reverse clusters ("balls"); readers take :meth:`row` or walk
    :meth:`path_from_owner`.

    Row ``v`` is ``[offsets[v], offsets[v] + lengths[v])``.  Without
    ``lengths`` the rows are *packed* (row ``v`` ends where ``v + 1``
    starts), which is what every scheme-built table, ball table and stored
    artifact holds; :meth:`strided` gives the fixed-stride form whose rows
    can be rewritten in place.
    """

    __slots__ = (
        "num_nodes", "offsets", "members", "dists", "parents", "lengths",
        "_indexes",
    )

    def __init__(
        self,
        num_nodes: int,
        offsets: "array | memoryview",
        members: "array | memoryview",
        dists: "array | memoryview",
        parents: "array | memoryview",
        lengths: "array | memoryview | None" = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.offsets = offsets
        self.members = members
        self.dists = dists
        self.parents = parents
        self.lengths = lengths
        self._indexes: list[dict[int, int] | None] = [None] * num_nodes

    @classmethod
    def from_searches(
        cls,
        searches: Sequence[tuple[Mapping[int, float], Mapping[int, int]]],
    ) -> "NodeSearchTables":
        """Build slabs from per-node ``(distances, predecessors)`` dicts.

        The one dict-to-row boundary: routing tables learned by the
        message-level simulator enter the row world here.  ``searches[v]``
        must be rooted at ``v``: distances iterate in settle order starting
        with the root, and the predecessor dict covers every member but the
        root.

        >>> table = NodeSearchTables.from_searches(
        ...     [({0: 0.0, 1: 2.5}, {1: 0}), ({1: 0.0, 0: 2.5}, {0: 1})]
        ... )
        >>> members, dists, parents = table.row(1)
        >>> members.tolist(), dists.tolist(), parents.tolist()
        ([1, 0], [0.0, 2.5], [-1, 1])
        >>> table.path_from_owner(0, 1)
        [0, 1]
        """
        offsets = [0]
        members: list[int] = []
        dists: list[float] = []
        parents: list[int] = []
        position = 0
        for node, (distances, predecessors) in enumerate(searches):
            order = list(distances)
            if not order:
                raise ValueError(f"search {node} has no settled members")
            if order[0] != node:
                raise ValueError(
                    f"search {node} does not start at its own node "
                    f"(got {order[0]})"
                )
            members.extend(order)
            dists.extend(distances.values())
            parents.append(-1)
            iterator = iter(order)
            next(iterator)
            parents.extend(predecessors[member] for member in iterator)
            position += len(order)
            offsets.append(position)
        return cls(
            len(searches),
            array("q", offsets),
            array("q", members),
            array("d", dists),
            array("q", parents),
        )

    def strided(self, stride: int) -> "NodeSearchTables":
        """These packed rows at a fixed ``stride``, with a ``lengths`` column.

        Row ``v`` starts at ``v * stride`` whatever its length, so it can be
        rewritten in place, shorter or longer up to ``stride`` (the churn
        engine's layout: ``stride = min(k, n)``, a row short only when its
        component is).  Shares the member / distance / parent slabs when
        every row is ``stride`` long already -- any connected graph -- and
        copies the rows apart otherwise.
        """
        n = self.num_nodes
        lengths = array("q", map(int.__sub__, self.offsets[1:], self.offsets))
        if lengths and max(lengths) > stride:
            raise ValueError(f"a row is longer than the stride {stride}")
        slabs = [self.members, self.dists, self.parents]
        if len(self.members) != n * stride:
            packed = [memoryview(slab) for slab in slabs]
            slabs = [array(code, bytes(8 * n * stride)) for code in "qdq"]
            for node, width in enumerate(lengths):
                lo = self.offsets[node]
                for slab, rows in zip(slabs, packed):
                    memoryview(slab)[node * stride : node * stride + width] = (
                        rows[lo : lo + width]
                    )
        offsets = array("q", [node * stride for node in range(n + 1)])
        return NodeSearchTables(n, offsets, *slabs, lengths=lengths)

    def read_only(self) -> "NodeSearchTables":
        """The same memory behind read-only views (own index cache)."""
        return NodeSearchTables(
            self.num_nodes,
            *(_read_only(getattr(self, slot)) for slot, _ in _VICINITY_SLOTS),
            lengths=None if self.lengths is None else _read_only(self.lengths),
        )

    def row(self, node: int) -> tuple[memoryview, memoryview, memoryview]:
        """``node``'s flat ``(members, dists, parents)`` row, as slab views.

        Raises ``IndexError`` unless ``0 <= node < num_nodes``.
        """
        lo, hi = self.row_bounds(node)
        return (
            memoryview(self.members)[lo:hi],
            memoryview(self.dists)[lo:hi],
            memoryview(self.parents)[lo:hi],
        )

    def _index(self, node: int) -> dict[int, int]:
        """member -> absolute slab position for ``node``'s row (lazy)."""
        index = self._indexes[node]
        if index is None:
            lo, hi = self.row_bounds(node)
            members = self.members
            index = {members[pos]: pos for pos in range(lo, hi)}
            self._indexes[node] = index
        return index

    def row_bounds(self, node: int) -> tuple[int, int]:
        """The ``[lo, hi)`` slab range of ``node``'s row."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range (n={self.num_nodes})")
        lo = self.offsets[node]
        if self.lengths is None:
            return lo, self.offsets[node + 1]
        return lo, lo + self.lengths[node]

    def path_from_owner(self, node: int, member: int) -> list[int]:
        """Shortest path ``node .. member`` along the row's search tree.

        Raises ``IndexError`` unless ``0 <= node < num_nodes``, and
        ``KeyError`` if ``member`` is not in the row.
        """
        lo, _ = self.row_bounds(node)
        if member == node:
            return [node]
        index = self._index(node)
        position = index.get(member)
        if position is None:
            raise KeyError(member)
        parents = self.parents
        path = [member]
        current = member
        while current != node:
            pos = index.get(current)
            if pos is None or pos == lo:
                raise ValueError(
                    f"target {member} not reachable from {node} in "
                    "predecessor map"
                )
            current = parents[pos]
            path.append(current)
        path.reverse()
        return path


#: Slab layout of a SubstrateTables, in publication order:
#: (attribute, typecode).  The vicinity sub-slabs follow when present.
_TABLE_SLOTS: tuple[tuple[str, str], ...] = (
    ("landmark_ids", "q"),
    ("spt_dist", "d"),
    ("spt_parent", "q"),
    ("closest", "q"),
    ("closest_dist", "d"),
)

_VICINITY_SLOTS: tuple[tuple[str, str], ...] = (
    ("offsets", "q"),
    ("members", "q"),
    ("dists", "d"),
    ("parents", "q"),
)


def _read_only(slab) -> memoryview:
    return memoryview(slab).toreadonly()


class SubstrateTables:
    """The converged landmark substrate as flat typed slabs.

    Built slab-direct by
    :func:`repro.core.substrate_build.build_substrate_tables`, and the only
    converged state the schemes hold: their ``from_tables`` adopts this
    object (after :meth:`check_adoptable`) and they read its slabs
    through it.
    """

    __slots__ = (
        "num_nodes",
        "landmark_ids",
        "spt_dist",
        "spt_parent",
        "closest",
        "closest_dist",
        "vicinity",
        "_landmark_pos",
    )

    def __init__(
        self,
        num_nodes: int,
        landmark_ids,
        spt_dist,
        spt_parent,
        closest,
        closest_dist,
        vicinity: NodeSearchTables | None,
    ) -> None:
        self.num_nodes = num_nodes
        self.landmark_ids = landmark_ids
        self.spt_dist = spt_dist
        self.spt_parent = spt_parent
        self.closest = closest
        self.closest_dist = closest_dist
        self.vicinity = vicinity
        self._index_landmarks()

    def _index_landmarks(self) -> None:
        self._landmark_pos = {
            landmark: index for index, landmark in enumerate(self.landmark_ids)
        }

    # -- landmark SPT rows --------------------------------------------------

    @property
    def landmarks(self) -> list[int]:
        """The landmark ids (ascending)."""
        return self.landmark_ids.tolist()

    # The three readers below run once per lookup and do not check ``node``:
    # callers guarantee ``0 <= node < num_nodes`` (an id outside it reads
    # another landmark's row).

    def spt_distance(self, landmark: int, node: int) -> float:
        """d(landmark, node) straight from the slab; ``0 <= node < n``."""
        return self.spt_dist[self._landmark_pos[landmark] * self.num_nodes + node]

    def spt_path(self, landmark: int, node: int) -> list[int]:
        """The landmark's SPT path ``landmark .. node`` from the parent slab;
        ``0 <= node < n``."""
        base = self._landmark_pos[landmark] * self.num_nodes
        return tree_path(self.spt_parent, landmark, node, base=base)

    def spt_hops(self, landmark: int, node: int) -> int:
        """``len(spt_path(landmark, node)) - 1``: the same walk, no list;
        ``0 <= node < n``."""
        base = self._landmark_pos[landmark] * self.num_nodes
        parents = self.spt_parent
        limit = self.num_nodes
        current = node
        hops = 0
        while current != landmark:
            current = parents[base + current]
            if current < 0 or hops > limit:
                raise ValueError(
                    f"node {node} not reachable from root {landmark}"
                )
            hops += 1
        return hops

    # -- adoption by a scheme -----------------------------------------------

    def check_adoptable(self, num_nodes: int, *, vicinity: bool) -> None:
        """Raise ``ValueError`` unless a scheme on ``num_nodes`` nodes can
        adopt these tables, with a vicinity table if ``vicinity``: counts
        and landmark ids, O(|L|); the slab contents are the builder's word.
        """
        n = num_nodes
        if self.num_nodes != n:
            raise ValueError(f"tables cover {self.num_nodes} nodes, the topology {n}")
        ids = self.landmark_ids
        if not len(ids) or ids[0] < 0 or ids[-1] >= n or any(
            a >= b for a, b in zip(ids, ids[1:])
        ):
            raise ValueError(
                f"landmark ids must be non-empty, ascending and in 0..{n - 1}"
            )
        spt = len(ids) * n
        sizes = dict(spt_dist=spt, spt_parent=spt, closest=n, closest_dist=n)
        for slot, size in sizes.items():
            held = len(getattr(self, slot))
            if held != size:
                raise ValueError(f"{slot} holds {held} entries, not {size}")
        if vicinity and (self.vicinity is None or self.vicinity.num_nodes != n):
            raise ValueError(f"tables carry no vicinity table over {n} nodes")

    # -- tables repaired in place -------------------------------------------
    #
    # The churn engine (repro.dynamics.engine) repairs slabs of this class
    # per event through writable handles it keeps to itself, and hands
    # readers the same memory behind read-only views.

    def read_only(self) -> "SubstrateTables":
        """The same memory behind read-only views: live after every write
        the owner of the writable slabs makes, and unwritable itself."""
        views = [_read_only(getattr(self, slot)) for slot, _ in _TABLE_SLOTS]
        vicinity = None if self.vicinity is None else self.vicinity.read_only()
        return SubstrateTables(self.num_nodes, *views, vicinity)

    def forget_rows(self, nodes) -> None:
        """Drop the member -> position indexes of vicinity rows rewritten in
        place.  Rows read before the write are stale after it."""
        indexes = self.vicinity._indexes
        for node in nodes:
            indexes[node] = None

    # -- raw-slab persistence (mmap attach) ----------------------------------

    def slab_items(self) -> list[tuple[str, str, object]]:
        """Every slab as ``(name, typecode, buffer)`` in publication order.

        Vicinity sub-slabs are named ``vicinity.<slot>`` and follow the
        table slots, matching the on-disk slab-directory layout.
        """
        slabs: list[tuple[str, str, object]] = [
            (slot, typecode, getattr(self, slot))
            for slot, typecode in _TABLE_SLOTS
        ]
        if self.vicinity is not None:
            slabs.extend(
                (f"vicinity.{slot}", typecode, getattr(self.vicinity, slot))
                for slot, typecode in _VICINITY_SLOTS
            )
            if self.vicinity.lengths is not None:
                slabs.append(("vicinity.lengths", "q", self.vicinity.lengths))
        return slabs

    def slab_bytes(self) -> int:
        """Total raw slab payload in bytes (every item is 8 bytes)."""
        return sum(8 * len(slab) for _, _, slab in self.slab_items())

    def save_slabs(
        self, path: "str | os.PathLike", *, skip: "set[str] | None" = None
    ) -> str:
        """Write the tables as a raw slab directory (see :data:`SLAB_SCHEMA`).

        The directory is mmap-attachable with :meth:`from_mmap` -- the
        natural format for substrates larger than RAM, and the format the
        artifact cache stores every ``tables`` artifact in.  ``skip`` names
        slabs whose ``.bin`` files already hold the final content (the
        out-of-core build packs the big slabs straight into those files and
        only the small slabs plus the manifest remain to be written).
        Returns the directory path.
        """
        return write_slab_dir(
            path,
            SLAB_SCHEMA,
            self.slab_items(),
            skip=skip,
            num_nodes=self.num_nodes,
            vicinity_nodes=(
                self.vicinity.num_nodes if self.vicinity is not None else None
            ),
        )

    @classmethod
    def from_mmap(cls, path: "str | os.PathLike") -> "SubstrateTables":
        """Attach to a raw slab directory written by :meth:`save_slabs`.

        Every slab becomes a typed ``memoryview`` cast over a private
        copy-on-write ``mmap`` of its ``.bin`` file
        (:func:`~repro.utils.slab_dir.read_slab_dir`): writable, so the C
        kernels take it as they take slabs in RAM, and never written, so
        concurrent attachers (e.g. scenario-shard workers) share one page
        cache instead of private copies; the distance slabs are paged in
        only as rows are read
        (the checks below read the id slabs once).  Each mapping
        stays alive exactly as long as its views do.  The counts are
        checked as on adoption (:meth:`check_adoptable`), then every id
        slab's range and the vicinity offsets' order (:meth:`_check_ids`,
        O(n + |L| n + Σ vicinity)): the readers index with the stored ids
        unchecked.  A directory that fails either raises ``ValueError``.
        """
        manifest, views = read_slab_dir(path, SLAB_SCHEMA)
        vicinity = None
        if manifest["vicinity_nodes"] is not None:
            vicinity = NodeSearchTables(
                manifest["vicinity_nodes"],
                views["vicinity.offsets"],
                views["vicinity.members"],
                views["vicinity.dists"],
                views["vicinity.parents"],
                views.get("vicinity.lengths"),
            )
        tables = cls(
            manifest["num_nodes"],
            views["landmark_ids"],
            views["spt_dist"],
            views["spt_parent"],
            views["closest"],
            views["closest_dist"],
            vicinity,
        )
        tables.check_adoptable(tables.num_nodes, vicinity=vicinity is not None)
        tables._check_ids(path)
        return tables

    def _check_ids(self, path) -> None:
        """Raise ``ValueError`` unless every stored node id is in range and
        the vicinity offsets rise from 0 to the member slab's length.

        Parents and closest landmarks may be -1 (a root, or no landmark in
        reach); members may not.  A strided vicinity's row lengths must fit
        their rows.
        """
        n = self.num_nodes
        ranges = [
            ("spt_parent", self.spt_parent, -1),
            ("closest", self.closest, -1),
        ]
        vicinity = self.vicinity
        if vicinity is not None:
            ranges += [
                ("vicinity.members", vicinity.members, 0),
                ("vicinity.parents", vicinity.parents, -1),
            ]
            if len(vicinity.offsets) != n + 1:
                raise ValueError(f"{path}: vicinity.offsets needs {n + 1} entries")
        for name, slab, low in ranges:
            if len(slab) and (min(slab) < low or max(slab) >= n):
                raise ValueError(f"{path}: {name} holds an id outside [{low}, {n})")
        if vicinity is None:
            return
        offsets, total = vicinity.offsets, len(vicinity.members)
        if offsets[0] != 0 or offsets[-1] != total or any(map(gt, offsets, offsets[1:])):
            raise ValueError(f"{path}: vicinity.offsets must rise from 0 to {total}")
        lengths = vicinity.lengths
        if lengths is not None and (
            len(lengths) != vicinity.num_nodes
            or any(map(gt, lengths, map(sub, offsets[1:], offsets)))
            or (len(lengths) and min(lengths) < 0)
        ):
            raise ValueError(f"{path}: vicinity.lengths overrun their rows")


class SlabArena:
    """Writable slab allocator for the slab-direct substrate build.

    Three storage modes, selected by ``storage``:

    * ``None`` / ``"array"`` -- plain ``array`` slabs in RAM (the default).
    * ``"mmap"`` -- anonymous ``mmap`` slabs: still RAM, but page-aligned
      and returned to the OS as whole pages when dropped, which keeps the
      build's peak footprint flat for the big SPT / vicinity slabs.
    * a directory path -- file-backed ``mmap`` slabs named
      ``<slab name>.bin`` inside the directory, i.e. the build packs
      straight into the :data:`SLAB_SCHEMA` on-disk layout and the finished
      directory only needs the small slabs and the manifest
      (:meth:`SubstrateTables.save_slabs` with ``skip=arena.file_slabs``)
      to become mmap-attachable.  This is the out-of-core mode: slabs
      larger than RAM spill to disk through the page cache.

    Buffers returned by :meth:`alloc` are writable (``array`` objects or
    ``memoryview`` casts of the mapping).  :meth:`trim` shrinks a slab
    whose final fill fell short of its preallocated capacity (disconnected
    truncated searches); callers must drop every view of the slab first.
    """

    def __init__(self, storage: "str | os.PathLike | None" = None) -> None:
        if storage is None or storage == "array":
            self.mode = "array"
            self.root: str | None = None
        elif storage == "mmap":
            self.mode = "mmap"
            self.root = None
        else:
            self.mode = "dir"
            self.root = os.fspath(storage)
            os.makedirs(self.root, exist_ok=True)
        self._slabs: dict[str, tuple[str, object, str | None]] = {}

    @property
    def file_slabs(self) -> set[str]:
        """Names of slabs backed by files in the arena directory."""
        return {
            name
            for name, (_typecode, _backing, path) in self._slabs.items()
            if path is not None
        }

    def alloc(self, name: str, typecode: str, count: int):
        """Allocate a zero-filled slab of ``count`` 8-byte items."""
        if name in self._slabs:
            raise ValueError(f"slab {name!r} already allocated")
        nbytes = 8 * count
        if self.mode == "array" or count == 0:
            backing: object = array(typecode, bytes(nbytes))
            self._slabs[name] = (typecode, backing, None)
            return backing
        if self.mode == "mmap":
            backing = _mmap.mmap(-1, nbytes)
            self._slabs[name] = (typecode, backing, None)
            return memoryview(backing).cast(typecode)
        path = os.path.join(self.root, f"{name}.bin")
        with open(path, "wb") as handle:
            handle.truncate(nbytes)
        with open(path, "r+b") as handle:
            backing = _mmap.mmap(
                handle.fileno(), nbytes, access=_mmap.ACCESS_WRITE
            )
        self._slabs[name] = (typecode, backing, path)
        return memoryview(backing).cast(typecode)

    def view(self, name: str):
        """A fresh writable buffer for an allocated slab."""
        typecode, backing, _path = self._slabs[name]
        if isinstance(backing, array):
            return backing
        return memoryview(backing).cast(typecode)

    def trim(self, name: str, count: int):
        """Shrink ``name`` to ``count`` items; returns the new buffer.

        Every outstanding view of the slab must have been dropped (a live
        export raises ``BufferError``).
        """
        typecode, backing, path = self._slabs[name]
        nbytes = 8 * count
        if isinstance(backing, array):
            del backing[count:]
            return backing
        if len(backing) == nbytes:
            return self.view(name)
        if count == 0:
            backing.close()
            if path is not None:
                os.truncate(path, 0)
            empty = array(typecode)
            self._slabs[name] = (typecode, empty, None)
            return empty
        if path is None:
            backing.resize(nbytes)
            return self.view(name)
        backing.flush()
        backing.close()
        os.truncate(path, nbytes)
        with open(path, "r+b") as handle:
            backing = _mmap.mmap(
                handle.fileno(), nbytes, access=_mmap.ACCESS_WRITE
            )
        self._slabs[name] = (typecode, backing, path)
        return self.view(name)

    def flush(self) -> None:
        """Flush file-backed slabs to disk (no-op for the RAM modes)."""
        for _typecode, backing, path in self._slabs.values():
            if path is not None:
                backing.flush()
