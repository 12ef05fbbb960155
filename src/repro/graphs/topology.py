"""The :class:`Topology` class: an undirected, weighted network graph.

The paper's protocols operate on "an undirected connected network of n nodes
with arbitrary structure and link distances (i.e., link latencies or costs)"
(§4.1).  ``Topology`` models exactly that: nodes are consecutive integers
``0 .. n-1``, edges carry a positive float weight, and the edge set lives in
six flat typed slabs (the CSR arc slabs plus the canonical edge arrays).  A
``Topology`` is immutable: the kernels wrap its arc slabs zero-copy
(:meth:`Topology.csr`), and its content key never goes stale.

:class:`TopologyBuilder` is the mutable form, for the code that makes or
edits a graph (the generators, stream generation, replaying a stream's
prefix): per-node ``(neighbor, weight)`` rows plus a canonical edge-weight
dict, turned into a ``Topology`` by one :meth:`TopologyBuilder.freeze`.
The streaming ingestion pipeline (:mod:`repro.graphs.ingest`) builds a
``Topology`` straight from the edge arrays, without a builder.
"""

from __future__ import annotations

import math
import weakref
from array import array
from itertools import accumulate, chain
from operator import ge, itemgetter, le
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import InputError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.csr import CSRGraph, WeightProfile

__all__ = ["Topology", "TopologyBuilder", "TOPOLOGY_SLAB_SCHEMA"]

#: On-disk raw-slab layout version for :meth:`Topology.save_slabs` /
#: :meth:`Topology.from_slab_dir`: a directory holding ``manifest.json``
#: plus one little-endian 8-byte-item ``<slab name>.bin`` file per slab.
TOPOLOGY_SLAB_SCHEMA = "repro-topology-slabs/v1"

#: ``id(topology)`` -> ``(weakref to the topology, its`` :meth:`Topology.csr`
#: ``)``, dropped with the topology.  An id outlives its object, so an entry
#: is served only to the topology its weakref names.  The cache is kept off
#: the instance because a CSRGraph holds the ctypes kernel library, which
#: does not pickle: a pickled topology carries its slabs only, and the copy
#: builds its own CSRGraph on demand.
_CSR_CACHE: "dict[int, tuple[weakref.ref, CSRGraph]]" = {}

#: The six slabs, ``(name, typecode)``, in constructor and manifest order.
_SLABS = (
    ("offsets", "q"),
    ("neighbors", "q"),
    ("weights", "d"),
    ("edges_u", "q"),
    ("edges_v", "q"),
    ("edges_w", "d"),
)


def _check_node(node: int, num_nodes: int) -> None:
    if not 0 <= node < num_nodes:
        raise ValueError(
            f"node {node} out of range for topology with {num_nodes} nodes"
        )


def _components(
    num_nodes: int, row: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """Connected components by depth-first search, ``row(node)`` giving the
    neighbours in arc order (the traversal, and so the member order,
    follows it)."""
    seen = bytearray(num_nodes)
    components: list[list[int]] = []
    for start in range(num_nodes):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = 1
        component: list[int] = []
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in row(node):
                if not seen[neighbor]:
                    seen[neighbor] = 1
                    stack.append(neighbor)
        components.append(component)
    return components


def _edges_valid(num_nodes: int, edges_u, edges_v, edges_w) -> bool:
    """Whether the edge arrays align, with ``0 <= u < v < n`` and every
    weight positive and finite (C-speed scans)."""
    if len({len(edges_u), len(edges_v), len(edges_w)}) > 1:
        return False
    return not len(edges_w) or (
        min(edges_u) >= 0
        and max(edges_v) < num_nodes
        and not any(map(ge, edges_u, edges_v))
        and min(edges_w) > 0
        and all(map(math.isfinite, edges_w))
    )


class TopologyBuilder:
    """The mutable form of a :class:`Topology`.

    Self-loops are rejected, weights must be positive and finite, and a
    repeated edge keeps its first position with the smaller weight.  Each
    node's row lists its ``(neighbor, weight)`` arcs in arrival order (a
    removal closes the gap, a re-add appends), which is observable: an
    address label is a neighbour's position in its row.  :meth:`freeze`
    keeps both that order and the edge order of :meth:`edges`.
    """

    __slots__ = (
        "_num_nodes", "_adjacency", "_edge_weights", "_scatter", "name"
    )

    def __init__(self, num_nodes: int, *, name: str = "topology") -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._adjacency: list[list[tuple[int, float]]] = [
            [] for _ in range(self._num_nodes)
        ]
        self._edge_weights: dict[tuple[int, int], float] = {}
        # Grown from empty, a row lists its node's edges in edge-dict order
        # (an add appends to both, a removal closes both gaps, a reweight
        # moves nothing), so the rows are the edges scattered in order.
        self._scatter = True
        self.name = name

    @classmethod
    def from_topology(cls, topology: "Topology") -> "TopologyBuilder":
        """A builder holding ``topology``'s rows, arc for arc, and edges."""
        builder = cls(topology.num_nodes, name=topology.name)
        builder._adjacency = [list(row) for row in topology.adjacency]
        builder._edge_weights = {(u, v): w for u, v, w in topology.edges()}
        builder._scatter = False  # rows in any order, e.g. a spliced graph's
        return builder

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with a positive, finite weight.

        Adding an existing edge keeps the smaller of the old and new weights.
        """
        n = self._num_nodes
        if not (0 <= u < n and 0 <= v < n):
            _check_node(u, n)
            _check_node(v, n)
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        if not 0 < weight < math.inf:  # also rejects NaN
            raise ValueError(
                f"edge weight must be > 0 and finite, got {weight}"
            )
        weight = float(weight)
        key = (u, v) if u < v else (v, u)
        existing = self._edge_weights.get(key)
        if existing is not None:
            if weight < existing:
                self._reweight(key, weight)
            return
        self._edge_weights[key] = weight
        self._adjacency[u].append((v, weight))
        self._adjacency[v].append((u, weight))

    def remove_edge(self, u: int, v: int) -> float:
        """Remove the undirected edge ``{u, v}``; return its weight
        (``KeyError`` if absent)."""
        _check_node(u, self._num_nodes)
        _check_node(v, self._num_nodes)
        key = (u, v) if u < v else (v, u)
        weight = self._edge_weights.pop(key)  # KeyError if absent
        self._adjacency[u] = [arc for arc in self._adjacency[u] if arc[0] != v]
        self._adjacency[v] = [arc for arc in self._adjacency[v] if arc[0] != u]
        return weight

    def set_edge_weight(self, u: int, v: int, weight: float) -> float:
        """Set the weight of the existing edge ``{u, v}``; return the old one.

        Unlike :meth:`add_edge` (which only ever *lowers* the stored weight
        of a duplicate edge), this models a link-cost change event and may
        raise or lower the weight.  ``KeyError`` if the edge is absent,
        ``ValueError`` if the weight is not positive and finite.
        """
        _check_node(u, self._num_nodes)
        _check_node(v, self._num_nodes)
        if not 0 < weight < math.inf:  # also rejects NaN
            raise ValueError(
                f"edge weight must be > 0 and finite, got {weight}"
            )
        key = (u, v) if u < v else (v, u)
        old = self._edge_weights[key]  # KeyError if absent
        if float(weight) != old:
            self._reweight(key, float(weight))
        return old

    def _reweight(self, key: tuple[int, int], weight: float) -> None:
        self._edge_weights[key] = weight
        for node, other in (key, key[::-1]):
            row = self._adjacency[node]
            for index, (neighbor, _) in enumerate(row):
                if neighbor == other:
                    row[index] = (other, weight)
                    break

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        """``adjacency[u]`` is ``u``'s row of ``(neighbor, weight)``; read-only."""
        return self._adjacency

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each edge once as ``(u, v, weight)`` with u < v, in
        insertion order."""
        for (u, v), weight in self._edge_weights.items():
            yield u, v, weight

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_weights

    def edge_weight(self, u: int, v: int) -> float:
        """The weight of edge ``{u, v}``; ``KeyError`` if absent."""
        return self._edge_weights[(u, v) if u < v else (v, u)]

    def connected_components(self) -> list[list[int]]:
        adjacency, first = self._adjacency, itemgetter(0)
        return _components(
            self._num_nodes, lambda node: map(first, adjacency[node])
        )

    def freeze(self) -> "Topology":
        """The immutable :class:`Topology` of the current edge set.

        The arc slabs are the rows as they stand and the edge arrays follow
        :meth:`edges`, so neither order changes; the builder stays usable.
        A builder grown from empty has its rows assembled from the edge
        arrays in one counting pass (C-accelerated when available).
        """
        edges = self._edge_weights
        edges_u = array("q", [u for u, _ in edges])
        edges_v = array("q", [v for _, v in edges])
        edges_w = array("d", edges.values())
        if self._scatter:
            from repro.graphs.ingest import assemble_csr_slabs

            arc_slabs = assemble_csr_slabs(
                self._num_nodes, edges_u, edges_v, edges_w
            )
        else:
            rows = self._adjacency
            arcs = list(chain.from_iterable(rows))
            arc_slabs = (
                array("q", accumulate(map(len, rows), initial=0)),
                array("q", [v for v, _ in arcs]),
                array("d", [w for _, w in arcs]),
            )
        return Topology(
            self._num_nodes, *arc_slabs, edges_u, edges_v, edges_w,
            name=self.name,
        )


class Topology:
    """An immutable undirected weighted graph over nodes ``0 .. n-1``.

    The edge set lives in six flat slabs:

    * ``offsets`` / ``neighbors`` / ``weights`` -- the CSR arc slabs: node
      ``v``'s arcs sit at ``offsets[v] .. offsets[v + 1]`` in row order,
      which :meth:`csr` wraps zero-copy;
    * ``edges_u`` / ``edges_v`` / ``edges_w`` -- the canonical edges
      ``(u < v)``, each once, in the order :meth:`edges` yields them.

    Instances come from :meth:`TopologyBuilder.freeze` (and
    :meth:`from_edges`, which runs one), from :mod:`repro.graphs.ingest`
    (streaming parse) through :meth:`from_edge_arrays`, from
    :meth:`from_slab_dir` (mmap attach of a :data:`TOPOLOGY_SLAB_SCHEMA`
    directory, checked on attach) and from :meth:`from_csr`.  Equality is
    over the node count and the weighted edge set, not arc order or
    ``name``.
    """

    __slots__ = (
        "_num_nodes",
        "_offsets",
        "_nbrs",
        "_wts",
        "_eu",
        "_ev",
        "_ew",
        "_weight_profile",
        "_content_key",
        "_connected",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        num_nodes: int,
        offsets,
        neighbors,
        weights,
        edges_u,
        edges_v,
        edges_w,
        *,
        name: str = "topology",
        profile: "WeightProfile | None" = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._offsets = offsets
        self._nbrs = neighbors
        self._wts = weights
        self._eu = edges_u
        self._ev = edges_v
        self._ew = edges_w
        self._weight_profile = profile
        self._content_key: str | None = None
        self._connected: bool | None = None  # set by is_connected()
        self.name = name

    # -- construction -------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
        *,
        name: str = "topology",
    ) -> "Topology":
        """Build from an edge iterable (a :class:`TopologyBuilder` replay)."""
        builder = TopologyBuilder(num_nodes, name=name)
        for edge in edges:
            builder.add_edge(*edge)
        return builder.freeze()

    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        edges_u,
        edges_v,
        edges_w,
        *,
        name: str = "topology",
        profile: "WeightProfile | None" = None,
    ) -> "Topology":
        """Build from deduplicated canonical edge arrays (``u < v``).

        Ids out of range, a pair with ``u >= v``, a repeated pair and a
        weight that is not positive and finite raise
        :class:`~repro.errors.InputError` before
        anything is assembled (C-speed scans; repeats are found by the
        ingest dedup pass, C-accelerated when available, run on copies);
        the CSR arc slabs are then built in one counting pass
        (C-accelerated when available), each row in edge order.
        """
        from repro.graphs.ingest import assemble_csr_slabs, dedup_edge_arrays

        copies = array("q", edges_u), array("q", edges_v), array("d", edges_w)
        if not _edges_valid(num_nodes, edges_u, edges_v, edges_w) or len(
            dedup_edge_arrays(num_nodes, *copies)[2]
        ) != len(edges_w):
            raise InputError(
                f"edge arrays must align, with 0 <= u < v < {num_nodes}, "
                "no pair repeated and every weight > 0 and finite"
            )
        offsets, neighbors, weights = assemble_csr_slabs(
            num_nodes, edges_u, edges_v, edges_w
        )
        return cls(
            num_nodes,
            offsets,
            neighbors,
            weights,
            edges_u,
            edges_v,
            edges_w,
            name=name,
            profile=profile,
        )

    @classmethod
    def from_csr(
        cls, graph: "CSRGraph", *, name: str = "topology"
    ) -> "Topology":
        """The topology over a copy of ``graph``'s rows, arc for arc; its
        edges come in row order (each ``u < v`` arc of row ``u``)."""
        edges = [
            (u, v, w)
            for u, row in enumerate(graph.adjacency)
            for v, w in row
            if u < v
        ]
        return cls(
            graph.num_nodes,
            array("q", graph.offsets),
            array("q", graph.neighbors.tolist()),
            array("d", graph.weights.tolist()),
            array("q", [u for u, _, _ in edges]),
            array("q", [v for _, v, _ in edges]),
            array("d", [w for _, _, w in edges]),
            name=name,
        )

    def copy(self) -> "Topology":
        """A copy sharing the (immutable) slabs, with a :meth:`csr` of its own."""
        duplicate = Topology(
            self._num_nodes,
            *(slab for _, _, slab in self.slab_items()),
            name=self.name,
            profile=self._weight_profile,
        )
        duplicate._content_key = self._content_key
        duplicate._connected = self._connected
        return duplicate

    # -- reads ----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return len(self._ew)

    @property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        """``adjacency[u]`` is ``u``'s row of ``(neighbor, weight)`` pairs,
        in arc order (:attr:`CSRGraph.adjacency`, carved once); read-only."""
        return self.csr().adjacency

    def nodes(self) -> range:
        """Return the node identifiers as a ``range`` object."""
        return range(self._num_nodes)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        return zip(self._eu, self._ev, self._ew)

    def neighbors(self, node: int) -> list[int]:
        """Return the neighbors of ``node``, in arc order."""
        _check_node(node, self._num_nodes)
        return self._nbrs[self._offsets[node] : self._offsets[node + 1]].tolist()

    def degree(self, node: int) -> int:
        """Return the degree of ``node``."""
        _check_node(node, self._num_nodes)
        return self._offsets[node + 1] - self._offsets[node]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the undirected edge ``{u, v}`` exists."""
        return self.csr().has_edge(u, v)

    def edge_weight(self, u: int, v: int) -> float:
        """The weight of edge ``{u, v}`` (a scan of ``u``'s row);
        ``KeyError`` if absent."""
        return self.csr().edge_weight(u, v)

    def get_edge_weight(
        self, u: int, v: int, default: float | None = None
    ) -> float | None:
        """Return the weight of edge ``{u, v}``, or ``default`` if absent."""
        try:
            return self.csr().edge_weight(u, v)
        except KeyError:
            return default

    def average_degree(self) -> float:
        """Return the mean node degree (0.0 for an empty graph)."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_nodes

    def max_degree(self) -> int:
        """Return the maximum node degree (0 for an empty graph)."""
        return max(self.degree_sequence(), default=0)

    def degree_sequence(self) -> list[int]:
        """Return the list of node degrees indexed by node id."""
        offsets = self._offsets
        return [
            offsets[node + 1] - offsets[node] for node in range(self._num_nodes)
        ]

    # -- connectivity -----------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Return the connected components as lists of node ids."""
        offsets, neighbors = self._offsets, self._nbrs
        return _components(
            self._num_nodes,
            lambda node: neighbors[offsets[node] : offsets[node + 1]],
        )

    def is_connected(self) -> bool:
        """Return True if the graph has at most one connected component
        (searched on the first call; a topology never changes)."""
        if self._connected is None:
            self._connected = (
                self._num_nodes <= 1 or len(self.connected_components()) == 1
            )
        return self._connected

    def largest_component_subgraph(self) -> tuple["Topology", dict[int, int]]:
        """Return the largest connected component as a relabelled Topology.

        Returns
        -------
        (topology, mapping)
            ``topology`` has nodes ``0 .. k-1``; ``mapping`` maps old node
            ids to new ones (monotone, so edge and arc order survive).
        """
        largest = max(self.connected_components(), key=len, default=[])
        if len(largest) == self._num_nodes:
            return self.copy(), {node: node for node in range(self._num_nodes)}
        largest.sort()
        remap = array("q", [-1]) * self._num_nodes
        for new, old in enumerate(largest):
            remap[old] = new
        eu, ev, ew = self._eu, self._ev, self._ew
        sub_u, sub_v, sub_w = array("q"), array("q"), array("d")
        for j in range(len(ew)):
            new_u = remap[eu[j]]
            if new_u >= 0:  # then v is in the component too
                sub_u.append(new_u)
                sub_v.append(remap[ev[j]])
                sub_w.append(ew[j])
        sub = Topology.from_edge_arrays(
            len(largest), sub_u, sub_v, sub_w, name=self.name
        )
        return sub, {old: new for new, old in enumerate(largest)}

    # -- derived snapshots ------------------------------------------------------

    def csr(self) -> "CSRGraph":
        """The shared, cached :class:`CSRGraph` over the arc slabs."""
        owner, csr = _CSR_CACHE.get(id(self), (None, None))
        if owner is None or owner() is not self:
            csr = self.fresh_csr()
            _CSR_CACHE[id(self)] = (weakref.ref(self), csr)
            weakref.finalize(self, _CSR_CACHE.pop, id(self), None)
        return csr

    def fresh_csr(self) -> "CSRGraph":
        """A new :class:`CSRGraph` over the arc slabs (zero-copy) that the
        caller owns: its first splice copies the slabs before writing, and
        its tier is the one the environment gives now, whatever tier
        :meth:`csr`'s cached snapshot was built on."""
        from repro.graphs.csr import CSRGraph

        return CSRGraph(
            self._num_nodes,
            self._offsets,
            self._nbrs,
            self._wts,
            profile=self.weight_profile(),
        )

    def weight_profile(self) -> "WeightProfile":
        """The cached :class:`~repro.graphs.csr.WeightProfile` of the edge
        weights, which picks the C tier's search kernel: unit weights take
        BFS, power-of-two-quantized weights the Dial bucket queue,
        everything else the heap."""
        if self._weight_profile is None:
            from repro.graphs.csr import profile_weights

            self._weight_profile = profile_weights(self._ew)
        return self._weight_profile

    def content_key(self) -> str:
        """Return a content-addressed key for this topology's edge set.

        A SHA-256 hex digest over the node count and every undirected edge
        ``(u, v, weight)`` in sorted order, with weights hashed by their
        exact IEEE-754 bit pattern.  Two topologies have the same key iff
        they compare ``==`` (same nodes and weighted edges, regardless of
        arc order or ``name``); the scenario engine's artifact cache keys
        converged routing substrates by it.
        """
        if self._content_key is None:
            import hashlib
            import struct

            eu, ev, ew = self._eu, self._ev, self._ew
            digest = hashlib.sha256()
            digest.update(b"topology/v1")
            digest.update(struct.pack("<q", self._num_nodes))
            record = struct.Struct("<qqd")
            if self._edges_sorted():
                # Ingested topologies keep their edge slabs in (u, v)
                # order already: hash the records in one C-level pass
                # (identical byte stream to the sorted-index loop below).
                digest.update(b"".join(map(record.pack, eu, ev, ew)))
            else:
                pack = record.pack
                for j in sorted(
                    range(len(ew)), key=lambda idx: (eu[idx], ev[idx])
                ):
                    digest.update(pack(eu[j], ev[j], ew[j]))
            self._content_key = digest.hexdigest()
        return self._content_key

    def _edges_sorted(self) -> bool:
        """True when the edge slabs are already in (u, v) order."""
        eu, ev = self._eu, self._ev
        previous_u, previous_v = -1, -1
        for j in range(len(eu)):
            u, v = eu[j], ev[j]
            if u < previous_u or (u == previous_u and v <= previous_v):
                return False
            previous_u, previous_v = u, v
        return True

    # -- raw slab persistence (mmap-attachable artifact format) ---------------

    def slab_items(self) -> tuple[tuple[str, str, object], ...]:
        """``(name, typecode, slab)`` triples in manifest order."""
        slabs = (self._offsets, self._nbrs, self._wts, self._eu, self._ev, self._ew)
        return tuple(
            (name, typecode, slab) for (name, typecode), slab in zip(_SLABS, slabs)
        )

    def slab_bytes(self) -> int:
        """Total raw slab payload in bytes (every item is 8 bytes)."""
        return sum(8 * len(slab) for _, _, slab in self.slab_items())

    def save_slabs(self, path) -> str:
        """Write as a raw slab directory (see :data:`TOPOLOGY_SLAB_SCHEMA`).

        The directory is mmap-attachable with :meth:`from_slab_dir` -- the
        format the artifact cache stores every topology in.  Returns the
        directory path.
        """
        from repro.utils.slab_dir import write_slab_dir

        return write_slab_dir(
            path,
            TOPOLOGY_SLAB_SCHEMA,
            self.slab_items(),
            num_nodes=self._num_nodes,
            name=self.name,
            content_key=self.content_key(),
        )

    @classmethod
    def from_slab_dir(cls, path) -> "Topology":
        """Attach to a raw slab directory written by :meth:`save_slabs`.

        Every slab becomes a typed ``memoryview`` over a private
        copy-on-write file mapping: the CSR kernel arena takes ``ctypes``
        pointers into the graph slabs via ``from_buffer``, which needs a
        writable buffer, and the kernels never write them, so no page is
        privatized and repeated attaches share the OS page cache.  The
        kernels index with the stored ids unchecked, so the slabs are
        checked first, in one O(n + m) pass, and
        :class:`~repro.errors.InputError` is raised unless offsets start at 0, never decrease and end at
        ``len(neighbors) == len(weights) == 2 * len(edges_w)``, every
        neighbour id is in ``[0, n)``, every weight is positive and finite
        and the edge arrays align with ``u < v < n``.
        """
        from repro.utils.slab_dir import read_slab_dir

        manifest, views = read_slab_dir(path, TOPOLOGY_SLAB_SCHEMA)
        attached = cls(
            manifest["num_nodes"],
            *(views[name] for name, _ in _SLABS),
            name=manifest.get("name", "topology"),
        )
        if not attached._slabs_valid():
            raise InputError(f"{path}: topology slabs break the CSR invariants")
        attached._content_key = manifest.get("content_key")
        return attached

    def _slabs_valid(self) -> bool:
        n, offsets, neighbors, weights = (
            self._num_nodes, self._offsets, self._nbrs, self._wts
        )
        arcs = len(neighbors)
        return (
            len(offsets) == n + 1
            and offsets[0] == 0
            and offsets[n] == arcs == len(weights) == 2 * len(self._ew)
            and all(map(le, offsets, offsets[1:]))
            and (
                not arcs
                or (
                    min(neighbors) >= 0
                    and max(neighbors) < n
                    and min(weights) > 0
                    and all(map(math.isfinite, weights))
                )
            )
            and _edges_valid(n, self._eu, self._ev, self._ew)
        )

    # -- dunder -----------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self._num_nodes}, "
            f"edges={self.num_edges})"
        )
