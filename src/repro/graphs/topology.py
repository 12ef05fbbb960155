"""The :class:`Topology` class: an undirected, weighted network graph.

The paper's protocols operate on "an undirected connected network of n nodes
with arbitrary structure and link distances (i.e., link latencies or costs)"
(§4.1).  ``Topology`` models exactly that: nodes are consecutive integers
``0 .. n-1``, edges carry a positive float weight, and the adjacency structure
is stored as per-node lists of ``(neighbor, weight)`` pairs for fast iteration
inside the Dijkstra variants.

:class:`CSRTopology` is the dict-free fast path: an immutable subclass whose
edge set lives in flat typed slabs (the CSR arc slabs plus the canonical
kept-edge arrays) instead of per-node Python lists and a tuple-keyed dict.
The streaming ingestion pipeline (:mod:`repro.graphs.ingest`) builds it
directly from a text dataset without ever materializing Python edge objects,
and every ``Topology`` read API answers straight off the slabs -- the dict
structures are materialized lazily only if legacy dict-path code touches
them, which keeps the dict backend available as the differential oracle.
"""

from __future__ import annotations

import math
from array import array
from operator import ge
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.csr import CSRGraph, WeightProfile

__all__ = ["Topology", "CSRTopology", "TOPOLOGY_SLAB_SCHEMA"]

#: On-disk raw-slab layout version for :meth:`CSRTopology.save_slabs` /
#: :meth:`CSRTopology.from_slab_dir`: a directory holding ``manifest.json``
#: plus one little-endian 8-byte-item ``<slab name>.bin`` file per slab.
TOPOLOGY_SLAB_SCHEMA = "repro-topology-slabs/v1"


class Topology:
    """An undirected weighted graph over nodes ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes are implicitly the integers ``0 .. n-1``.
    name:
        Optional human-readable label (e.g. ``"gnm-1024"``) used in reports.

    Notes
    -----
    * Self-loops are rejected; parallel edges collapse to the smaller weight.
    * Edge weights must be strictly positive (they are link latencies/costs).
    * The class is mutable during construction (``add_edge``), and all reads
      are O(1)/O(degree); the shortest-path algorithms in
      :mod:`repro.graphs.shortest_paths` read ``topology.adjacency`` directly.
    """

    __slots__ = (
        "_num_nodes",
        "_adjacency",
        "_edge_weights",
        "_csr",
        "_weight_profile",
        "_content_key",
        "name",
    )

    def __init__(self, num_nodes: int, *, name: str = "topology") -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._adjacency: list[list[tuple[int, float]]] = [
            [] for _ in range(self._num_nodes)
        ]
        self._edge_weights: dict[tuple[int, int], float] = {}
        self._csr: "CSRGraph | None" = None
        self._weight_profile: "WeightProfile | None" = None
        self._content_key: str | None = None
        self.name = name

    # -- construction -----------------------------------------------------

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with a positive, finite weight.

        Adding an existing edge keeps the smaller of the old and new weights.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        if not 0 < weight < math.inf:  # also rejects NaN
            raise ValueError(
                f"edge weight must be > 0 and finite, got {weight}"
            )
        key = (u, v) if u < v else (v, u)
        existing = self._edge_weights.get(key)
        if existing is not None:
            if weight < existing:
                self._edge_weights[key] = float(weight)
                self._replace_adjacency_weight(u, v, float(weight))
                self._replace_adjacency_weight(v, u, float(weight))
                self._invalidate_caches()
            return
        self._edge_weights[key] = float(weight)
        self._adjacency[u].append((v, float(weight)))
        self._adjacency[v].append((u, float(weight)))
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Drop every derived snapshot after a mutation.

        The CSR kernel snapshot, the weight profile, and the content key are
        all pure functions of the edge set; they are invalidated together so
        no caller (including a shared-memory publisher) can observe a stale
        view of a mutated topology.
        """
        self._csr = None
        self._weight_profile = None
        self._content_key = None

    def remove_edge(self, u: int, v: int) -> float:
        """Remove the undirected edge ``{u, v}``; return its weight.

        The inverse of :meth:`add_edge`, used to replay link-failure events
        on a plain topology.  Removing then re-adding an
        edge yields a topology that compares ``==`` (and shares a
        ``content_key``) with the original: equality is defined over the
        edge-weight table, not adjacency insertion order, and every
        derived snapshot (CSR, weight profile, content key) is
        invalidated by the mutation.

        Raises
        ------
        KeyError
            If the edge does not exist.
        """
        self._check_node(u)
        self._check_node(v)
        key = (u, v) if u < v else (v, u)
        weight = self._edge_weights.pop(key)  # KeyError if absent
        self._adjacency[u] = [
            pair for pair in self._adjacency[u] if pair[0] != v
        ]
        self._adjacency[v] = [
            pair for pair in self._adjacency[v] if pair[0] != u
        ]
        self._invalidate_caches()
        return weight

    def set_edge_weight(self, u: int, v: int, weight: float) -> float:
        """Set the weight of the existing edge ``{u, v}``; return the old one.

        Unlike :meth:`add_edge` (which only ever *lowers* the stored weight
        of a duplicate edge), this models a link-cost change event and may
        raise or lower the weight.

        Raises
        ------
        KeyError
            If the edge does not exist.
        ValueError
            If the weight is not strictly positive and finite.
        """
        self._check_node(u)
        self._check_node(v)
        if not 0 < weight < math.inf:  # also rejects NaN
            raise ValueError(
                f"edge weight must be > 0 and finite, got {weight}"
            )
        key = (u, v) if u < v else (v, u)
        old = self._edge_weights[key]  # KeyError if absent
        if float(weight) == old:
            return old
        self._edge_weights[key] = float(weight)
        self._replace_adjacency_weight(u, v, float(weight))
        self._replace_adjacency_weight(v, u, float(weight))
        self._invalidate_caches()
        return old

    def add_edges_from(
        self, edges: Iterable[tuple[int, int] | tuple[int, int, float]]
    ) -> None:
        """Add many edges; each item is ``(u, v)`` or ``(u, v, weight)``."""
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                self.add_edge(u, v)
            else:
                u, v, w = edge  # type: ignore[misc]
                self.add_edge(u, v, w)

    def _replace_adjacency_weight(self, u: int, v: int, weight: float) -> None:
        row = self._adjacency[u]
        for index, (neighbor, _) in enumerate(row):
            if neighbor == v:
                row[index] = (v, weight)
                return

    # -- basic accessors ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return len(self._edge_weights)

    @property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Raw adjacency structure: ``adjacency[u]`` is a list of (v, weight).

        Exposed read-only by convention; the shortest-path algorithms iterate
        it directly for speed.  Callers must not mutate it.
        """
        return self._adjacency

    def nodes(self) -> range:
        """Return the node identifiers as a ``range`` object."""
        return range(self._num_nodes)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        for (u, v), weight in self._edge_weights.items():
            yield u, v, weight

    def neighbors(self, node: int) -> list[int]:
        """Return the neighbors of ``node`` (in insertion order)."""
        self._check_node(node)
        return [v for v, _ in self._adjacency[node]]

    def neighbor_weights(self, node: int) -> list[tuple[int, float]]:
        """Return ``(neighbor, weight)`` pairs for ``node``."""
        self._check_node(node)
        return list(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Return the degree of ``node``."""
        self._check_node(node)
        return len(self._adjacency[node])

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the undirected edge ``{u, v}`` exists."""
        return self.get_edge_weight(u, v) is not None

    def edge_weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        key = (u, v) if u < v else (v, u)
        return self._edge_weights[key]

    def get_edge_weight(
        self, u: int, v: int, default: float | None = None
    ) -> float | None:
        """Return the weight of edge ``{u, v}``, or ``default`` if absent.

        Single dict lookup; the hot-path alternative to calling
        :meth:`has_edge` followed by :meth:`edge_weight`.
        """
        return self._edge_weights.get((u, v) if u < v else (v, u), default)

    def total_weight(self) -> float:
        """Return the sum of all edge weights."""
        return sum(self._edge_weights.values())

    def average_degree(self) -> float:
        """Return the mean node degree (0.0 for an empty graph)."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_nodes

    def max_degree(self) -> int:
        """Return the maximum node degree (0 for an empty graph)."""
        if self._num_nodes == 0:
            return 0
        return max(len(row) for row in self._adjacency)

    def degree_sequence(self) -> list[int]:
        """Return the list of node degrees indexed by node id."""
        return [len(row) for row in self._adjacency]

    # -- connectivity ------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Return the connected components as lists of node ids."""
        seen = [False] * self._num_nodes
        components: list[list[int]] = []
        for start in range(self._num_nodes):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbor, _ in self._adjacency[node]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        stack.append(neighbor)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """Return True if the graph has at most one connected component."""
        if self._num_nodes <= 1:
            return True
        components = self.connected_components()
        return len(components) == 1

    def largest_component_subgraph(self) -> tuple["Topology", dict[int, int]]:
        """Return the largest connected component as a new, relabelled Topology.

        Returns
        -------
        (topology, mapping)
            ``topology`` has nodes ``0 .. k-1``; ``mapping`` maps old node ids
            to new ones.
        """
        components = self.connected_components()
        if not components:
            return Topology(0, name=self.name), {}
        largest = max(components, key=len)
        mapping = {old: new for new, old in enumerate(sorted(largest))}
        sub = Topology(len(largest), name=self.name)
        # Direct O(E) construction: every surviving edge is already validated
        # and deduplicated in this topology, so replaying add_edge per edge
        # (validation + duplicate collapse) would only add overhead.  The
        # mapping is monotone, so key ordering is preserved.
        sub_weights = sub._edge_weights
        sub_adjacency = sub._adjacency
        for (u, v), weight in self._edge_weights.items():
            new_u = mapping.get(u)
            if new_u is None:
                continue
            new_v = mapping.get(v)
            if new_v is None:
                continue
            sub_weights[(new_u, new_v)] = weight
            sub_adjacency[new_u].append((new_v, weight))
            sub_adjacency[new_v].append((new_u, weight))
        return sub, mapping

    # -- conversions -------------------------------------------------------

    def to_networkx(self):  # pragma: no cover - thin convenience wrapper
        """Return an equivalent ``networkx.Graph`` (weights on ``"weight"``)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_nodes))
        for u, v, weight in self.edges():
            graph.add_edge(u, v, weight=weight)
        return graph

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
        *,
        name: str = "topology",
    ) -> "Topology":
        """Build a topology from an edge iterable."""
        topology = cls(num_nodes, name=name)
        topology.add_edges_from(edges)
        return topology

    @classmethod
    def from_csr(
        cls, graph: "CSRGraph", *, name: str = "topology"
    ) -> "Topology":
        """The topology whose adjacency is ``graph``'s rows, arc for arc:
        :meth:`CSRGraph.from_topology` of it rebuilds ``graph``'s slabs."""
        topology = cls(graph.num_nodes, name=name)
        topology._adjacency = [row[:] for row in graph.adjacency]
        topology._edge_weights = {
            (u, v): weight
            for u, row in enumerate(topology._adjacency)
            for v, weight in row
            if u < v
        }
        return topology

    def copy(self) -> "Topology":
        """Return a deep copy of this topology.

        O(E): adjacency rows and the edge-weight table are copied directly
        (they are already validated and deduplicated), instead of replaying
        ``add_edge`` per edge.
        """
        duplicate = Topology(self._num_nodes, name=self.name)
        duplicate._adjacency = [list(row) for row in self._adjacency]
        duplicate._edge_weights = dict(self._edge_weights)
        return duplicate

    # -- CSR kernel cache --------------------------------------------------

    def csr(self) -> "CSRGraph":
        """Return the cached CSR kernel snapshot of this topology.

        Built lazily on first use and invalidated whenever the topology
        mutates (``add_edge``), so callers can hold a ``Topology`` and always
        see a kernel consistent with the current edges.
        """
        if self._csr is None:
            from repro.graphs.csr import CSRGraph

            self._csr = CSRGraph.from_topology(self)
        return self._csr

    def weight_profile(self) -> "WeightProfile":
        """Return the cached :class:`~repro.graphs.csr.WeightProfile`.

        Profiled lazily from the edge weights and cached alongside the CSR
        snapshot (both are invalidated whenever ``add_edge`` mutates the
        graph).  The CSR kernels use it to pick the search kernel: unit
        weights take the BFS/bucket fast paths, power-of-two-quantized
        weights take the Dial bucket queue, everything else the heap.
        """
        if self._weight_profile is None:
            from repro.graphs.csr import profile_weights

            self._weight_profile = profile_weights(
                self._edge_weights.values()
            )
        return self._weight_profile

    def content_key(self) -> str:
        """Return a content-addressed key for this topology's edge set.

        A SHA-256 hex digest over the node count and every undirected edge
        ``(u, v, weight)`` in sorted order, with weights hashed by their
        exact IEEE-754 bit pattern.  Two topologies have the same key iff
        they compare ``==`` (same nodes and weighted edges, regardless of
        insertion order or ``name``).  Cached alongside the CSR snapshot and
        invalidated on any mutation; the scenario engine's artifact cache
        uses it to key converged routing substrates on disk.
        """
        if self._content_key is None:
            import hashlib
            import struct

            digest = hashlib.sha256()
            digest.update(b"topology/v1")
            digest.update(struct.pack("<q", self._num_nodes))
            for (u, v) in sorted(self._edge_weights):
                digest.update(
                    struct.pack("<qqd", u, v, self._edge_weights[(u, v)])
                )
            self._content_key = digest.hexdigest()
        return self._content_key

    # -- pickling ----------------------------------------------------------
    # The CSR snapshot (arrays + scratch arena) is cheap to rebuild and
    # dropped from the pickle so multiprocessing fan-outs ship only the
    # adjacency structure to worker processes.

    def __getstate__(self) -> dict:
        return {
            "_num_nodes": self._num_nodes,
            "_adjacency": self._adjacency,
            "_edge_weights": self._edge_weights,
            "name": self.name,
        }

    def __setstate__(self, state: dict) -> None:
        self._num_nodes = state["_num_nodes"]
        self._adjacency = state["_adjacency"]
        self._edge_weights = state["_edge_weights"]
        self.name = state["name"]
        self._csr = None
        self._weight_profile = None
        self._content_key = None

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self._num_nodes}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and self._edge_weights == other._edge_weights
        )

    def __hash__(self) -> int:  # Topologies are mutable; identity hash.
        return id(self)

    # -- internals ---------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise ValueError(
                f"node {node} out of range for topology with "
                f"{self._num_nodes} nodes"
            )


def _as_typed_array(typecode: str, slab) -> array:
    """Copy ``slab`` (array or typed memoryview) into a fresh ``array``."""
    if isinstance(slab, array) and slab.typecode == typecode:
        return array(typecode, slab)
    result = array(typecode)
    view = memoryview(slab)
    if view.nbytes:
        result.frombytes(view.cast("B"))
    return result


def _mmap_topology_slab(path: str, typecode: str, count: int):
    """Writable private (copy-on-write) typed view over one slab file.

    Unlike the substrate tables' read-only attach, the CSR kernel arena
    takes ``ctypes`` pointers into the graph slabs via ``from_buffer``,
    which requires a writable buffer.  ``ACCESS_COPY`` satisfies that
    while staying zero-copy in practice: the kernels never write the
    graph slabs, so no page is ever privatized and reads come straight
    from the shared page cache.
    """
    import mmap as _mmap
    import os

    if count == 0:
        return array(typecode)
    expected = 8 * count
    size = os.path.getsize(path)
    if size != expected:
        raise ValueError(
            f"slab file {path} holds {size} bytes, manifest expects {expected}"
        )
    with open(path, "rb") as handle:
        mapped = _mmap.mmap(handle.fileno(), expected, access=_mmap.ACCESS_COPY)
    # The cast memoryview keeps the mapping alive via the buffer protocol;
    # dropping the last view unmaps it.
    return memoryview(mapped).cast(typecode)


class CSRTopology(Topology):
    """An immutable, array-backed :class:`Topology`.

    The edge set lives in six flat slabs:

    * ``offsets`` / ``neighbors`` / ``weights`` -- the CSR arc slabs, laid
      out exactly as :meth:`CSRGraph.from_topology` would build them from
      the equivalent dict topology (arc order == edge arrival order), so
      :meth:`csr` wraps them zero-copy;
    * ``edges_u`` / ``edges_v`` / ``edges_w`` -- the deduplicated canonical
      edges ``(u < v)`` in arrival order, mirroring the dict path's
      ``_edge_weights`` insertion order.

    All ``Topology`` read APIs answer straight off the slabs.  The parent's
    dict/list structures (``_adjacency`` / ``_edge_weights``) are exposed as
    lazily materializing properties so inherited code paths -- equality,
    the tests' dict-based oracle -- keep working bit-identically; the
    materialized copies are cached but never consulted by the overrides.
    Mutation raises ``TypeError`` (convert with :meth:`to_dict_topology`
    first); ``copy()`` therefore shares the slabs.

    Instances are built by :mod:`repro.graphs.ingest` (streaming parse),
    :meth:`from_edge_arrays`, or :meth:`from_slab_dir` (mmap attach of a
    :data:`TOPOLOGY_SLAB_SCHEMA` directory).
    """

    __slots__ = (
        "_offsets",
        "_nbrs",
        "_wts",
        "_eu",
        "_ev",
        "_ew",
        "_adj_cache",
        "_ew_cache",
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
        self._adj_cache = None
        self._ew_cache = None
        self._csr = None
        self._weight_profile = profile
        self._content_key = None
        self.name = name

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
    ) -> "CSRTopology":
        """Build from deduplicated canonical edge arrays (``u < v``).

        Ids out of range, a pair with ``u >= v``, a repeated pair and a
        weight that is not positive and finite raise ``ValueError`` before
        anything is assembled (C-speed scans; repeats are found by the
        ingest dedup pass, C-accelerated when available, run on copies);
        the CSR arc slabs are then built in one counting pass
        (C-accelerated when available).
        """
        from repro.graphs.ingest import assemble_csr_slabs, dedup_edge_arrays

        copies = array("q", edges_u), array("q", edges_v), array("d", edges_w)
        if len({len(edges_u), len(edges_v), len(edges_w)}) > 1 or (
            len(edges_w)
            and not (
                min(edges_u) >= 0
                and max(edges_v) < num_nodes
                and not any(map(ge, edges_u, edges_v))
                and min(edges_w) > 0
                and all(map(math.isfinite, edges_w))
                and len(dedup_edge_arrays(num_nodes, *copies)[2]) == len(edges_w)
            )
        ):
            raise ValueError(
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

    # -- lazily materialized dict-backend views ---------------------------
    # These properties shadow the parent's slot descriptors: inherited
    # methods that read self._adjacency / self._edge_weights see dict
    # structures materialized on first touch, in the exact order the dict
    # construction path would have produced.

    @property
    def _adjacency(self) -> list[list[tuple[int, float]]]:
        if self._adj_cache is None:
            self._adj_cache = self.csr().adjacency
        return self._adj_cache

    @property
    def _edge_weights(self) -> dict[tuple[int, int], float]:
        edge_weights = self._ew_cache
        if edge_weights is None:
            eu, ev, ew = self._eu, self._ev, self._ew
            edge_weights = {
                (eu[j], ev[j]): ew[j] for j in range(len(ew))
            }
            self._ew_cache = edge_weights
        return edge_weights

    # -- immutability ------------------------------------------------------

    def _immutable(self) -> "TypeError":
        return TypeError(
            "CSRTopology is immutable; use to_dict_topology() for a "
            "mutable dict-backed copy"
        )

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        raise self._immutable()

    def remove_edge(self, u: int, v: int) -> float:
        raise self._immutable()

    def set_edge_weight(self, u: int, v: int, weight: float) -> float:
        raise self._immutable()

    # -- slab-direct read API ---------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._ew)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        eu, ev, ew = self._eu, self._ev, self._ew
        for j in range(len(ew)):
            yield eu[j], ev[j], ew[j]

    def neighbors(self, node: int) -> list[int]:
        self._check_node(node)
        lo, hi = self._offsets[node], self._offsets[node + 1]
        return self._nbrs[lo:hi].tolist()

    def neighbor_weights(self, node: int) -> list[tuple[int, float]]:
        self._check_node(node)
        return self.csr().neighbor_weights(node)

    def degree(self, node: int) -> int:
        self._check_node(node)
        return self._offsets[node + 1] - self._offsets[node]

    def edge_weight(self, u: int, v: int) -> float:
        return self.csr().edge_weight(u, v)

    def get_edge_weight(
        self, u: int, v: int, default: float | None = None
    ) -> float | None:
        csr = self.csr()
        return csr.edge_weight(u, v) if csr.has_edge(u, v) else default

    def total_weight(self) -> float:
        return sum(self._ew)

    def max_degree(self) -> int:
        offsets = self._offsets
        if self._num_nodes == 0:
            return 0
        return max(
            offsets[node + 1] - offsets[node]
            for node in range(self._num_nodes)
        )

    def degree_sequence(self) -> list[int]:
        offsets = self._offsets
        return [
            offsets[node + 1] - offsets[node]
            for node in range(self._num_nodes)
        ]

    def connected_components(self) -> list[list[int]]:
        # Same DFS as the parent, reading the arc slabs directly; arc order
        # equals adjacency insertion order, so the traversal (and therefore
        # the component/member ordering) is bit-identical to the dict path.
        offsets, neighbors = self._offsets, self._nbrs
        seen = bytearray(self._num_nodes)
        components: list[list[int]] = []
        for start in range(self._num_nodes):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = 1
            component: list[int] = []
            while stack:
                node = stack.pop()
                component.append(node)
                for arc in range(offsets[node], offsets[node + 1]):
                    neighbor = neighbors[arc]
                    if not seen[neighbor]:
                        seen[neighbor] = 1
                        stack.append(neighbor)
            components.append(component)
        return components

    def largest_component_subgraph(
        self,
    ) -> tuple["CSRTopology", dict[int, int]]:
        components = self.connected_components()
        if not components:
            return (
                CSRTopology.from_edge_arrays(
                    0, array("q"), array("q"), array("d"), name=self.name
                ),
                {},
            )
        largest = max(components, key=len)
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
            if new_u < 0:
                continue
            new_v = remap[ev[j]]
            if new_v < 0:
                continue
            # The mapping is monotone, so new_u < new_v stays canonical
            # and arrival order is preserved.
            sub_u.append(new_u)
            sub_v.append(new_v)
            sub_w.append(ew[j])
        sub = CSRTopology.from_edge_arrays(
            len(largest), sub_u, sub_v, sub_w, name=self.name
        )
        return sub, {old: new for new, old in enumerate(largest)}

    # -- conversions -------------------------------------------------------

    def to_dict_topology(self) -> Topology:
        """Return the equivalent mutable dict-backed :class:`Topology`.

        O(E) direct construction; adjacency rows and the edge-weight table
        come out in the same order the dict construction path would have
        produced, so the result is indistinguishable from one built by
        replaying ``add_edge`` over :meth:`edges`.
        """
        duplicate = Topology.from_csr(self.csr(), name=self.name)
        eu, ev, ew = self._eu, self._ev, self._ew
        duplicate._edge_weights = {
            (eu[j], ev[j]): ew[j] for j in range(len(ew))
        }
        return duplicate

    def copy(self) -> "CSRTopology":
        """Return a copy sharing the (immutable) slabs."""
        duplicate = CSRTopology(
            self._num_nodes,
            self._offsets,
            self._nbrs,
            self._wts,
            self._eu,
            self._ev,
            self._ew,
            name=self.name,
            profile=self._weight_profile,
        )
        duplicate._content_key = self._content_key
        return duplicate

    # -- derived snapshots -------------------------------------------------

    def csr(self) -> "CSRGraph":
        if self._csr is None:
            from repro.graphs.csr import CSRGraph

            self._csr = CSRGraph(
                self._num_nodes,
                self._offsets,
                self._nbrs,
                self._wts,
                profile=self.weight_profile(),
            )
        return self._csr

    def weight_profile(self) -> "WeightProfile":
        if self._weight_profile is None:
            from repro.graphs.csr import profile_weights

            self._weight_profile = profile_weights(self._ew)
        return self._weight_profile

    def content_key(self) -> str:
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

    # -- raw slab persistence (mmap-attachable artifact format) -----------

    def slab_items(self) -> tuple[tuple[str, str, object], ...]:
        """``(name, typecode, slab)`` triples in manifest order."""
        return (
            ("offsets", "q", self._offsets),
            ("neighbors", "q", self._nbrs),
            ("weights", "d", self._wts),
            ("edges_u", "q", self._eu),
            ("edges_v", "q", self._ev),
            ("edges_w", "d", self._ew),
        )

    def slab_bytes(self) -> int:
        """Total raw slab payload in bytes (every item is 8 bytes)."""
        return sum(8 * len(slab) for _, _, slab in self.slab_items())

    def save_slabs(self, path) -> str:
        """Write as a raw slab directory (see :data:`TOPOLOGY_SLAB_SCHEMA`).

        The directory is mmap-attachable with :meth:`from_slab_dir` -- the
        format the artifact cache stores big ingested topologies in.
        Returns the directory path.
        """
        import json
        import os

        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        slabs = self.slab_items()
        for name, _typecode, slab in slabs:
            target = os.path.join(path, f"{name}.bin")
            scratch = target + ".tmp"
            with open(scratch, "wb") as handle:
                handle.write(memoryview(slab))
            os.replace(scratch, target)
        manifest = {
            "schema": TOPOLOGY_SLAB_SCHEMA,
            "num_nodes": self._num_nodes,
            "name": self.name,
            "content_key": self.content_key(),
            "slots": [
                [name, typecode, len(slab)] for name, typecode, slab in slabs
            ],
        }
        manifest_path = os.path.join(path, "manifest.json")
        scratch = manifest_path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(scratch, manifest_path)
        return path

    @classmethod
    def from_slab_dir(cls, path) -> "CSRTopology":
        """Attach to a raw slab directory written by :meth:`save_slabs`.

        Every slab becomes a typed ``memoryview`` over a private
        copy-on-write file mapping, so repeated attaches share the OS page
        cache instead of materializing private copies.
        """
        import json
        import os

        path = os.fspath(path)
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("schema") != TOPOLOGY_SLAB_SCHEMA:
            raise ValueError(
                f"unsupported slab schema {manifest.get('schema')!r} in "
                f"{path} (expected {TOPOLOGY_SLAB_SCHEMA})"
            )
        views: dict[str, object] = {}
        for name, typecode, count in manifest["slots"]:
            views[name] = _mmap_topology_slab(
                os.path.join(path, f"{name}.bin"), typecode, count
            )
        attached = cls(
            manifest["num_nodes"],
            views["offsets"],
            views["neighbors"],
            views["weights"],
            views["edges_u"],
            views["edges_v"],
            views["edges_w"],
            name=manifest.get("name", "topology"),
        )
        attached._content_key = manifest.get("content_key")
        return attached

    # -- pickling ----------------------------------------------------------
    # Memoryview slabs (mmap attaches) are not picklable; copy every slab
    # into a plain array for transport.  Derived snapshots rebuild lazily.

    def __getstate__(self) -> dict:
        return {
            "num_nodes": self._num_nodes,
            "name": self.name,
            "offsets": _as_typed_array("q", self._offsets),
            "neighbors": _as_typed_array("q", self._nbrs),
            "weights": _as_typed_array("d", self._wts),
            "edges_u": _as_typed_array("q", self._eu),
            "edges_v": _as_typed_array("q", self._ev),
            "edges_w": _as_typed_array("d", self._ew),
            "content_key": self._content_key,
        }

    def __setstate__(self, state: dict) -> None:
        CSRTopology.__init__(
            self,
            state["num_nodes"],
            state["offsets"],
            state["neighbors"],
            state["weights"],
            state["edges_u"],
            state["edges_v"],
            state["edges_w"],
            name=state["name"],
        )
        self._content_key = state.get("content_key")

    def __repr__(self) -> str:
        return (
            f"CSRTopology(name={self.name!r}, nodes={self._num_nodes}, "
            f"edges={self.num_edges})"
        )
