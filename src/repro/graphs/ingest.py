"""Streaming topology ingestion: text datasets to CSR slabs, dict-free.

The historical ingestion path (``read_edge_list``) materialized a dict
:class:`~repro.graphs.topology.Topology` -- one Python tuple per parsed
edge, two adjacency-list entries per edge, a tuple-keyed weight dict --
before the CSR kernels flattened it all again.  This module parses a
dataset in a single line-streaming pass straight into three flat typed
arrays (canonical ``u < v`` endpoints plus weight, 24 bytes per parsed
edge), collapses duplicates with a counting-sort pass, and scatters the
CSR arc slabs directly: peak RSS is bounded by the CSR payload, never by
Python edge objects or the text file.

Formats register through the :func:`topology_format` decorator (the
icarus/FNSS registered-factory idiom): the generic ``edge-list`` format,
a Rocketfuel-style ISP map parser, and a CAIDA AS-links-style parser ship
built in, each with its own node-id remapping, self-loop policy, and
per-dataset delay model.  :func:`ingest_file` returns the array-backed
:class:`~repro.graphs.topology.Topology` straight off the streaming pass;
:func:`ingest_topology` adds content-addressed artifact caching keyed by
file digest, format, and delay-model parameters.

The duplicate policy matches ``TopologyBuilder.add_edge`` exactly: the
first arrival of an edge keeps its position, with the minimum weight over
all arrivals.  The assembled arc slabs reproduce, arc for arc, what
``TopologyBuilder.freeze`` lays out after the same ``add_edge`` calls, so
ingesting a file and replaying its lines through a builder give the same
bytes (a differential the tests hold).
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import os
from array import array
from math import inf
from typing import Callable, NamedTuple

from repro.errors import InputError
from repro.graphs import _ckernels
from repro.graphs.topology import Topology

__all__ = [
    "ParsedEdges",
    "available_formats",
    "assemble_csr_slabs",
    "dedup_edge_arrays",
    "file_digest",
    "ingest_file",
    "ingest_topology",
    "topology_format",
]

#: Rocketfuel-style default link delays (the icarus/FNSS convention):
#: intra-ISP links are fast, inter-ISP (external) links cross the wide
#: area.  Both are overridable per call.
ROCKETFUEL_INTERNAL_DELAY = 2.0
ROCKETFUEL_EXTERNAL_DELAY = 34.0


class ParsedEdges(NamedTuple):
    """The flat result of one streaming parse (pre-dedup)."""

    #: Node count declared by the dataset (header or id-remap table),
    #: or ``None`` to infer ``max_node + 1``.
    declared_nodes: int | None
    #: Name declared by the dataset, or ``None``.
    declared_name: str | None
    #: Largest node id referenced by any edge (-1 when there are none).
    max_node: int
    edges_u: array  # canonical lo endpoints ("q")
    edges_v: array  # canonical hi endpoints ("q")
    edges_w: array  # weights ("d")
    #: The message of the first self-loop or bad weight in arrival order,
    #: deferred so line-level parse errors and the range check keep their
    #: historical precedence; ``None`` if clean.
    deferred: str | None
    #: True when every parsed weight is exactly 1.0 (profile fast path).
    all_unit: bool


class TopologyFormat(NamedTuple):
    name: str
    parse: Callable[..., ParsedEdges]
    description: str


_FORMATS: dict[str, TopologyFormat] = {}


def topology_format(name: str, *, description: str = ""):
    """Register a streaming parser under ``name`` (decorator).

    The decorated callable takes ``(path, **params)`` and returns a
    :class:`ParsedEdges`; ``params`` are the format's delay-model knobs
    and become part of the ingest artifact cache key.
    """

    def register(parse: Callable[..., ParsedEdges]):
        _FORMATS[name] = TopologyFormat(name, parse, description)
        return parse

    return register


def available_formats() -> list[str]:
    """Registered format names, sorted."""
    return sorted(_FORMATS)


# -- parsers ---------------------------------------------------------------


@topology_format(
    "edge-list",
    description="'u v [weight]' lines; '# nodes N' / '# name X' headers",
)
def parse_edge_list(path) -> ParsedEdges:
    """The repo's native format (see :mod:`repro.graphs.io`).

    Error semantics are the documented ``read_edge_list`` contract, every
    error an :class:`~repro.errors.InputError`: malformed lines (wrong
    field count), non-numeric fields, negative node ids and a ``# nodes``
    header that is not a positive integer raise immediately with the
    offending ``path:line``; ids exceeding a ``# nodes N`` header raise
    after the pass; self-loops and weights that are not positive and
    finite raise last (the dict path surfaced them from ``add_edge`` after
    parsing), first offender in arrival order wins.
    Blank lines, CRLF line endings, and unknown ``#`` comments are
    ignored; bytes that are not UTF-8 read as U+FFFD, as in the other
    formats.
    """
    declared_nodes: int | None = None
    declared_name: str | None = None
    edges_u, edges_v, edges_w = array("q"), array("q"), array("d")
    push_u, push_v, push_w = edges_u.append, edges_v.append, edges_w.append
    max_node = -1
    all_unit = True
    deferred: str | None = None
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            if line[0] == "#":
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "nodes":
                    if not parts[1].isdecimal() or int(parts[1]) < 1:
                        raise InputError(
                            f"{path}:{line_number}: '# nodes' takes a "
                            f"positive integer, got {parts[1]!r}"
                        )
                    declared_nodes = int(parts[1])
                elif len(parts) >= 2 and parts[0] == "name":
                    declared_name = " ".join(parts[1:])
                continue
            fields = line.split()
            count = len(fields)
            if count != 2 and count != 3:
                raise InputError(
                    f"{path}:{line_number}: expected 'u v [weight]', "
                    f"got {line!r}"
                )
            try:
                weight = float(fields[2]) if count == 3 else 1.0
                u = int(fields[0])
                v = int(fields[1])
            except ValueError as exc:
                raise InputError(
                    f"{path}:{line_number}: non-numeric field in {line!r}"
                ) from exc
            if weight != 1.0:
                all_unit = False
            if u < 0 or v < 0:
                raise InputError(
                    f"{path}:{line_number}: negative node id in {line!r}"
                )
            if deferred is None:
                if u == v:
                    deferred = (
                        f"{path}:{line_number}: self-loops are not allowed "
                        f"(node {u})"
                    )
                elif not 0 < weight < inf:
                    deferred = (
                        f"{path}:{line_number}: edge weight must be > 0 and "
                        f"finite, got {weight}"
                    )
            if u > v:
                u, v = v, u
            push_u(u)
            push_v(v)
            push_w(weight)
            if v > max_node:
                max_node = v
    return ParsedEdges(
        declared_nodes, declared_name, max_node,
        edges_u, edges_v, edges_w, deferred, all_unit,
    )


@topology_format(
    "rocketfuel",
    description="Rocketfuel-style ISP maps: 'uid ... -> <nbr> {ext}' rows",
)
def parse_rocketfuel(
    path,
    internal_delay: float = ROCKETFUEL_INTERNAL_DELAY,
    external_delay: float = ROCKETFUEL_EXTERNAL_DELAY,
) -> ParsedEdges:
    """Rocketfuel-style router rows.

    Each non-comment line describes one router: the first field is its
    uid, and every field after the ``->`` marker is a neighbor --
    ``<id>`` for an intra-ISP (internal) link, ``{id}`` for an external
    one.  Node ids are arbitrary tokens, remapped to dense ints in first-
    appearance order.  Self-loops are skipped (policy: the dataset's
    aliasing artifacts, not errors), reverse arcs collapse in dedup, and
    the delay model assigns ``internal_delay`` / ``external_delay``.
    """
    ids: dict[str, int] = {}
    edges_u, edges_v, edges_w = array("q"), array("q"), array("d")
    push_u, push_v, push_w = edges_u.append, edges_v.append, edges_w.append
    all_unit = internal_delay == 1.0 and external_delay == 1.0
    internal_delay = float(internal_delay)
    external_delay = float(external_delay)
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for raw_line in handle:
            line = raw_line.strip()
            if not line or line[0] == "#":
                continue
            fields = line.split()
            try:
                arrow = fields.index("->")
            except ValueError:
                continue  # no adjacency on this row
            token = fields[0]
            u = ids.get(token)
            if u is None:
                u = ids[token] = len(ids)
            for field in fields[arrow + 1:]:
                if field.startswith("<") and field.endswith(">"):
                    weight = internal_delay
                elif field.startswith("{") and field.endswith("}"):
                    weight = external_delay
                else:
                    continue  # trailing annotations (=name, rn, ...)
                neighbor = field[1:-1]
                v = ids.get(neighbor)
                if v is None:
                    v = ids[neighbor] = len(ids)
                if u == v:
                    continue
                if u < v:
                    push_u(u)
                    push_v(v)
                else:
                    push_u(v)
                    push_v(u)
                push_w(weight)
    num_nodes = len(ids)
    return ParsedEdges(
        num_nodes, None, num_nodes - 1,
        edges_u, edges_v, edges_w, None, all_unit,
    )


@topology_format(
    "caida-aslinks",
    description="CAIDA AS-links style: 'D as1 as2 ...' / 'I as1 as2 ...'",
)
def parse_caida_aslinks(path, delay: float = 1.0) -> ParsedEdges:
    """CAIDA AS-links-style datasets.

    Lines starting with ``D`` (direct) or ``I`` (indirect) carry an AS
    adjacency in their next two fields; every other line (``T``, ``M``,
    comments) is metadata and skipped.  AS tokens (which may be
    multi-origin sets like ``"3356_174"``) remap to dense ints in first-
    appearance order.  AS-level hops share one ``delay`` (default 1.0:
    hop-count weights, the unit-weight regime the BFS kernel serves).
    """
    ids: dict[str, int] = {}
    edges_u, edges_v, edges_w = array("q"), array("q"), array("d")
    push_u, push_v, push_w = edges_u.append, edges_v.append, edges_w.append
    delay = float(delay)
    all_unit = delay == 1.0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for raw_line in handle:
            if not raw_line or raw_line[0] not in "DI":
                continue
            fields = raw_line.split()
            if len(fields) < 3:
                continue
            token_u, token_v = fields[1], fields[2]
            u = ids.get(token_u)
            if u is None:
                u = ids[token_u] = len(ids)
            v = ids.get(token_v)
            if v is None:
                v = ids[token_v] = len(ids)
            if u == v:
                continue
            if u < v:
                push_u(u)
                push_v(v)
            else:
                push_u(v)
                push_v(u)
            push_w(delay)
    num_nodes = len(ids)
    return ParsedEdges(
        num_nodes, None, num_nodes - 1,
        edges_u, edges_v, edges_w, None, all_unit,
    )


# -- flat-array assembly ---------------------------------------------------


def _ptr_q(slab):
    return (ctypes.c_int64 * len(slab)).from_buffer(slab) if len(slab) else None


def _ptr_d(slab):
    return (
        ctypes.c_double * len(slab)
    ).from_buffer(slab) if len(slab) else None


def dedup_edge_arrays(
    num_nodes: int, edges_u: array, edges_v: array, edges_w: array
) -> tuple[array, array, array]:
    """Collapse duplicate canonical edges in place; return the arrays.

    First arrival keeps its position with the minimum weight over all
    arrivals -- exactly ``TopologyBuilder.add_edge``'s duplicate policy.  The C
    pass groups edges by lo endpoint with a stable counting sort (no
    Python per-edge objects); the fallback uses a pair-keyed dict.
    """
    num_edges = len(edges_w)
    lib = _ckernels.load_kernels()
    if lib is not None and num_edges and num_nodes:
        group = array("q", bytes(8 * (num_nodes + 1)))
        eorder = array("q", bytes(8 * num_edges))
        stamp = array("q", bytes(8 * num_nodes))
        firstj = array("q", bytes(8 * num_nodes))
        kept = lib.dedup_edges(
            num_edges, num_nodes,
            _ptr_q(edges_u), _ptr_q(edges_v), _ptr_d(edges_w),
            _ptr_q(group), _ptr_q(eorder), _ptr_q(stamp), _ptr_q(firstj),
        )
        if kept != num_edges:
            del edges_u[kept:]
            del edges_v[kept:]
            del edges_w[kept:]
        return edges_u, edges_v, edges_w
    first: dict[tuple[int, int], int] = {}
    out_u, out_v, out_w = array("q"), array("q"), array("d")
    for j in range(num_edges):
        key = (edges_u[j], edges_v[j])
        index = first.get(key)
        if index is None:
            first[key] = len(out_w)
            out_u.append(edges_u[j])
            out_v.append(edges_v[j])
            out_w.append(edges_w[j])
        elif edges_w[j] < out_w[index]:
            out_w[index] = edges_w[j]
    return out_u, out_v, out_w


def assemble_csr_slabs(
    num_nodes: int, edges_u, edges_v, edges_w
) -> tuple[array, array, array]:
    """Scatter deduplicated canonical edges into CSR arc slabs.

    Returns ``(offsets, neighbors, weights)`` laid out exactly as
    ``TopologyBuilder.freeze`` lays out a builder whose ``add_edge`` calls
    arrived in the same edge order.
    """
    num_edges = len(edges_w)
    offsets = array("q", bytes(8 * (num_nodes + 1)))
    neighbors = array("q", bytes(16 * num_edges))
    weights = array("d", bytes(16 * num_edges))
    lib = _ckernels.load_kernels()
    if lib is not None and num_edges and num_nodes:
        degrees = array("q", bytes(8 * num_nodes))
        p_degrees = _ptr_q(degrees)
        lib.bincount_i64(_ptr_q(edges_u), num_edges, p_degrees)
        lib.bincount_i64(_ptr_q(edges_v), num_edges, p_degrees)
        total = 0
        for node in range(num_nodes):
            total += degrees[node]
            offsets[node + 1] = total
        cursor = offsets[:num_nodes]
        lib.csr_fill(
            num_edges,
            _ptr_q(edges_u), _ptr_q(edges_v), _ptr_d(edges_w),
            _ptr_q(cursor), _ptr_q(neighbors), _ptr_d(weights),
        )
        return offsets, neighbors, weights
    degree_list = [0] * num_nodes
    for j in range(num_edges):
        degree_list[edges_u[j]] += 1
        degree_list[edges_v[j]] += 1
    total = 0
    for node in range(num_nodes):
        total += degree_list[node]
        offsets[node + 1] = total
    cursor = list(offsets[:num_nodes])
    for j in range(num_edges):
        u, v, w = edges_u[j], edges_v[j], edges_w[j]
        position = cursor[u]
        cursor[u] = position + 1
        neighbors[position] = v
        weights[position] = w
        position = cursor[v]
        cursor[v] = position + 1
        neighbors[position] = u
        weights[position] = w
    return offsets, neighbors, weights


# -- ingestion drivers -----------------------------------------------------


def file_digest(path) -> str:
    """Streaming SHA-256 of the dataset file (artifact cache key part)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _streamed_profile(edges_w, all_unit: bool):
    from repro.graphs.csr import profile_weights

    if all_unit and len(edges_w):
        # Any multiset of 1.0s profiles identically; skip the O(m) rescan.
        return profile_weights((1.0,))
    return profile_weights(edges_w)


def ingest_file(
    path,
    *,
    fmt: str = "edge-list",
    name: str | None = None,
    largest_component: bool = False,
    **params,
) -> Topology:
    """Parse ``path`` with the registered ``fmt`` parser into a
    :class:`Topology`, straight off the streaming pass.

    ``largest_component=True`` keeps only the largest connected component
    (real datasets are routinely disconnected).  ``params`` go to the
    parser (delay-model knobs).  An unknown format, a knob the format does
    not take, a file that yields no node and every refusal of the parser
    raise :class:`~repro.errors.InputError`.
    """
    spec = _FORMATS.get(fmt)
    if spec is None:
        raise InputError(
            f"unknown topology format {fmt!r}; "
            f"available: {', '.join(available_formats())}"
        )
    unknown = sorted(params.keys() - inspect.signature(spec.parse).parameters)
    if unknown:
        raise InputError(
            f"format {fmt!r} takes no {', '.join(unknown)} parameter"
        )
    parsed = spec.parse(path, **params)
    num_nodes = (
        parsed.declared_nodes
        if parsed.declared_nodes is not None
        else parsed.max_node + 1
    )
    if num_nodes < 1:
        raise InputError(
            f"{path}: no node (no edge and no '# nodes N' header)"
        )
    if parsed.max_node >= num_nodes:
        raise InputError(
            f"{path}: edge references node {parsed.max_node} but header "
            f"declares only {num_nodes} nodes"
        )
    if parsed.deferred is not None:
        raise InputError(parsed.deferred)
    topology_name = name or parsed.declared_name or os.path.basename(
        str(path)
    )
    edges_u, edges_v, edges_w = dedup_edge_arrays(
        num_nodes, parsed.edges_u, parsed.edges_v, parsed.edges_w
    )
    topology = Topology.from_edge_arrays(
        num_nodes,
        edges_u,
        edges_v,
        edges_w,
        name=topology_name,
        profile=_streamed_profile(edges_w, parsed.all_unit),
    )
    if largest_component:
        topology, _mapping = topology.largest_component_subgraph()
    return topology


def ingest_topology(
    path,
    *,
    fmt: str = "edge-list",
    name: str | None = None,
    largest_component: bool = False,
    **params,
):
    """Cached :func:`ingest_file` through the active cache.

    The artifact key covers the file's content digest, the format, the
    largest-component flag, and every delay-model parameter -- editing
    the dataset or changing the delay model invalidates the artifact.
    Without an active cache this is a plain :func:`ingest_file`.
    """
    from repro.scenarios.cache import Uncacheable, active_cache, canonical_value

    cache = active_cache()

    def build():
        return ingest_file(
            path,
            fmt=fmt,
            name=name,
            largest_component=largest_component,
            **params,
        )

    if cache is None:
        return build()
    try:
        canonical = canonical_value(sorted(params.items()))
    except Uncacheable:
        return build()
    parts = (
        "ingest",
        fmt,
        file_digest(path),
        bool(largest_component),
        canonical,
    )
    return cache.topology(parts, build)
