"""Edge-list I/O for topologies.

The experiment harness can persist generated topologies (so a large topology
is generated once and reused across figures) and can ingest external
edge-list files (e.g. a real CAIDA-derived map if the user has one locally).
The format is plain text: one edge per line as ``u v [weight]``, ``#``
comments allowed, blank lines ignored.
"""

from __future__ import annotations

import os
from typing import TextIO

from repro.graphs.topology import Topology

__all__ = ["read_edge_list", "write_edge_list"]


def write_edge_list(topology: Topology, path: str | os.PathLike[str]) -> None:
    """Write ``topology`` to ``path`` in the edge-list format."""
    with open(path, "w", encoding="utf-8") as handle:
        _write_edge_list(topology, handle)


def _write_edge_list(topology: Topology, handle: TextIO) -> None:
    handle.write(f"# nodes {topology.num_nodes}\n")
    handle.write(f"# name {topology.name}\n")
    for u, v, weight in topology.edges():
        if weight == 1.0:
            handle.write(f"{u} {v}\n")
        else:
            handle.write(f"{u} {v} {weight!r}\n")


def read_edge_list(
    path: str | os.PathLike[str], *, name: str | None = None
) -> Topology:
    """Read a topology from an edge-list file.

    The node count is taken from the ``# nodes N`` header if present,
    otherwise inferred as ``max node id + 1``.  Unknown ``#`` comment lines
    are ignored.

    Raises
    ------
    repro.errors.InputError
        On malformed lines (wrong field count, non-numeric fields, negative
        node ids, or node ids exceeding a declared node count), a bad
        ``# nodes`` header, a file that yields no node, a self-loop or a
        weight that is not positive and finite.
    """
    # One code path: the streaming parser in repro.graphs.ingest owns the
    # format and its documented error semantics.
    from repro.graphs.ingest import ingest_file

    return ingest_file(path, fmt="edge-list", name=name)
