"""Per-node state accounting: the oracle of ``state_profile``.

Before each scheme defined its state once, in ``state_profile`` (a node's
entries, and its bytes as ``per * name_bytes + fixed``), ND-Disco, Disco
and S4 each counted it twice, per node: ``state_entries(node)`` and
``state_bytes(node, name_bytes=)``, the label mappings walked one landmark
SPT parent at a time and the bytes summed record by record at the asked
name size.  Those methods live here unchanged in what they compute, read
through the schemes' accessors, so the tests can hold ``state_profile``,
``state_entries``, ``state_bytes`` and ``measure_state`` to them node for
node.
"""

from __future__ import annotations

import weakref

from oracles.resolution_db import SoftStateDatabase, scheme_records
from repro.addressing.address import NAME_BYTES_IPV4, Address
from repro.core.disco import DiscoRouting
from repro.core.nddisco import NDDiscoRouting
from repro.protocols.s4 import S4Routing

__all__ = [
    "label_mapping_entries",
    "mapping_entry_bytes",
    "state_bytes",
    "state_entries",
]

_RECORDS: "weakref.WeakKeyDictionary[object, SoftStateDatabase]" = (
    weakref.WeakKeyDictionary()
)


def mapping_entry_bytes(address: Address, name_bytes: int) -> float:
    """Size of a (destination name -> address) mapping entry.

    Used for name-resolution entries at landmarks and sloppy-group
    address entries at every group member.
    """
    return float(name_bytes) + address.size_bytes(name_bytes)


def _records(scheme) -> SoftStateDatabase:
    """The resolution records an ND-Disco or S4 scheme stores, by landmark."""
    records = _RECORDS.get(scheme)
    if records is None:
        records = _RECORDS[scheme] = scheme_records(scheme)
    return records


def _entry_bytes_at(scheme, landmark: int, *, name_bytes: int = 4) -> float:
    """Bytes of resolution state at ``landmark`` (names + addresses)."""
    return sum(
        mapping_entry_bytes(record.address, name_bytes)
        for record in _records(scheme).records_at(landmark)
    )


def label_mapping_entries(nddisco: NDDiscoRouting, node: int) -> int:
    """Forwarding-label mapping entries at ``node``.

    "The node really needs to remember the mapping only for those
    forwarding labels that will actually be used; these will be for the
    neighbors leading along shortest paths to landmarks or nodes in the
    node's vicinity" (§4.5 Theorem 2).
    """
    tables = nddisco.tables
    n = tables.num_nodes
    used_neighbors: set[int] = set()
    for index, landmark in enumerate(tables.landmarks):
        if landmark == node:
            continue
        parent = tables.spt_parent[index * n + node]
        if parent >= 0:
            used_neighbors.add(parent)
    members, _, parents = tables.vicinity.row(node)
    # The row's first slot is the node itself, parent -1.
    for member, parent in zip(members[1:].tolist(), parents[1:].tolist()):
        if parent == node:
            used_neighbors.add(member)
    return len(used_neighbors)


def _vicinity_entries(scheme: NDDiscoRouting, node: int) -> int:
    """Vicinity routes at ``node``: its row, the node itself excluded."""
    members, _, _ = scheme.tables.vicinity.row(node)
    return len(members) - 1


def _nddisco_entries(scheme: NDDiscoRouting, node: int) -> int:
    """Data-plane entries: landmarks + vicinity + label mappings + resolution."""
    landmarks = scheme.landmarks
    landmark_entries = len(landmarks) - (1 if node in landmarks else 0)
    vicinity_entries = _vicinity_entries(scheme, node)
    return (
        landmark_entries
        + vicinity_entries
        + label_mapping_entries(scheme, node)
        + _records(scheme).entries_at(node)
    )


def _nddisco_bytes(scheme: NDDiscoRouting, node: int, name_bytes: int) -> float:
    """Each landmark / vicinity forwarding entry costs one name plus a
    one-byte next-hop label; label-mapping entries cost two bytes (label
    plus interface); each resolution record costs the destination name
    plus its full address (landmark name plus explicit-route labels)."""
    landmarks = scheme.landmarks
    landmark_entries = len(landmarks) - (1 if node in landmarks else 0)
    vicinity_entries = _vicinity_entries(scheme, node)
    forwarding_bytes = (landmark_entries + vicinity_entries) * (name_bytes + 1.0)
    label_bytes = label_mapping_entries(scheme, node) * 2.0
    resolution_bytes = _entry_bytes_at(scheme, node, name_bytes=name_bytes)
    return forwarding_bytes + label_bytes + resolution_bytes


def _disco_entries(scheme: DiscoRouting, node: int) -> int:
    """NDDisco entries plus sloppy-group address mappings plus overlay links."""
    return (
        _nddisco_entries(scheme.nddisco, node)
        + scheme.group_address_entries(node)
        + scheme.overlay.degree(node)
    )


def _disco_bytes(scheme: DiscoRouting, node: int, name_bytes: int) -> float:
    """Bytes of data-plane state at ``node`` (Fig. 7 accounting)."""
    base = _nddisco_bytes(scheme.nddisco, node, name_bytes)
    group_bytes = scheme._group_entry_bytes[node]
    if name_bytes != NAME_BYTES_IPV4:
        # The cached byte totals were computed with IPv4-sized names;
        # rescale the per-entry fixed cost (two names per mapping entry).
        delta_per_entry = 2.0 * (name_bytes - NAME_BYTES_IPV4)
        group_bytes += scheme.group_address_entries(node) * delta_per_entry
    overlay_bytes = 0.0
    for neighbor in scheme.overlay.neighbors(node):
        overlay_bytes += mapping_entry_bytes(
            scheme.nddisco.address_of(neighbor), name_bytes
        )
    return base + group_bytes + overlay_bytes


def _s4_entries(scheme: S4Routing, node: int) -> int:
    """Cluster routes + landmark routes + location-service records."""
    landmarks = scheme.landmarks
    landmark_entries = len(landmarks) - (1 if node in landmarks else 0)
    return (
        scheme.cluster_size(node)
        + landmark_entries
        + _records(scheme).entries_at(node)
    )


def _s4_bytes(scheme: S4Routing, node: int, name_bytes: int) -> float:
    """Bytes of state: forwarding entries plus location records (Fig. 7)."""
    landmarks = scheme.landmarks
    landmark_entries = len(landmarks) - (1 if node in landmarks else 0)
    forwarding_entries = scheme.cluster_size(node) + landmark_entries
    forwarding_bytes = forwarding_entries * (name_bytes + 1.0)
    resolution_bytes = _entry_bytes_at(scheme, node, name_bytes=name_bytes)
    return forwarding_bytes + resolution_bytes


_ORACLES = {
    NDDiscoRouting: (_nddisco_entries, _nddisco_bytes),
    DiscoRouting: (_disco_entries, _disco_bytes),
    S4Routing: (_s4_entries, _s4_bytes),
}


def state_entries(scheme, node: int) -> int:
    """``node``'s data-plane entries under ND-Disco, Disco or S4."""
    return _ORACLES[type(scheme)][0](scheme, node)


def state_bytes(scheme, node: int, name_bytes: int) -> float:
    """``node``'s data-plane bytes with ``name_bytes``-sized names."""
    return _ORACLES[type(scheme)][1](scheme, node, name_bytes)
