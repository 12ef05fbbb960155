"""Incremental maintenance cost of a topology change.

When a link fails or recovers, Disco does not reconverge from scratch:

* path vector repairs the affected landmark and vicinity routes;
* nodes whose closest landmark or landmark-tree path changed get a new
  *address*, refresh their soft-state record in the resolution database, and
  re-announce the address over the dissemination overlay (one announcement
  reaches the Θ(√(n log n)) members of the sloppy group over a
  constant-degree overlay, so it costs on the order of the group size in
  overlay messages);
* everything else is untouched.

:class:`MaintenanceCost` is that bill: the "cost of one event" number the
churn experiment compares against full reconvergence (the Fig. 8 cost).
:class:`~repro.dynamics.engine.ChurnEngine` charges it per event from what
its repairs changed; the tests check it against a full diff of the converged
state before and after the change (``tests/oracles/replay.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sloppy_groups import SloppyGrouping

__all__ = ["MaintenanceCost"]


@dataclass(frozen=True)
class MaintenanceCost:
    """The incremental cost of one topology change.

    Attributes
    ----------
    addresses_changed:
        Nodes whose address (closest landmark or landmark-tree path) changed.
    landmark_set_changed:
        Whether the landmark set itself differs (only under landmark churn).
    resolution_updates:
        Soft-state records that must be refreshed at their home landmarks
        (one per changed address).
    dissemination_messages:
        Overlay messages needed to re-announce the changed addresses to their
        sloppy groups (changed addresses x group size, the dominant term).
    vicinity_entries_changed:
        Total routing-table entries (vicinity members added, removed, or with
        a different distance) across all nodes -- the path-vector repair work.
    landmark_entries_changed:
        Landmark-route entries whose distance changed across all nodes.
    total_incremental_entries:
        Sum of the routing-entry and announcement work above: the quantity to
        compare against the full-reconvergence entry count from Fig. 8.
    """

    addresses_changed: int
    landmark_set_changed: bool
    resolution_updates: int
    dissemination_messages: int
    vicinity_entries_changed: int
    landmark_entries_changed: int

    @property
    def total_incremental_entries(self) -> int:
        """Total logical updates exchanged to absorb the change."""
        return (
            self.resolution_updates
            + self.dissemination_messages
            + self.vicinity_entries_changed
            + self.landmark_entries_changed
        )


def _mean_group_size(grouping: SloppyGrouping) -> float:
    sizes = grouping.group_sizes()
    return sum(sizes.values()) / max(len(sizes), 1)
