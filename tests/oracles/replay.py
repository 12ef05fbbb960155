"""The replay oracle: per-event full reconvergence plus a state diff.

The seed-era dynamics path models one topology event by building a *fully
reconverged* :class:`~repro.core.nddisco.NDDiscoRouting` on the mutated
topology and diffing it against the previous state.  That is the paper's
accounting, at the cost of a full |L|-SPT + n-vicinity rebuild per event;
:class:`~repro.dynamics.engine.ChurnEngine` must charge the same bills
incrementally.  It takes edge events only (the link-flap workload); node
events have oracles of their own in ``tests/test_dynamics_regions.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.nddisco import NDDiscoRouting
from repro.core.sloppy_groups import SloppyGrouping
from repro.dynamics.maintenance import MaintenanceCost, _mean_group_size
from repro.dynamics.stream import DynEvent, apply_edge_event
from repro.graphs.topology import Topology, TopologyBuilder

__all__ = ["maintenance_cost", "replay_bills"]


def replay_bills(
    topology: Topology,
    events: Iterable[DynEvent],
    *,
    seed: int,
    landmarks: set[int],
) -> list[MaintenanceCost]:
    """The bill of every event: reconverge from scratch, diff the states."""
    state = NDDiscoRouting(topology, seed=seed, landmarks=landmarks)
    builder = TopologyBuilder.from_topology(topology)
    bills = []
    for event in events:
        apply_edge_event(builder, event)
        next_state = NDDiscoRouting(
            builder.freeze(), seed=seed, landmarks=landmarks
        )
        bills.append(maintenance_cost(state, next_state))
        state = next_state
    return bills


def maintenance_cost(
    before: NDDiscoRouting,
    after: NDDiscoRouting,
    *,
    grouping: SloppyGrouping | None = None,
) -> MaintenanceCost:
    """Diff two converged NDDisco states and charge the incremental updates.

    Parameters
    ----------
    before, after:
        Converged protocol state on the topology before and after the change.
        They must cover the same node set (node churn is modelled as edge
        churn of the node's links, keeping ids stable).
    grouping:
        The sloppy grouping used to size re-announcements; defaults to a
        grouping over ``after``'s names with the true n.
    """
    n_before = before.topology.num_nodes
    n_after = after.topology.num_nodes
    if n_before != n_after:
        raise ValueError(
            f"before/after node counts differ ({n_before} vs {n_after}); "
            "model node churn as edge churn with stable node ids"
        )
    if grouping is None:
        grouping = SloppyGrouping(after.names)

    addresses_changed = 0
    for node in range(n_after):
        old = before.address_of(node)
        new = after.address_of(node)
        if old.landmark != new.landmark or old.route.path != new.route.path:
            addresses_changed += 1

    landmark_set_changed = before.landmarks != after.landmarks

    # Vicinity repair: entries added, removed, or re-costed.
    vicinity_entries_changed = 0
    for node in range(n_after):
        old_table = dict(zip(*before.tables.vicinity.row(node)[:2]))
        new_table = dict(zip(*after.tables.vicinity.row(node)[:2]))
        keys = set(old_table) | set(new_table)
        for member in keys:
            if member == node:
                continue
            if old_table.get(member) != new_table.get(member):
                vicinity_entries_changed += 1

    # Landmark-route repair: distance changes toward any landmark.
    landmark_entries_changed = 0
    shared_landmarks = before.landmarks & after.landmarks
    for landmark in shared_landmarks:
        for node in range(n_after):
            if before.landmark_distance(landmark, node) != after.landmark_distance(
                landmark, node
            ):
                landmark_entries_changed += 1
    # Routes to appearing/disappearing landmarks are all new/withdrawn state.
    changed_landmarks = before.landmarks ^ after.landmarks
    landmark_entries_changed += len(changed_landmarks) * n_after

    group_size = _mean_group_size(grouping)
    dissemination_messages = int(round(addresses_changed * group_size))

    return MaintenanceCost(
        addresses_changed=addresses_changed,
        landmark_set_changed=landmark_set_changed,
        resolution_updates=addresses_changed,
        dissemination_messages=dissemination_messages,
        vicinity_entries_changed=vicinity_entries_changed,
        landmark_entries_changed=landmark_entries_changed,
    )
